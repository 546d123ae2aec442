package sim

// eventQueue is the scheduler's pending-event structure: a calendar-style
// bucket heap tuned for the simulation's two dominant scheduling
// patterns. The NIC and transport models emit dense bursts of events at
// exactly the same instant (a multicast write fans out to every replica
// with identical completion math), which a plain binary heap pays
// O(log n) per event for; here a burst lands in one bucket with an O(1)
// append. Timer-style monotone scheduling degenerates to one bucket per
// event, costing one heap push, with the bucket recycled through a free
// list and the event stored by value in it, so a push allocates nothing
// in steady state.
//
// Determinism contract: pop order is exactly (at, seq). Buckets with
// equal timestamps can coexist in the heap; they are ordered by the
// sequence number of their first event, and events are only ever appended
// to the most recently targeted bucket, so the sequence ranges of
// equal-time buckets never interleave.
//
// Wait timeouts do not live here: see timerHeap.
type eventQueue struct {
	heap []*bucket
	// last is the bucket most recently pushed into; the burst fast path.
	last   *bucket
	size   int
	freeBk []*bucket
}

// event is one scheduled action: a callback (fn) or, with fn nil, a wake
// of process p — the form Sleep, Broadcast, Unlock, Kill and SpawnAfter
// schedule, which needs no closure. Events with equal time run in the
// order they were scheduled (seq breaks ties), which keeps runs
// deterministic.
type event struct {
	seq uint64
	fn  func()
	p   *Proc
}

// bucket holds every event scheduled for one exact timestamp, in FIFO
// (= sequence) order. pos is the consumption cursor, so draining and
// same-instant appends can interleave without copying.
type bucket struct {
	at       Time
	firstSeq uint64
	evs      []event
	pos      int
}

func (q *eventQueue) len() int { return q.size }

// peek returns the (at, seq) of the earliest pending event.
func (q *eventQueue) peek() (Time, uint64, bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	b := q.heap[0]
	return b.at, b.evs[b.pos].seq, true
}

// push schedules ev at (at, ev.seq). Callers must push with strictly
// increasing seq.
func (q *eventQueue) push(at Time, ev event) {
	q.size++
	if q.last != nil && q.last.at == at {
		q.last.evs = append(q.last.evs, ev)
		return
	}
	var b *bucket
	if n := len(q.freeBk); n > 0 {
		b = q.freeBk[n-1]
		q.freeBk = q.freeBk[:n-1]
	} else {
		b = &bucket{}
	}
	b.at, b.firstSeq = at, ev.seq
	b.evs = append(b.evs, ev)
	q.last = b
	q.heap = append(q.heap, b)
	q.siftUp(len(q.heap) - 1)
}

// pop removes and returns the earliest event (min (at, seq)) and its
// time. pop panics on an empty queue.
func (q *eventQueue) pop() (Time, event) {
	b := q.heap[0]
	at, ev := b.at, b.evs[b.pos]
	b.evs[b.pos] = event{}
	b.pos++
	q.size--
	if b.pos == len(b.evs) {
		q.popRoot()
		if q.last == b {
			q.last = nil
		}
		b.evs = b.evs[:0]
		b.pos = 0
		q.freeBk = append(q.freeBk, b)
	}
	return at, ev
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.firstSeq < b.firstSeq
}

func (q *eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *eventQueue) popRoot() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}

// timerHeap holds the armed timeouts of parked waits: an indexed binary
// heap of the waiting processes themselves, keyed (p.deadline, p.tseq),
// with the heap position kept in p.tidx so Broadcast cancels a released
// waiter's timeout in O(log n) of the *armed* timers. A timeout therefore
// exists only while its wait can still time out: a cancelled one never
// enters the event queue, is never executed, and holds no memory. The
// scheduler merges the two structures by (time, seq), so a live timeout
// fires in exactly the slot an event pushed at arm time would have.
type timerHeap []*Proc

func (h timerHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.tseq < b.tseq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].tidx, h[j].tidx = i, j
}

// arm inserts p, whose deadline and tseq the caller has set.
func (h *timerHeap) arm(p *Proc) {
	p.tidx = len(*h)
	*h = append(*h, p)
	h.up(p.tidx)
}

// cancel removes p's timeout if one is armed.
func (h *timerHeap) cancel(p *Proc) {
	i := p.tidx
	if i < 0 {
		return
	}
	n := len(*h) - 1
	if i != n {
		h.swap(i, n)
	}
	(*h)[n] = nil
	*h = (*h)[:n]
	p.tidx = -1
	if i != n {
		h.down(i)
		h.up(i)
	}
}

func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h timerHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}
