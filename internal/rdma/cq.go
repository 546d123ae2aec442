package rdma

import (
	"fmt"
	"slices"

	"heron/internal/obs"
	"heron/internal/sim"
)

// Asynchronous one-sided reads: posted READs and completion queues.
//
// Real one-sided designs do not issue READs one at a time — they post a
// batch of work requests and poll a completion queue, overlapping the
// fabric round trips so that k outstanding READs cost roughly
// max(latencies) plus per-verb NIC occupancy instead of sum(latencies).
// PostRead and CQ model exactly that: posting charges only the issuer's
// CPU posting overhead, NIC occupancy is accounted per verb on both NICs
// (so saturation still queues), and each operation completes — or fails —
// individually. A crashed target fails only its own completions, after the
// RC retransmission timeout, never the whole batch.

// ReadHandle identifies one posted READ. It becomes ready when the
// operation's completion is delivered to its CQ; Data/Err must only be
// inspected after Done reports true (after CQ.Poll/Wait/WaitAll returned
// the handle). A handle belongs to its CQ until CQ.Reset, which recycles
// it: it then reads as not done again, and its next post reuses its
// buffer.
type ReadHandle struct {
	addr   Addr
	length int
	buf    []byte // the snapshot; keeps its capacity across recycling
	err    error
	done   bool
	seq    int // posting order within the CQ, for deterministic reporting

	// The landing's operands, set by PostRead: the QP and region read, and
	// the posting and completion instants.
	q              *QP
	cq             *CQ
	reg            *Region
	posted, doneAt sim.Time
	inc            uint64 // the QP's incarnation at the post
	// fire is the landing event, bound once when the handle is made.
	fire func()

	// sp is the post→completion trace span (nil when tracing is off).
	sp *obs.Span
}

// Addr returns the remote address the READ targeted.
func (h *ReadHandle) Addr() Addr { return h.addr }

// Done reports whether the completion has been delivered.
func (h *ReadHandle) Done() bool { return h.done }

// Seq returns the handle's posting sequence number within its CQ.
func (h *ReadHandle) Seq() int { return h.seq }

// Data returns the snapshot of target memory as of the completion
// instant, valid until the CQ's next Reset. It panics when the completion
// has not been delivered yet — or the handle was recycled — and returns
// nil for a failed operation.
func (h *ReadHandle) Data() []byte {
	if !h.done {
		panic(fmt.Sprintf("rdma: Data on incomplete READ of %v", h.addr))
	}
	if h.err != nil {
		return nil
	}
	return h.buf[:len(h.buf):len(h.buf)]
}

// Err returns the operation's completion status: nil on success,
// ErrRemoteFailure when the target crashed before the DMA completed. It
// panics when the completion has not been delivered yet.
func (h *ReadHandle) Err() error {
	if !h.done {
		panic(fmt.Sprintf("rdma: Err on incomplete READ of %v", h.addr))
	}
	return h.err
}

// land is the handle's landing event: it copies the snapshot into the
// handle's buffer and delivers the completion — or, when a crash or
// partition raced the DMA, or the link was reset since the post, fails
// this operation, and only this one, as a late timeout.
func (h *ReadHandle) land() {
	q := h.q
	if q.pathDown() || h.inc != q.incarnation() {
		failAt := h.posted + sim.Time(FailureTimeout)
		if failAt < h.doneAt {
			failAt = h.doneAt
		}
		err := q.pathErr()
		q.sched.At(failAt, func() { h.cq.complete(h, err) })
		return
	}
	h.buf = slices.Grow(h.buf[:0], h.length)[:h.length]
	h.reg.read(h.buf, h.addr.Off)
	h.cq.complete(h, nil)
}

// CQ is a completion queue for posted one-sided operations issued by one
// node. Completions are delivered in completion-time order (ties broken
// by posting order), which is deterministic under the virtual clock.
// Do not share a CQ between processes that collect independently.
//
// A CQ is reused, not remade: Reset recycles every handle posted since the
// last Reset — and with it the handle's buffer — so a CQ that is reset
// between batches allocates nothing in steady state. What Poll, Wait and
// WaitAll return is valid until the next of them or the next Reset; what a
// handle holds is valid until the next Reset.
type CQ struct {
	node        *Node
	sched       *sim.Scheduler
	cond        *sim.Cond
	outstanding int
	// completed holds the completions since the last poll; polled is the
	// slice the last poll returned. A poll swaps them.
	completed, polled []*ReadHandle
	// posted holds every handle posted since the last Reset, free the
	// recycled ones.
	posted, free []*ReadHandle
	nextSeq      int
	// ready and idle are Wait's and WaitAll's predicates, bound once.
	ready, idle func() bool
}

// NewCQ creates a completion queue owned by the node.
func (n *Node) NewCQ() *CQ {
	cq := &CQ{node: n, sched: n.fabric.sched, cond: sim.NewCond(n.fabric.sched)}
	cq.ready = func() bool { return len(cq.completed) > 0 }
	cq.idle = func() bool { return cq.outstanding == 0 }
	return cq
}

// Outstanding returns the number of posted operations whose completion
// has not been delivered yet.
func (cq *CQ) Outstanding() int { return cq.outstanding }

// Reset recycles every handle posted since the last Reset, together with
// its buffer, and drops completions not polled yet: the CQ is then as a
// new one, its next post numbered 0. A recycled handle reads as not done,
// so a stale Data or Err panics. Reset panics while an operation is
// outstanding: its completion would land in a recycled handle.
func (cq *CQ) Reset() {
	if cq.outstanding != 0 {
		panic(fmt.Sprintf("rdma: Reset of a CQ of node %d with %d READs outstanding", cq.node.id, cq.outstanding))
	}
	for _, h := range cq.posted {
		h.buf = h.buf[:0]
		h.err, h.done = nil, false
		h.q, h.reg, h.sp = nil, nil, nil
	}
	cq.free = append(cq.free, cq.posted...)
	clear(cq.posted)
	clear(cq.completed)
	clear(cq.polled)
	cq.posted, cq.completed, cq.polled = cq.posted[:0], cq.completed[:0], cq.polled[:0]
	cq.nextSeq = 0
}

// take returns a recycled handle, making one only when every handle the
// CQ has is posted, numbers it and counts it outstanding.
func (cq *CQ) take(q *QP, addr Addr, length int) *ReadHandle {
	var h *ReadHandle
	if n := len(cq.free); n > 0 {
		h = cq.free[n-1]
		cq.free[n-1] = nil
		cq.free = cq.free[:n-1]
	} else {
		h = &ReadHandle{cq: cq}
		h.fire = h.land
	}
	h.q, h.addr, h.length, h.seq = q, addr, length, cq.nextSeq
	h.posted = q.sched.Now()
	cq.nextSeq++
	cq.outstanding++
	cq.posted = append(cq.posted, h)
	return h
}

// complete delivers one completion.
func (cq *CQ) complete(h *ReadHandle, err error) {
	h.err, h.done = err, true
	if err != nil {
		h.sp.Arg("err", err.Error())
	}
	h.sp.End()
	cq.outstanding--
	cq.completed = append(cq.completed, h)
	cq.cond.Broadcast()
}

// Poll drains and returns the completions delivered since the last poll,
// in completion order, without blocking. It returns nil when none are
// ready. The slice is the CQ's own: it is valid until the next Poll, Wait,
// WaitAll or Reset.
func (cq *CQ) Poll() []*ReadHandle {
	if len(cq.completed) == 0 {
		return nil
	}
	done := cq.completed
	clear(cq.polled)
	cq.completed, cq.polled = cq.polled[:0], done
	return done
}

// Wait blocks until at least one completion is ready, then drains and
// returns all ready completions. With nothing outstanding and nothing
// ready it returns nil immediately (there is nothing to wait for).
func (cq *CQ) Wait(p *sim.Proc) []*ReadHandle {
	if len(cq.completed) == 0 && cq.outstanding == 0 {
		return nil
	}
	cq.cond.WaitUntil(p, cq.ready)
	return cq.Poll()
}

// WaitAll blocks until every posted operation has completed, then drains
// and returns all completions in completion order. Failed operations are
// returned like successful ones, with their error recorded — a crashed
// target never blocks the batch beyond its own failure timeout.
func (cq *CQ) WaitAll(p *sim.Proc) []*ReadHandle {
	cq.cond.WaitUntil(p, cq.idle)
	return cq.Poll()
}

// PostRead posts a one-sided READ of length bytes at addr and returns
// immediately after charging the issuer's CPU posting overhead; the
// completion is delivered to cq. NIC occupancy is charged at posting time
// on both NICs, so overlapping READs pipeline their base latencies while
// verb-rate limits still apply. Posting to a crashed target succeeds (as
// on real hardware); the failure surfaces asynchronously on that
// completion after the RC retransmission timeout; a lossy link only
// delays it (QP.transmit). A local crash or an invalid target region
// fails the posting itself and delivers nothing.
// The handle is one of cq's, recycled by its Reset: a post into a CQ reset
// before allocates nothing.
func (q *QP) PostRead(p *sim.Proc, cq *CQ, addr Addr, length int) (*ReadHandle, error) {
	if err := q.checkLocal(); err != nil {
		return nil, err
	}
	if cq.node != q.local {
		panic(fmt.Sprintf("rdma: PostRead on node %d with CQ of node %d", q.local.id, cq.node.id))
	}
	if q.pathDown() {
		h := cq.take(q, addr, length)
		if io := q.o(); io != nil {
			io.readOps.Inc()
			h.sp = io.track.BeginAsync("rdma", "post_read").
				Arg("to", int(q.remote.id)).Arg("bytes", length)
		}
		q.sched.At(h.posted+sim.Time(FailureTimeout), func() { cq.complete(h, q.pathErr()) })
		p.Sleep(PostOverhead)
		return h, nil
	}
	reg, err := q.region(addr, length)
	if err != nil {
		return nil, err
	}
	h := cq.take(q, addr, length)
	h.reg, h.inc = reg, q.incarnation()
	var wait sim.Duration
	h.doneAt, wait = q.completionTime(ReadBase, length)
	h.doneAt = q.transmit(h.doneAt)
	if io := q.o(); io != nil {
		io.readOps.Inc()
		io.readBytes.Add(uint64(length))
		h.sp = io.track.BeginAsync("rdma", "post_read").
			Arg("to", int(q.remote.id)).Arg("bytes", length).Arg("nic_wait_ns", int64(wait))
	}
	q.sched.At(h.doneAt, h.fire)
	p.Sleep(PostOverhead)
	return h, nil
}
