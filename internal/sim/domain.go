package sim

// Conservative parallel simulation: the event queue is sharded into
// domains (one Scheduler per domain, typically one per Heron partition
// group) whose virtual clocks advance concurrently on real OS threads.
//
// Synchronization is the classic conservative window barrier. Every
// cross-domain interaction carries a minimum virtual latency — the
// lookahead L, derived from the fabric's cross-partition link model — so
// an event executed at time t in one domain can only affect another
// domain at t+L or later. The coordinator therefore repeatedly:
//
//  1. merges each domain's inbox of cross-domain events into its queue,
//     in the deterministic order (time, sending domain, sending sequence);
//  2. finds the globally earliest pending event time W;
//  3. lets every domain execute its events in [W, W+L) in parallel;
//  4. barriers, and goes to 1.
//
// Determinism: each domain is sequential within a window, inbox merging
// is sorted, and the window sequence W_0, W_1, ... depends only on event
// content — so a multi-domain run is bit-reproducible against itself for
// a given seed, regardless of thread interleaving. (It is not event-order
// identical to the single-domain run of the same scenario: cross-domain
// operations take a structurally different path; see DESIGN.md §11.)
//
// Zero lookahead disables parallelism but not correctness: the fallback
// executes all domains' events on one thread in the globally merged
// (time, domain, sequence) order.

import (
	"fmt"
	"sort"
	"sync"
)

// crossEvent is an event scheduled into another domain, buffered in the
// target's inbox until the next window barrier.
type crossEvent struct {
	at     Time
	srcDom int
	srcSeq uint64
	fn     func()
}

// Domains couples n schedulers into one parallel simulation. Build the
// deployment so that each partition's processes, memory and NIC live on
// one member scheduler, with cross-partition traffic routed through
// CrossAt (the rdma and msgnet fabrics do this when nodes are placed on
// different domains).
type Domains struct {
	members   []*Scheduler
	lookahead Time
	// sequential is true while the zero-lookahead fallback loop runs;
	// CrossAt then pushes straight into the target queue.
	sequential bool
	running    bool
	// windows counts conservative windows executed by runParallel: each
	// window ends in one barrier every domain waits at, so this is also
	// the barrier-synchronization count.
	windows uint64
}

// NewDomains creates n coupled schedulers with the given lookahead: the
// smallest virtual latency any cross-domain interaction is guaranteed to
// carry (rdma.Fabric.CrossLookahead computes it for a wired fabric). A
// zero lookahead is valid and falls back to sequential execution.
func NewDomains(n int, lookahead Duration) *Domains {
	if n <= 0 {
		panic(fmt.Sprintf("sim: NewDomains(%d): need at least one domain", n))
	}
	if lookahead < 0 {
		lookahead = 0
	}
	d := &Domains{lookahead: Time(lookahead)}
	for i := 0; i < n; i++ {
		s := NewScheduler()
		s.dom = d
		s.domID = i
		d.members = append(d.members, s)
	}
	return d
}

// Domain returns member scheduler i.
func (d *Domains) Domain(i int) *Scheduler { return d.members[i] }

// Len returns the number of domains.
func (d *Domains) Len() int { return len(d.members) }

// Lookahead returns the configured lookahead.
func (d *Domains) Lookahead() Duration { return Duration(d.lookahead) }

// Now returns the maximum virtual time reached by any domain.
func (d *Domains) Now() Time {
	var max Time
	for _, m := range d.members {
		if m.now > max {
			max = m.now
		}
	}
	return max
}

// EventCount returns the total events executed across all domains.
func (d *Domains) EventCount() uint64 {
	var n uint64
	for _, m := range d.members {
		n += m.eventCount
	}
	return n
}

// Close unwinds every live process of every domain (see Scheduler.Close).
func (d *Domains) Close() {
	for _, m := range d.members {
		m.Close()
	}
}

// Windows returns how many conservative windows (= barrier
// synchronizations) the parallel loop has executed. Zero under the
// single-domain and sequential-fallback kernels, which have no barrier.
func (d *Domains) Windows() uint64 { return d.windows }

// LateCrossEvents returns how many cross-domain events violated the
// lookahead contract and were clamped to their window boundary. Nonzero
// means the configured lookahead overstates the real minimum cross-domain
// latency; the run stays causally safe but the clamped events were
// delayed.
func (d *Domains) LateCrossEvents() uint64 {
	var n uint64
	for _, m := range d.members {
		n += m.lateCross
	}
	return n
}

// CrossAt schedules fn at absolute time at on dst, from src. When the two
// schedulers are the same (or are not coupled domains of one parallel
// simulation) it is plain dst.At. Across coupled domains the event is
// buffered in dst's inbox and merged at the next window barrier; at must
// respect the lookahead (at >= src window end), otherwise it is clamped
// and counted in LateCrossEvents.
//
// CrossAt is the only legal way to schedule work onto another domain; it
// may be called from src's executing events and processes.
func CrossAt(src, dst *Scheduler, at Time, fn func()) {
	if src == dst {
		dst.At(at, fn)
		return
	}
	if src.dom == nil || src.dom != dst.dom {
		// Unrelated schedulers share no clock; scheduling across them is
		// a wiring bug.
		panic("sim: CrossAt between schedulers of different Domains groups")
	}
	d := src.dom
	if d.sequential || !d.running {
		// Single-threaded (fallback loop, or setup before Run): push
		// straight into the target queue. At clamps past times itself.
		dst.At(at, fn)
		return
	}
	if at < src.windowEnd {
		at = src.windowEnd
		src.lateCross++
	}
	src.crossSeq++
	ce := crossEvent{at: at, srcDom: src.domID, srcSeq: src.crossSeq, fn: fn}
	dst.inboxMu.Lock()
	dst.inbox = append(dst.inbox, ce)
	dst.inboxMu.Unlock()
}

// mergeInbox moves buffered cross-domain events into the queue in the
// deterministic (at, srcDom, srcSeq) order. Called only from the
// coordinator between windows (no concurrent senders: all domains are
// parked at the barrier).
func (s *Scheduler) mergeInbox() {
	s.inboxMu.Lock()
	evs := s.inbox
	s.inbox = nil
	s.inboxMu.Unlock()
	if len(evs) == 0 {
		return
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.srcDom != b.srcDom {
			return a.srcDom < b.srcDom
		}
		return a.srcSeq < b.srcSeq
	})
	for _, ce := range evs {
		s.At(ce.at, ce.fn)
	}
}

// Run executes events until every domain's queue drains or an error
// occurs. Deadlock reporting spans all domains.
func (d *Domains) Run() error {
	return d.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= deadline across all
// domains. With more than one domain and a positive lookahead, windows of
// virtual time run concurrently on one goroutine per domain.
func (d *Domains) RunUntil(deadline Time) error {
	if d.running {
		return fmt.Errorf("sim: Domains.Run called re-entrantly")
	}
	if len(d.members) == 1 {
		return d.members[0].RunUntil(deadline)
	}
	d.running = true
	defer func() { d.running = false }()
	if d.lookahead == 0 {
		return d.runSequential(deadline)
	}
	return d.runParallel(deadline)
}

// runParallel is the window-barrier loop.
func (d *Domains) runParallel(deadline Time) error {
	n := len(d.members)
	cmds := make([]chan Time, n)
	done := make(chan int, n)
	var workers sync.WaitGroup
	for i, m := range d.members {
		cmds[i] = make(chan Time)
		workers.Add(1)
		go func(m *Scheduler, cmd chan Time) {
			defer workers.Done()
			for end := range cmd {
				// A process that ends its goroutine (runtime.Goexit, e.g.
				// t.FailNow in a test body) takes this worker with it: the
				// barrier must still be released, with an error.
				m.windowErr = fmt.Errorf("sim: domain %d: a process exited the window's goroutine", m.domID)
				func() {
					defer func() { done <- m.domID }()
					m.windowErr = m.runLocal(end)
				}()
			}
		}(m, cmds[i])
	}
	defer func() {
		for _, c := range cmds {
			close(c)
		}
		workers.Wait()
	}()

	for {
		for _, m := range d.members {
			m.mergeInbox()
		}
		next, any := d.nextEventTime()
		if !any {
			return d.checkDeadlock()
		}
		if next > deadline {
			return nil
		}
		windowEnd := next + d.lookahead
		end := windowEnd
		if end > deadline+1 {
			end = deadline + 1 // never execute past the deadline
		}
		d.windows++
		for i, m := range d.members {
			m.windowEnd = windowEnd
			cmds[i] <- end
		}
		for range d.members {
			<-done
		}
		for _, m := range d.members {
			if m.windowErr != nil {
				return m.windowErr
			}
		}
	}
}

// runSequential is the zero-lookahead fallback: one thread executes all
// domains' events in globally merged (at, domain, seq) order. No
// parallelism, full causal safety with arbitrary (even zero-latency)
// cross-domain edges.
func (d *Domains) runSequential(deadline Time) error {
	d.sequential = true
	defer func() { d.sequential = false }()
	for _, m := range d.members {
		m.mergeInbox() // setup-phase cross events
	}
	for {
		var best *Scheduler
		var bestAt Time
		for _, m := range d.members {
			if at, ok := m.nextTime(); ok && (best == nil || at < bestAt) {
				best, bestAt = m, at
			}
		}
		if best == nil {
			return d.checkDeadlock()
		}
		if bestAt > deadline {
			return nil
		}
		if _, err := best.execNext(deadline + 1); err != nil {
			return err
		}
		if best.fatalErr != nil {
			return best.fatalErr
		}
	}
}

// nextEventTime returns the earliest pending event time across domains.
func (d *Domains) nextEventTime() (Time, bool) {
	var min Time
	any := false
	for _, m := range d.members {
		if at, ok := m.nextTime(); ok && (!any || at < min) {
			min, any = at, true
		}
	}
	return min, any
}

// checkDeadlock reports blocked processes across all domains once every
// queue and inbox has drained.
func (d *Domains) checkDeadlock() error {
	var blocked []string
	for _, m := range d.members {
		if m.fatalErr != nil {
			return m.fatalErr
		}
		for _, b := range m.blockedProcs() {
			blocked = append(blocked, fmt.Sprintf("d%d/%s", m.domID, b))
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return deadlockError(blocked)
	}
	return nil
}
