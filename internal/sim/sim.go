// Package sim implements a deterministic discrete-event simulation kernel.
//
// All Heron protocol logic runs as cooperative processes (Proc) scheduled
// over a virtual clock. Within one scheduler exactly one process executes
// at a time; a process is a coroutine (iter.Pull) that the scheduler
// resumes and that hands control straight back when it parks, so
// executions are fully deterministic for a given sequence of Spawn/After
// calls. Virtual time is advanced only by the event queue: a process
// gives up the CPU by sleeping, waiting on a Cond, or exiting, never by
// blocking on real OS primitives. The scheduler switches to a process
// only when it has something to do: a parked wait's predicate is
// evaluated by the wake event itself (see Cond), and a wait's timeout is
// cancelled, not left to fire, once the wait is released.
//
// The kernel is intentionally small: events, processes, condition
// variables, and deadlock detection. Higher-level communication (RDMA
// fabric, message-passing network) is layered on top in other packages.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"sort"
	"strings"
	"time"
)

// Time is an absolute virtual-clock instant in nanoseconds since the start
// of the simulation.
type Time int64

// Duration re-exports time.Duration for virtual delays, so call sites read
// naturally (e.g. 2*sim.Microsecond).
type Duration = time.Duration

// Convenience duration units for call sites.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// ErrDeadlock is returned by Run when the event queue drains while
// processes are still blocked: no event can ever wake them again. The
// returned error wraps this sentinel and lists each blocked process with
// its wait reason (use errors.Is to test).
var ErrDeadlock = errors.New("sim: deadlock: no pending events but processes are blocked")

// Scheduler owns the virtual clock and the event queue of a simulation,
// and arbitrates which of its processes runs. The zero value is not
// usable; call NewScheduler.
type Scheduler struct {
	now Time
	q   eventQueue
	// timers holds the armed timeouts of parked waits; execNext merges it
	// with q by (time, seq).
	timers timerHeap
	seq    uint64
	// procs lists the live processes; a Proc knows its index, so exit is
	// O(1) and Close unwinds in a deterministic order.
	procs    []*Proc
	running  bool
	fatalErr error

	// eventCount counts executed events (EventCount).
	eventCount uint64
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at absolute time at. Scheduling in the past is an
// error in the caller; the event is clamped to the current time so that
// causality is never violated.
func (s *Scheduler) At(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.q.push(at, event{seq: s.seq, fn: fn})
}

// wakeAt schedules a wake of p at absolute time at (>= now): the
// closure-free form of At(at, func() { s.wake(p) }).
func (s *Scheduler) wakeAt(at Time, p *Proc) {
	s.seq++
	s.q.push(at, event{seq: s.seq, p: p})
}

// After schedules fn to run d from now. Negative delays are clamped to 0.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+Time(d), fn)
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota + 1
	procRunnable
	procRunning
	procBlocked
	procDone
)

// Proc is a cooperative process. A Proc's body runs as a coroutine that
// executes only while the scheduler has resumed it; it must yield by
// calling Sleep, a Cond wait, or returning. All Proc methods must be
// called from the process's own body (they are not safe for use from
// other goroutines or from plain events).
type Proc struct {
	s     *Scheduler
	name  string
	state procState
	idx   int // position in s.procs

	// next resumes the body until it parks or returns and stop unwinds a
	// parked body (both scheduler side); yield parks the body and
	// reports false once stop was called. A hand-off is one direct
	// coroutine switch each way, with no channel and no Go-scheduler
	// round trip.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// waitReason says what a blocked process is waiting for; it feeds the
	// deadlock report.
	waitReason string

	// killed requests the proc to stop at its next yield point.
	killed bool

	// Wait registration. A process parks on at most one thing at a time,
	// so the waiter record lives in the Proc itself and a wait allocates
	// nothing. wl is the Cond's or Mutex's list p is queued on (nil once
	// released), linked through wprev/wnext. The rest describes a Cond
	// wait: its cond and wake filter (see Cond.park), its deadline (which
	// a filtered wake moves to now+quiet when quiet > 0, see WaitQuiet),
	// and the armed timeout's (deadline, tseq) key and position in
	// s.timers (tidx < 0: none armed).
	wl           *waitList
	wprev, wnext *Proc
	cond         *Cond
	pred         func() bool
	deadline     Time
	quiet        Duration
	tseq         uint64
	tidx         int
	timedOut     bool
}

// noDeadline marks a wait without a timeout.
const noDeadline = Time(1<<63 - 1)

// waitList is an intrusive FIFO of parked processes: O(1) append, pop
// and removal from the middle (a timed-out or killed waiter), order
// preserved, no allocation.
type waitList struct{ head, tail *Proc }

func (l *waitList) pushBack(p *Proc) {
	p.wl, p.wprev, p.wnext = l, l.tail, nil
	if l.tail != nil {
		l.tail.wnext = p
	} else {
		l.head = p
	}
	l.tail = p
}

func (l *waitList) remove(p *Proc) {
	if p.wprev != nil {
		p.wprev.wnext = p.wnext
	} else {
		l.head = p.wnext
	}
	if p.wnext != nil {
		p.wnext.wprev = p.wprev
	} else {
		l.tail = p.wprev
	}
	p.wl, p.wprev, p.wnext = nil, nil, nil
}

// popFront removes and returns the oldest waiter, or nil.
func (l *waitList) popFront() *Proc {
	p := l.head
	if p != nil {
		l.remove(p)
	}
	return p
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Scheduler returns the scheduler this process runs on.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// killedErr is the panic payload used to unwind a killed process.
type killedErr struct{ name string }

func (k killedErr) Error() string { return fmt.Sprintf("sim: proc %q killed", k.name) }

// Spawn creates a process that starts at the current virtual time. The
// body runs the first time the scheduler reaches the start event.
func (s *Scheduler) Spawn(name string, body func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, body)
}

// SpawnAfter creates a process whose body starts d from now.
func (s *Scheduler) SpawnAfter(d Duration, name string, body func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, state: procNew, idx: len(s.procs), tidx: -1}
	s.procs = append(s.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if !p.killed {
			body(p)
		}
	})
	if d < 0 {
		d = 0
	}
	s.wakeAt(s.now+Time(d), p)
	return p
}

// exit is the body's deferred epilogue: it records a panic other than the
// kill sentinel as the run's fatal error and retires the process.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, ok := r.(killedErr); !ok && p.s.fatalErr == nil {
			p.s.fatalErr = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
		}
	}
	p.finish()
}

// finish marks p done and drops every registration it still holds — its
// place on a Cond's or Mutex's wait list, its armed timeout, its slot in
// the process table — so nothing later wakes, grants to, or evaluates the
// predicate of a dead process. Idempotent.
func (p *Proc) finish() {
	if p.state == procDone {
		return
	}
	p.state = procDone
	if p.wl != nil {
		p.wl.remove(p)
	}
	s := p.s
	s.timers.cancel(p)
	last := len(s.procs) - 1
	s.procs[p.idx] = s.procs[last]
	s.procs[p.idx].idx = p.idx
	s.procs[last] = nil
	s.procs = s.procs[:last]
}

// step hands the CPU to p and returns when p parks or finishes.
func (s *Scheduler) step(p *Proc) {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	p.next()
}

// wake executes a wake event for p. A process parked in a filtered wait
// is resumed only if its predicate now holds: otherwise the event re-arms
// the wait exactly as the process would have on finding the predicate
// false — back of the cond's list, fresh timeout for the same deadline
// (WaitQuiet: for a full quiet period from now) — and no switch happens.
// The predicate thus runs in the very (time, seq) slot in which the
// process itself would have evaluated it, so filtering changes what a
// spurious wake costs and nothing about event order.
func (s *Scheduler) wake(p *Proc) {
	if p.pred != nil && !p.killed && !p.pred() {
		if p.quiet > 0 {
			p.deadline = s.now + Time(p.quiet)
		}
		if p.deadline > s.now {
			p.cond.enqueue(p)
			return
		}
		p.timedOut = true // released at its deadline with the predicate still false
	}
	s.step(p)
}

// doYield parks the calling process and returns control to the scheduler.
// The caller must already have arranged for a future resume (a wake
// event, a timeout, or a wait-list registration), otherwise the process
// deadlocks.
func (p *Proc) doYield() {
	p.state = procBlocked
	if !p.yield(struct{}{}) || p.killed {
		panic(killedErr{p.name})
	}
	p.waitReason = ""
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.s.wakeAt(p.s.now+Time(d), p)
	p.waitReason = "sleep"
	p.doYield()
}

// Kill requests the process to terminate. The process unwinds (via panic
// with a recovered sentinel) the next time it would resume from a yield
// point, releasing whatever Cond, Mutex or timeout it was parked on.
// Killing an already-finished process is a no-op. Kill is intended for
// failure injection in tests and experiments.
func (p *Proc) Kill() {
	if p.state == procDone {
		return
	}
	p.killed = true
	if p.state == procBlocked || p.state == procNew {
		// Wake it up so it can unwind. A wake the process was already due
		// (a sleep ending, a broadcast) then finds it done and is a no-op.
		p.s.wakeAt(p.s.now, p)
	}
}

// Close unwinds every process that has not finished, as Kill would, and
// releases its coroutine, so a scheduler dropped with processes still
// parked leaves no goroutine behind. Call it when done with the
// scheduler, from outside Run; the scheduler must not be run again.
func (s *Scheduler) Close() {
	for n := len(s.procs); n > 0; n = len(s.procs) {
		p := s.procs[n-1]
		p.killed = true
		p.stop()
		p.finish() // a body that never started has no epilogue to run it
	}
}

// Run executes events until the queue drains or until an error occurs. It
// returns a deadlock error (errors.Is(err, ErrDeadlock)) naming the
// blocked processes and their wait reasons if processes remain blocked
// with no pending events, and the first process panic if any process
// panicked.
func (s *Scheduler) Run() error {
	return s.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at the last executed event's time (or at deadline if the queue emptied
// earlier than deadline but events remain in the future — the clock does
// not jump past pending events).
func (s *Scheduler) RunUntil(deadline Time) error {
	if s.running {
		return errors.New("sim: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	for {
		ran, err := s.execNext(deadline + 1)
		if err != nil {
			return err
		}
		if !ran {
			break
		}
	}
	if s.q.len() > 0 || len(s.timers) > 0 {
		return nil // future events remain past the deadline
	}
	if s.fatalErr != nil {
		return s.fatalErr
	}
	if n := s.blockedProcs(); len(n) > 0 {
		return fmt.Errorf("%w: [%s]", ErrDeadlock, strings.Join(n, "; "))
	}
	return nil
}

// execNext executes the earliest pending event or timeout if it is due
// strictly before end, reporting whether it ran one. It is the single
// dispatch point of the kernel's one loop (RunUntil): callbacks, process
// wakes and wait timeouts all execute here, in (time, seq) order.
func (s *Scheduler) execNext(end Time) (bool, error) {
	if s.fatalErr != nil {
		return false, s.fatalErr
	}
	at, seq, ok := s.q.peek()
	var t *Proc
	if len(s.timers) > 0 {
		if h := s.timers[0]; !ok || h.deadline < at || (h.deadline == at && h.tseq < seq) {
			t, at, ok = h, h.deadline, true
		}
	}
	if !ok || at >= end {
		return false, nil
	}
	s.now = at
	s.eventCount++
	if t != nil {
		// The wait timed out: nothing released it, so it is still queued.
		s.timers.cancel(t)
		t.wl.remove(t)
		t.timedOut = true
		s.step(t)
		return true, nil
	}
	_, ev := s.q.pop()
	if ev.fn != nil {
		ev.fn()
	} else {
		s.wake(ev.p)
	}
	return true, nil
}

// blockedProcs returns a sorted "name (wait reason)" listing of processes
// that can never run again because the event queue is empty.
func (s *Scheduler) blockedProcs() []string {
	var names []string
	for _, p := range s.procs {
		if p.state == procBlocked {
			reason := p.waitReason
			if reason == "" {
				reason = "blocked"
			}
			names = append(names, fmt.Sprintf("%s (%s)", p.name, reason))
		}
	}
	sort.Strings(names)
	return names
}

// LiveProcs returns the number of processes that have been spawned and
// have not yet finished.
func (s *Scheduler) LiveProcs() int { return len(s.procs) }

// EventCount returns the number of events executed so far.
func (s *Scheduler) EventCount() uint64 { return s.eventCount }
