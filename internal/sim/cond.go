package sim

// Cond is a virtual-time condition variable. Processes block on it with
// one of the Wait forms and are released by Broadcast. Unlike sync.Cond
// there is no associated lock: the simulation is single-threaded, so
// predicates re-checked after a wakeup cannot race.
//
// Every wait is one primitive (park) with two optional parts:
//
//   - a deadline: the wait's timeout is armed in the scheduler's timer
//     heap and cancelled the moment Broadcast releases the waiter, so
//     only a timeout that actually expires is ever executed;
//   - a predicate: Broadcast still schedules one wake event per waiter, in
//     wait order, but the event evaluates the predicate on the scheduler
//     side and switches to the process only if it holds (Scheduler.wake).
//     A predicate must be a pure function of simulation state.
type Cond struct {
	s       *Scheduler
	waiters waitList

	// Reason, when set, labels what blocked waiters are waiting for in
	// deadlock reports (e.g. "chan recv", "write-notify").
	Reason string
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Scheduler) *Cond { return &Cond{s: s} }

// park blocks p on c until a Broadcast after which pred holds (any
// Broadcast when pred is nil) or until the deadline, reporting false on
// timeout. It parks unconditionally: callers that want "return at once if
// already true" test pred first.
func (c *Cond) park(p *Proc, pred func() bool, deadline Time) bool {
	p.cond, p.pred, p.deadline, p.timedOut = c, pred, deadline, false
	c.enqueue(p)
	p.waitReason = c.Reason
	if p.waitReason == "" {
		p.waitReason = "cond wait"
	}
	p.doYield()
	p.cond, p.pred = nil, nil
	return !p.timedOut
}

// enqueue queues p (whose wait fields are set) behind c's waiters and arms
// its timeout; shared by park and by a filtered wake re-arming the wait.
// The timeout takes a fresh sequence number at each arming, as the
// scheduled-event timeout of a re-issued WaitTimeout would.
func (c *Cond) enqueue(p *Proc) {
	c.waiters.pushBack(p)
	if p.deadline != noDeadline {
		c.s.seq++
		p.tseq = c.s.seq
		c.s.timers.arm(p)
	}
}

// after converts a relative timeout into park's absolute deadline.
func (c *Cond) after(d Duration) Time {
	if d < 0 {
		d = 0
	}
	return c.s.now + Time(d)
}

// Wait blocks the calling process until the next Broadcast.
func (c *Cond) Wait(p *Proc) { c.park(p, nil, noDeadline) }

// WaitTimeout blocks the calling process until the next Broadcast or until
// d elapses. It reports true if the process was woken by Broadcast and
// false on timeout.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	return c.park(p, nil, c.after(d))
}

// WaitFor blocks p until a Broadcast on c after which pred() holds. It
// always parks first, even if pred already holds: it is the filtered form
// of a loop whose check has side effects,
//
//	for { if tryTake() { return }; c.Wait(p) }  →  for { if tryTake() { return }; c.WaitFor(p, ready) }
//
// where ready is the pure condition under which tryTake can succeed.
func (c *Cond) WaitFor(p *Proc, pred func() bool) { c.park(p, pred, noDeadline) }

// WaitForTimeout is WaitFor bounded by d; it reports false on timeout.
func (c *Cond) WaitForTimeout(p *Proc, d Duration, pred func() bool) bool {
	return c.park(p, pred, c.after(d))
}

// WaitQuiet blocks p until a Broadcast on c after which pred() holds, or
// until d passes with no Broadcast at all: a Broadcast that finds pred
// false restarts the timeout. It is the filtered form of a poll loop that
// wakes on every Broadcast, looks, and sleeps for a fresh d,
//
//	for { look(); c.WaitTimeout(p, d) }  →  for { look(); c.WaitQuiet(p, d, worthLooking) }
//
// valid when look() does nothing while worthLooking() is false. It
// reports false when the quiet period expired.
func (c *Cond) WaitQuiet(p *Proc, d Duration, pred func() bool) bool {
	p.quiet = d
	ok := c.park(p, pred, c.after(d))
	p.quiet = 0
	return ok
}

// WaitUntil blocks p until pred() is true, re-evaluating after every
// Broadcast on c. If pred is already true it returns immediately without
// yielding.
func (c *Cond) WaitUntil(p *Proc, pred func() bool) {
	if !pred() {
		c.park(p, pred, noDeadline)
	}
}

// WaitUntilTimeout blocks p until pred() is true or until d of virtual
// time has elapsed in total. It reports whether pred became true.
func (c *Cond) WaitUntilTimeout(p *Proc, d Duration, pred func() bool) bool {
	if pred() {
		return true
	}
	if d <= 0 {
		return false
	}
	return c.park(p, pred, c.after(d)) || pred()
}

// Broadcast releases every currently blocked waiter: each is taken off the
// list, its timeout is cancelled, and a wake event is scheduled for it at
// the current virtual time, in the order the waiters started waiting,
// after the currently running event completes.
func (c *Cond) Broadcast() {
	p := c.waiters.head
	c.waiters = waitList{}
	for p != nil {
		next := p.wnext
		p.wl, p.wprev, p.wnext = nil, nil, nil
		c.s.timers.cancel(p)
		c.s.wakeAt(c.s.now, p)
		p = next
	}
}
