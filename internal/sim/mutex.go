package sim

// Mutex is a virtual-time mutual exclusion lock for processes. Unlike
// sync.Mutex it never blocks OS threads: a contended Lock parks the
// calling process until the holder unlocks. Ownership transfers in FIFO
// arrival order, so executions stay deterministic.
//
// Processes need a Mutex only around critical sections that yield the
// virtual CPU (Sleep, Cond waits, channel ops): sections without yields
// are already atomic under the cooperative scheduler.
//
// The lock is kill-safe: a process killed while waiting never becomes
// the owner, and the idiomatic `m.Lock(p); defer m.Unlock(p)` unwinds
// correctly in that case (Unlock by a non-owner is a no-op, so the
// deferred call of a waiter that was killed before its grant does
// nothing).
type Mutex struct {
	s       *Scheduler
	owner   *Proc
	waiters waitList
}

// NewMutex returns an unlocked mutex bound to s.
func NewMutex(s *Scheduler) *Mutex { return &Mutex{s: s} }

// Lock acquires the mutex for p, parking it while the lock is held
// elsewhere.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	m.waiters.pushBack(p)
	p.waitReason = "mutex"
	p.doYield()
	// Resumed either by a grant (owner == p) or by Kill (which panics
	// out of doYield before reaching here, and takes p off the list as it
	// unwinds).
}

// Unlock releases the mutex held by p and hands it to the oldest live
// waiter. Unlock by a process that does not own the mutex is a no-op —
// this makes deferred unlocks safe for waiters killed before their
// grant. Unlocking a completely free mutex panics.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner == nil && m.waiters.head == nil {
		panic("sim: unlock of unlocked Mutex")
	}
	if m.owner != p {
		return
	}
	for next := m.waiters.popFront(); next != nil; next = m.waiters.popFront() {
		if next.killed {
			continue // killed while waiting, not yet unwound; never grant
		}
		m.owner = next
		m.s.wakeAt(m.s.now, next)
		return
	}
	m.owner = nil
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }
