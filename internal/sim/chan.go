package sim

// Chan is an unbounded FIFO queue usable from processes in virtual time.
// Send never blocks; Recv blocks the calling process until an element is
// available. It is the building block for mailbox-style communication in
// the simulated message-passing network and for control-plane queues.
type Chan[T any] struct {
	// buf[head:] are the queued elements. The consumed prefix is reclaimed
	// when the queue drains, so a channel that fills and empties in bursts
	// keeps one backing array instead of walking it forward and
	// reallocating on every burst.
	buf    []T
	head   int
	nonEmp *Cond
	closed bool
	// ready is the receivers' wake filter, built once.
	ready func() bool
}

// NewChan returns an empty queue bound to s.
func NewChan[T any](s *Scheduler) *Chan[T] {
	c := &Chan[T]{nonEmp: NewCond(s)}
	c.nonEmp.Reason = "chan recv"
	c.ready = func() bool { return c.head < len(c.buf) || c.closed }
	return c
}

// Send enqueues v. It may be called from process bodies or plain events.
// Sending on a closed channel panics, as with native Go channels: a
// silently dropped message after Close has historically masked real
// protocol bugs (a receiver that closed its queue while a sender still
// believed it live).
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	c.buf = append(c.buf, v)
	c.nonEmp.Broadcast()
}

// Recv dequeues the oldest element, blocking the calling process until one
// is available. The second result is false if the channel was closed and
// drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	c.nonEmp.WaitUntil(p, c.ready)
	return c.TryRecv()
}

// RecvTimeout is like Recv but gives up after d, returning ok=false.
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (T, bool) {
	c.nonEmp.WaitUntilTimeout(p, d, c.ready)
	return c.TryRecv()
}

// TryRecv dequeues without blocking; ok=false when empty.
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if c.head == len(c.buf) {
		return zero, false
	}
	v := c.buf[c.head]
	c.buf[c.head] = zero
	c.head++
	switch {
	case c.head == len(c.buf):
		c.buf, c.head = c.buf[:0], 0
	case c.head >= 64 && 2*c.head >= len(c.buf):
		// A queue that never drains (a backlogged pump) must not keep its
		// consumed prefix: slide the live half down.
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf, c.head = c.buf[:n], 0
	}
	return v, true
}

// Len returns the number of queued elements.
func (c *Chan[T]) Len() int { return len(c.buf) - c.head }

// Peek returns the i-th queued element (0 is the oldest) without
// dequeuing it; ok=false when fewer than i+1 elements are queued.
func (c *Chan[T]) Peek(i int) (T, bool) {
	if i < 0 || i >= c.Len() {
		var zero T
		return zero, false
	}
	return c.buf[c.head+i], true
}

// Close marks the channel closed; blocked receivers drain remaining
// elements and then observe ok=false.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.nonEmp.Broadcast()
}
