package rdma

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"heron/internal/sim"
)

// Transport multiplexes Mailbox rings into a node-to-node datagram
// service: every ordered node pair gets a lazily created SPSC ring, and a
// receiving endpoint drains all of its rings in arrival order. Payloads
// are prefixed with the sender's node id so receivers can demultiplex.
//
// All traffic rides one-sided writes (see Mailbox); the remote CPU is
// involved only when the endpoint's owning process drains its rings,
// which models RamCast's and Heron's polling loops.
type Transport struct {
	fabric  *Fabric
	ringCap int
	writers map[[2]NodeID]*MailboxWriter
	points  map[NodeID]*Endpoint
}

// NewTransport creates a transport over the fabric with the given ring
// capacity per node pair. The transport subscribes to the fabric's
// link-reset notifications so its rings reinitialize when a partitioned
// link heals or a crashed node recovers.
func NewTransport(f *Fabric, ringCap int) *Transport {
	t := &Transport{
		fabric:  f,
		ringCap: ringCap,
		writers: make(map[[2]NodeID]*MailboxWriter),
		points:  make(map[NodeID]*Endpoint),
	}
	f.OnLinkReset(t.resetLink)
	return t
}

// Endpoint is the receiving half of a Transport on one node.
type Endpoint struct {
	node  *Node
	boxes []*Mailbox
	next  int // round-robin cursor for fairness across rings
	// landed is the ready set, one bit per ring of boxes: a landing in a
	// ring's data area marks it (Mailbox.place), and a scan that finds
	// nothing at the ring's head unmarks it. Invariant: an unmarked ring
	// holds nothing at its head (Mailbox.Pending is false), so TryRecv and
	// Pending look at marked rings only; an extra mark costs one look.
	landed []uint64
	// ready is Recv's wake filter, built once: see Endpoint.Recv.
	ready func() bool
}

// Fabric returns the underlying fabric.
func (t *Transport) Fabric() *Fabric { return t.fabric }

// Endpoint returns (creating on first use) the receive endpoint for node
// id. The node must exist on the fabric.
func (t *Transport) Endpoint(id NodeID) *Endpoint {
	if ep, ok := t.points[id]; ok {
		return ep
	}
	n := t.fabric.Node(id)
	if n == nil {
		panic(fmt.Sprintf("rdma: transport endpoint for unknown node %d", id))
	}
	ep := &Endpoint{node: n}
	ep.ready = func() bool { return ep.node.crashed || ep.Pending() }
	t.points[id] = ep
	return ep
}

// Prewire creates the rings (and endpoints) for every given ordered node
// pair up front, in the given order, instead of on each pair's first
// send. A ring's place among its consumer's rings is its turn in
// TryRecv's round-robin, so prewiring fixes that order independently of
// which peer happens to send first.
func (t *Transport) Prewire(pairs [][2]NodeID) {
	for _, pr := range pairs {
		t.writer(pr[0], pr[1])
	}
}

// writer returns (creating on first use) the ring from node a to node b.
func (t *Transport) writer(a, b NodeID) *MailboxWriter {
	key := [2]NodeID{a, b}
	if w, ok := t.writers[key]; ok {
		return w
	}
	ep := t.Endpoint(b)
	mb := NewMailbox(ep.node, t.ringCap)
	w := mb.Connect(t.fabric, a)
	mb.ep, mb.ring = ep, len(ep.boxes)
	if len(ep.boxes)%64 == 0 {
		ep.landed = append(ep.landed, 0)
	}
	ep.boxes = append(ep.boxes, mb)
	t.writers[key] = w
	return w
}

// resetLink restarts the rings between a and b from zero, both ways, and
// wakes their consumers: while a path is down the producer's tail runs
// ahead of what lands. What was in flight is lost (QP.incarnation), which
// the protocol layers tolerate as they tolerate a crashed peer.
func (t *Transport) resetLink(a, b NodeID) {
	for _, key := range [2][2]NodeID{{a, b}, {b, a}} {
		if w, ok := t.writers[key]; ok {
			w.reset()
			w.mb.node.writeNotify.Broadcast()
		}
	}
}

// Send transmits the payloads, one datagram each and in order, from node
// `from` to node `to`, behind one doorbell (MailboxWriter.postChain). It
// blocks only on ring backpressure. Sends to crashed nodes are silently
// dropped (the payloads land in memory nobody drains), matching unsignaled
// RDMA writes.
func (t *Transport) Send(p *sim.Proc, from, to NodeID, payloads ...[]byte) error {
	var prefix [8]byte
	binary.LittleEndian.PutUint64(prefix[:], uint64(from))
	return t.writer(from, to).send(p, prefix[:], payloads)
}

// mark puts ring i in the ready set.
func (e *Endpoint) mark(i int) { e.landed[i>>6] |= 1 << (i & 63) }

// unmark takes ring i out of the ready set; nothing may be at its head.
func (e *Endpoint) unmark(i int) { e.landed[i>>6] &^= 1 << (i & 63) }

// marked returns the first marked ring in [i, end), or -1.
func (e *Endpoint) marked(i, end int) int {
	for w := i >> 6; i < end; w++ {
		if b := e.landed[w] >> (i & 63); b != 0 {
			if i += bits.TrailingZeros64(b); i < end {
				return i
			}
			return -1
		}
		i = (w + 1) << 6
	}
	return -1
}

// TryRecv returns the next datagram across all rings, or ok=false.
// Rings are drained round-robin so a chatty peer cannot starve others;
// only marked rings are looked at, in the same cyclic order from next,
// because an unmarked one is empty.
//
// The returned datagram stays valid until the next receive on this
// endpoint (TryRecv, Recv or RecvTimeout): it lives in its ring's reused
// receive buffer (Mailbox.TryRecv). A caller that keeps any of it copies
// it.
func (e *Endpoint) TryRecv() (payload []byte, from NodeID, ok bool) {
	n := len(e.boxes)
	for _, span := range [2][2]int{{e.next, n}, {0, e.next}} {
		for idx := e.marked(span[0], span[1]); idx >= 0; idx = e.marked(idx+1, span[1]) {
			rec, got := e.boxes[idx].TryRecv()
			if !got {
				e.unmark(idx) // Mailbox.TryRecv returns nothing only when nothing is at the head
				continue
			}
			e.next = (idx + 1) % n
			return rec[8:], NodeID(binary.LittleEndian.Uint64(rec[:8])), true
		}
	}
	return nil, 0, false
}

// Recv blocks until a datagram arrives on any ring. The datagram stays
// valid until the next receive on this endpoint, as with TryRecv.
//
// The node's write-notify condition is broadcast by every WRITE that
// lands anywhere in the node's memory, most of which are not ring
// records. The wait is therefore filtered by Pending (or the node's
// crash), and every other wake is absorbed without a switch.
func (e *Endpoint) Recv(p *sim.Proc) ([]byte, NodeID, error) {
	for {
		if pl, from, ok := e.TryRecv(); ok {
			return pl, from, nil
		}
		if e.node.crashed {
			return nil, 0, fmt.Errorf("%w: node %d", ErrLocalFailure, e.node.id)
		}
		e.node.writeNotify.WaitFor(p, e.ready)
	}
}

// RecvTimeout is like Recv but gives up after d, returning ok=false. Rings
// created after the wait began are still observed, because all remote
// writes into the node broadcast the same notification condition. The
// datagram stays valid until the next receive on this endpoint, as with
// TryRecv.
func (e *Endpoint) RecvTimeout(p *sim.Proc, d sim.Duration) (payload []byte, from NodeID, ok bool) {
	deadline := p.Now() + sim.Time(d)
	for {
		if pl, f, got := e.TryRecv(); got {
			return pl, f, true
		}
		if e.node.crashed {
			return nil, 0, false
		}
		remaining := sim.Duration(deadline - p.Now())
		if remaining <= 0 {
			return nil, 0, false
		}
		if !e.node.writeNotify.WaitForTimeout(p, remaining, e.ready) {
			// Timed out; loop once more to drain anything that raced in.
			if pl, f, got := e.TryRecv(); got {
				return pl, f, true
			}
			return nil, 0, false
		}
	}
}

// Pending reports whether TryRecv would do anything at all: some ring
// holds a datagram, or a wrap marker, at its head (Mailbox.Pending).
// While it is false TryRecv is a no-op, so a poller may use it as a wake
// filter. It looks at the marked rings only, unmarking those it finds
// still, so it returns what a scan of every ring would.
func (e *Endpoint) Pending() bool {
	for idx := e.marked(0, len(e.boxes)); idx >= 0; idx = e.marked(idx+1, len(e.boxes)) {
		if e.boxes[idx].Pending() {
			return true
		}
		e.unmark(idx)
	}
	return false
}

// Node returns the endpoint's node.
func (e *Endpoint) Node() *Node { return e.node }
