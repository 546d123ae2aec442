package rdma

import (
	"encoding/binary"
	"fmt"

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
	t     *Transport
	node  *Node
	boxes []*Mailbox
	from  []NodeID
	next  int // round-robin cursor for fairness across rings
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
	ep := &Endpoint{t: t, node: n}
	ep.ready = func() bool { return ep.node.crashed || ep.Stirred() }
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
	ep.boxes = append(ep.boxes, mb)
	ep.from = append(ep.from, a)
	t.writers[key] = w
	return w
}

// resetLink reinitializes the rings between a and b in both directions:
// while a path is down, posted writes are dropped but the producer's tail
// bookkeeping keeps advancing, so producer and consumer disagree once the
// path returns. Both halves restart from zero; in-flight records are lost,
// which the protocol layers tolerate (they already tolerate the drops that
// caused the desync). The consumer's pollers are woken, so that one parked
// on an empty ring adopts the new position; a producer never parks on the
// ring (it fetches credit with a READ, see MailboxWriter.waitCredit).
func (t *Transport) resetLink(a, b NodeID) {
	t.resetOneWay(a, b)
	t.resetOneWay(b, a)
}

// resetOneWay reinitializes the ring carrying a -> b traffic, if it exists.
func (t *Transport) resetOneWay(a, b NodeID) {
	w, ok := t.writers[[2]NodeID{a, b}]
	if !ok {
		return
	}
	w.reset()
	ep := t.points[b]
	for i, from := range ep.from {
		if from == a {
			ep.boxes[i].reset()
			break
		}
	}
	ep.node.writeNotify.Broadcast()
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

// TryRecv returns the next datagram across all rings, or ok=false.
// Rings are drained round-robin so a chatty peer cannot starve others.
// Records too short to carry the sender prefix are garbage from a
// desynchronized ring (dropped writes under fault injection) and are
// drained and discarded.
func (e *Endpoint) TryRecv(p *sim.Proc) (payload []byte, from NodeID, ok bool) {
	n := len(e.boxes)
	for i := 0; i < n; i++ {
		idx := (e.next + i) % n
		for {
			rec, got := e.boxes[idx].TryRecv(p)
			if !got {
				break
			}
			if len(rec) < 8 {
				continue
			}
			e.next = (idx + 1) % n
			return rec[8:], NodeID(binary.LittleEndian.Uint64(rec[:8])), true
		}
	}
	return nil, 0, false
}

// Recv blocks until a datagram arrives on any ring.
//
// The node's write-notify condition is broadcast by every WRITE that
// lands anywhere in the node's memory, most of which are not ring tails.
// The wait is therefore filtered: the receiver is resumed only when some
// ring's tail has moved off its head (or the node crashed) — exactly the
// states in which the TryRecv above would do anything (Mailbox.stirred) —
// and every other wake is absorbed by the scheduler without a switch.
func (e *Endpoint) Recv(p *sim.Proc) ([]byte, NodeID, error) {
	for {
		if pl, from, ok := e.TryRecv(p); ok {
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
// writes into the node broadcast the same notification condition.
func (e *Endpoint) RecvTimeout(p *sim.Proc, d sim.Duration) (payload []byte, from NodeID, ok bool) {
	deadline := p.Now() + sim.Time(d)
	for {
		if pl, f, got := e.TryRecv(p); got {
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
			if pl, f, got := e.TryRecv(p); got {
				return pl, f, true
			}
			return nil, 0, false
		}
	}
}

// Pending reports whether any ring has a datagram ready.
func (e *Endpoint) Pending() bool {
	for _, mb := range e.boxes {
		if mb.Pending() {
			return true
		}
	}
	return false
}

// Stirred reports whether TryRecv would do anything at all — deliver a
// datagram, skip a wrap marker, or resynchronize a ring (Mailbox.stirred).
// While it is false TryRecv is a no-op, so a poller may use it as a wake
// filter; Pending is the narrower "a datagram is ready".
func (e *Endpoint) Stirred() bool {
	for _, mb := range e.boxes {
		if mb.stirred() {
			return true
		}
	}
	return false
}

// Node returns the endpoint's node.
func (e *Endpoint) Node() *Node { return e.node }
