// Package msgnet simulates a conventional kernel-based message-passing
// network (TCP over the same 25 Gb/s fabric as the paper's testbed, with
// ~0.1 ms round-trip time). It is the substrate of the DynaStar baseline
// only; Heron itself communicates through the rdma package.
//
// The model charges what RDMA avoids: a per-message CPU cost at both
// sender and receiver (syscalls, context switches, protocol stack — the
// paper's explanation for Heron's advantage), a propagation delay, and a
// bandwidth term. Messages between two nodes are delivered in FIFO order.
package msgnet

import (
	"fmt"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// NodeID aliases the fabric-wide node identifier space.
type NodeID = rdma.NodeID

// Config is the network cost model.
type Config struct {
	// OneWayDelay is the propagation + switching delay (half the RTT).
	OneWayDelay sim.Duration
	// SendCPU is charged to the sender per message (syscall, copies).
	SendCPU sim.Duration
	// RecvCPU is charged to the receiver per message (interrupt, wakeup,
	// copies) when it dequeues.
	RecvCPU sim.Duration
	// BytesPerNS is the line rate (25 Gb/s = 3.125).
	BytesPerNS float64
}

// DefaultConfig matches the paper's testbed network.
func DefaultConfig() Config {
	return Config{
		OneWayDelay: 50 * sim.Microsecond,
		SendCPU:     2500 * sim.Nanosecond,
		RecvCPU:     2500 * sim.Nanosecond,
		BytesPerNS:  3.125,
	}
}

// Message is a delivered datagram.
type Message struct {
	From    NodeID
	Payload []byte
}

// Network is a set of endpoints connected by the simulated network.
type Network struct {
	sched     *sim.Scheduler
	cfg       Config
	endpoints map[NodeID]*Endpoint
}

// New creates an empty network.
func New(s *sim.Scheduler, cfg Config) *Network {
	if cfg.BytesPerNS <= 0 {
		cfg.BytesPerNS = 3.125
	}
	return &Network{sched: s, cfg: cfg, endpoints: make(map[NodeID]*Endpoint)}
}

// Scheduler returns the underlying scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	net   *Network
	id    NodeID
	inbox *sim.Chan[Message]
	// nextFree serializes outbound messages (one NIC/TCP stream model).
	nextFree sim.Time
	down     bool
}

// Endpoint returns (creating on first use) the endpoint of node id.
func (n *Network) Endpoint(id NodeID) *Endpoint {
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &Endpoint{net: n, id: id, inbox: sim.NewChan[Message](n.sched)}
	n.endpoints[id] = ep
	return ep
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() NodeID { return e.id }

// Down reports whether the endpoint has been failed.
func (e *Endpoint) Down() bool { return e.down }

// Fail disconnects the endpoint: inbound messages are dropped and its
// inbox is closed.
func (e *Endpoint) Fail() {
	e.down = true
	e.inbox.Close()
}

// Send transmits payload to node `to`, charging the sender's per-message
// CPU. Messages to failed or unknown endpoints are dropped silently (as
// with a broken TCP peer whose failure the sender learns about later).
func (n *Network) Send(p *sim.Proc, from, to NodeID, payload []byte) error {
	src := n.Endpoint(from)
	if src.down {
		return fmt.Errorf("msgnet: node %d is down", from)
	}
	p.Sleep(n.cfg.SendCPU)

	// Serialize on the sender's uplink.
	now := p.Now()
	start := now
	if src.nextFree > start {
		start = src.nextFree
	}
	wireTime := sim.Time(float64(len(payload)) / n.cfg.BytesPerNS)
	src.nextFree = start + wireTime

	dst := n.Endpoint(to)
	buf := make([]byte, len(payload))
	copy(buf, payload)
	deliverAt := start + wireTime + sim.Time(n.cfg.OneWayDelay)
	n.sched.At(deliverAt, func() {
		if !dst.down {
			dst.inbox.Send(Message{From: from, Payload: buf})
		}
	})
	return nil
}

// Recv blocks until a message arrives, charging the receiver's
// per-message CPU. ok=false means the endpoint failed.
func (e *Endpoint) Recv(p *sim.Proc) (Message, bool) {
	m, ok := e.inbox.Recv(p)
	if !ok {
		return Message{}, false
	}
	p.Sleep(e.net.cfg.RecvCPU)
	return m, true
}

// RecvTimeout is Recv with a deadline.
func (e *Endpoint) RecvTimeout(p *sim.Proc, d sim.Duration) (Message, bool) {
	m, ok := e.inbox.RecvTimeout(p, d)
	if !ok {
		return Message{}, false
	}
	p.Sleep(e.net.cfg.RecvCPU)
	return m, true
}

// TryRecv dequeues without blocking (still charging receive CPU on
// success).
func (e *Endpoint) TryRecv(p *sim.Proc) (Message, bool) {
	m, ok := e.inbox.TryRecv()
	if !ok {
		return Message{}, false
	}
	p.Sleep(e.net.cfg.RecvCPU)
	return m, true
}

// Pending reports whether a message is queued.
func (e *Endpoint) Pending() bool { return e.inbox.Len() > 0 }
