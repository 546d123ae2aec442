package multicast

import (
	"heron/internal/msgnet"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Transport abstracts the datagram layer the multicast runs over. Heron
// runs it over one-sided RDMA ring buffers (rdma.Transport, the RamCast
// configuration); the DynaStar baseline runs the same protocol over a
// simulated kernel message-passing network (msgnet), which is exactly the
// paper's comparison: identical ordering logic, different communication
// substrate.
type Transport interface {
	// Scheduler returns the substrate's virtual-time scheduler.
	Scheduler() *sim.Scheduler
	// Send transmits the payloads, one datagram each and in order; it may
	// block briefly (posting cost or backpressure) but not wait for the
	// receiver. A substrate that can amortises its per-destination posting
	// cost over the whole list.
	Send(p *sim.Proc, from, to rdma.NodeID, payloads ...[]byte) error
	// Endpoint returns the receive endpoint of a node.
	Endpoint(id rdma.NodeID) Endpoint
	// Crashed reports whether a node has failed.
	Crashed(id rdma.NodeID) bool
	// Crash fails a node.
	Crash(id rdma.NodeID)
	// Incarnation counts the resets of the a–b link (rdma.Fabric.Incarnation).
	Incarnation(a, b rdma.NodeID) uint64
}

// Endpoint is a node's receive side. A received payload is valid until
// the next receive on the endpoint (rdma.Endpoint.TryRecv); a receiver
// that keeps any of it copies it.
type Endpoint interface {
	// TryRecv returns a pending datagram without blocking. It takes the
	// receiving process because msgnet charges its RecvCPU there; an RDMA
	// ring is read with free local loads and ignores it.
	TryRecv(p *sim.Proc) (payload []byte, from rdma.NodeID, ok bool)
	// RecvTimeout blocks up to d for a datagram.
	RecvTimeout(p *sim.Proc, d sim.Duration) (payload []byte, from rdma.NodeID, ok bool)
	// Pending reports whether a datagram is queued.
	Pending() bool
}

// rdmaTransport adapts rdma.Transport.
type rdmaTransport struct {
	t *rdma.Transport
}

// OverRDMA runs the multicast over one-sided RDMA ring buffers.
func OverRDMA(t *rdma.Transport) Transport { return &rdmaTransport{t: t} }

func (a *rdmaTransport) Scheduler() *sim.Scheduler { return a.t.Fabric().Scheduler() }

func (a *rdmaTransport) Send(p *sim.Proc, from, to rdma.NodeID, payloads ...[]byte) error {
	return a.t.Send(p, from, to, payloads...)
}

func (a *rdmaTransport) Endpoint(id rdma.NodeID) Endpoint {
	return rdmaEndpoint{ep: a.t.Endpoint(id)}
}

func (a *rdmaTransport) Crashed(id rdma.NodeID) bool { return a.t.Fabric().Node(id).Crashed() }

func (a *rdmaTransport) Crash(id rdma.NodeID) { a.t.Fabric().Node(id).Crash() }

func (a *rdmaTransport) Incarnation(x, y rdma.NodeID) uint64 { return a.t.Fabric().Incarnation(x, y) }

type rdmaEndpoint struct {
	ep *rdma.Endpoint
}

func (e rdmaEndpoint) TryRecv(*sim.Proc) ([]byte, rdma.NodeID, bool) { return e.ep.TryRecv() }

func (e rdmaEndpoint) RecvTimeout(p *sim.Proc, d sim.Duration) ([]byte, rdma.NodeID, bool) {
	return e.ep.RecvTimeout(p, d)
}

func (e rdmaEndpoint) Pending() bool { return e.ep.Pending() }

// msgnetTransport adapts msgnet.Network.
type msgnetTransport struct {
	n *msgnet.Network
}

// OverMsgNet runs the multicast over the kernel message-passing network
// (the baseline's substrate).
func OverMsgNet(n *msgnet.Network) Transport { return &msgnetTransport{n: n} }

func (a *msgnetTransport) Scheduler() *sim.Scheduler { return a.n.Scheduler() }

func (a *msgnetTransport) Send(p *sim.Proc, from, to rdma.NodeID, payloads ...[]byte) error {
	for _, payload := range payloads {
		if err := a.n.Send(p, from, to, payload); err != nil {
			return err
		}
	}
	return nil
}

func (a *msgnetTransport) Endpoint(id rdma.NodeID) Endpoint {
	return msgnetEndpoint{ep: a.n.Endpoint(id)}
}

func (a *msgnetTransport) Crashed(id rdma.NodeID) bool { return a.n.Endpoint(id).Down() }

func (a *msgnetTransport) Crash(id rdma.NodeID) { a.n.Endpoint(id).Fail() }

func (a *msgnetTransport) Incarnation(rdma.NodeID, rdma.NodeID) uint64 { return 0 } // no resets

type msgnetEndpoint struct {
	ep *msgnet.Endpoint
}

func (e msgnetEndpoint) TryRecv(p *sim.Proc) ([]byte, rdma.NodeID, bool) {
	m, ok := e.ep.TryRecv(p)
	if !ok {
		return nil, 0, false
	}
	return m.Payload, m.From, true
}

func (e msgnetEndpoint) RecvTimeout(p *sim.Proc, d sim.Duration) ([]byte, rdma.NodeID, bool) {
	m, ok := e.ep.RecvTimeout(p, d)
	if !ok {
		return nil, 0, false
	}
	return m.Payload, m.From, true
}

func (e msgnetEndpoint) Pending() bool { return e.ep.Pending() }
