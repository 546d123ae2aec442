package multicast

import (
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Client submits messages to the multicast. As in RamCast, the client
// writes each message into the rings of every replica of every
// destination group: the current leaders order it, and any replica that
// later becomes leader already holds a copy, making submission robust to
// leader changes without client retransmission.
type Client struct {
	cfg  *Config
	tr   Transport
	node rdma.NodeID
	seq  uint64
	// rec is the one-element list every Send of a Multicast carries — a
	// variadic argument built at an interface call would be a heap
	// allocation of its own — and rec[0] the encoded message, in a buffer
	// the client reuses. A client has one caller, which is blocked in
	// Multicast while its Sends yield.
	rec [1][]byte
}

// NewClient creates a multicast client hosted on the given node.
func NewClient(tr Transport, cfg *Config, node rdma.NodeID) *Client {
	return &Client{cfg: cfg, tr: tr, node: node}
}

// NodeID returns the client's node.
func (c *Client) NodeID() rdma.NodeID { return c.node }

// Multicast submits payload to the destination groups and returns the
// message id. The call returns once all writes are posted; ordering and
// delivery proceed asynchronously. Neither dst nor payload is kept.
func (c *Client) Multicast(p *sim.Proc, dst []GroupID, payload []byte) MsgID {
	c.seq++
	id := MsgID{Node: c.node, Seq: c.seq}
	c.rec[0] = encodeClient(c.rec[0][:0], &clientMsg{id: id, dst: dst, payload: payload})
	for _, g := range dst {
		for _, member := range c.cfg.Groups[g] {
			_ = c.tr.Send(p, c.node, member, c.rec[:]...)
		}
	}
	return id
}
