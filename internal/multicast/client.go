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
}

// NewClient creates a multicast client hosted on the given node.
func NewClient(tr Transport, cfg *Config, node rdma.NodeID) *Client {
	return &Client{cfg: cfg, tr: tr, node: node}
}

// NodeID returns the client's node.
func (c *Client) NodeID() rdma.NodeID { return c.node }

// Multicast submits payload to the destination groups and returns the
// message id. The call returns once all writes are posted; ordering and
// delivery proceed asynchronously.
func (c *Client) Multicast(p *sim.Proc, dst []GroupID, payload []byte) MsgID {
	c.seq++
	id := MsgID{Node: c.node, Seq: c.seq}
	dstCopy := make([]GroupID, len(dst))
	copy(dstCopy, dst)
	// One list for every send: a variadic argument built at an interface
	// call is a heap allocation of its own.
	rec := [][]byte{encodeClient(&clientMsg{id: id, dst: dstCopy, payload: payload})}
	for _, g := range dstCopy {
		for _, member := range c.cfg.Groups[g] {
			_ = c.tr.Send(p, c.node, member, rec...)
		}
	}
	return id
}
