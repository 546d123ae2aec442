// Package multicast implements an RDMA-based genuine atomic multicast,
// the ordering substrate Heron consumes (the paper uses RamCast,
// Middleware'21). Server processes are organized into disjoint groups of
// n = 2f+1 replicas; clients multicast messages to any subset of groups;
// every correct destination process delivers every message, and delivery
// carries a globally unique, monotonically increasing timestamp such that
// m delivered before m' anywhere implies ts(m) < ts(m').
//
// Guarantees (Section II-B of the paper): validity, integrity, uniform
// agreement, uniform prefix order, and uniform acyclic order.
//
// The protocol is a timestamp-agreement (Skeen-style) multicast with
// leader-based intra-group replication, carried entirely over one-sided
// RDMA writes (rdma.Transport ring buffers):
//
//  1. The client writes the message into the rings of all replicas of all
//     destination groups.
//  2. Each destination group's leader assigns a proposal timestamp from
//     its logical clock, replicates the (message, proposal) to its
//     followers, and — once a quorum acknowledges — sends the proposal to
//     the members of the other destination groups.
//  3. The final timestamp is the maximum proposal across destination
//     groups. Each leader appends decided messages to its group log in
//     final-timestamp order (never past a pending smaller proposal) and
//     replicates the append. A member commits the prefix it holds once it
//     knows f+1 members hold it: the leader after f acknowledgments; a
//     follower, with f <= 1, on applying the leader's record (the leader
//     and itself are the quorum), and with f >= 2 on the leader's commit
//     index. Replicas deliver committed entries in log order.
//
// Leader failure is handled with a view-change protocol in the style of
// Viewstamped Replication: views are numbered, the leader of view v is
// replica v mod n, and a new leader adopts the freshest state from f+1
// members before resuming. Because proposals are quorum-replicated before
// becoming externally visible and appends are held by a quorum before
// anyone commits them, every promise survives into the new view.
package multicast

import (
	"fmt"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// GroupID identifies a process group (a Heron partition). Groups are
// numbered from 0 and must fit in one byte.
type GroupID uint8

// Timestamp is a globally unique message timestamp: a logical clock in
// the high 56 bits and the proposing group in the low 8, so timestamps
// from different groups never collide and comparisons order first by
// clock, then by group.
type Timestamp uint64

// MakeTimestamp builds a timestamp from a logical clock and a group.
func MakeTimestamp(clock uint64, g GroupID) Timestamp {
	return Timestamp(clock<<8 | uint64(g))
}

// Clock returns the logical-clock component.
func (t Timestamp) Clock() uint64 { return uint64(t) >> 8 }

// Group returns the proposing group component.
func (t Timestamp) Group() GroupID { return GroupID(t & 0xff) }

// String implements fmt.Stringer.
func (t Timestamp) String() string { return fmt.Sprintf("%d.%d", t.Clock(), t.Group()) }

// MsgID uniquely identifies a multicast message: the submitting node and
// a per-node sequence number.
type MsgID struct {
	Node rdma.NodeID
	Seq  uint64
}

// String implements fmt.Stringer.
func (id MsgID) String() string { return fmt.Sprintf("m%d-%d", id.Node, id.Seq) }

// lessMsgID orders message IDs by (node, sequence). Protocol loops that
// walk the pending/unproposed maps and send or propose must do so in this
// order: ranging over the maps directly would make retransmission and
// proposal timestamps depend on Go's randomized map iteration, breaking
// run-to-run determinism.
func lessMsgID(a, b MsgID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Seq < b.Seq
}

// Delivery is a message handed to the application, with its final
// timestamp. Payload is owned by the receiver. Dst is the delivering
// process's interned list, shared by every delivery to the same groups:
// read it, never write it.
type Delivery struct {
	ID      MsgID
	Ts      Timestamp
	Dst     []GroupID
	Payload []byte
}

// RingCap is the per-pair transport ring capacity in bytes.
const RingCap = 1 << 16

// Config describes a multicast deployment.
type Config struct {
	// Groups maps each group to the fabric nodes of its replicas, by
	// rank. All groups should have the same odd size n = 2f+1.
	Groups [][]rdma.NodeID
	// HeartbeatInterval is how often a leader writes heartbeats.
	HeartbeatInterval sim.Duration
	// LeaderTimeout is how long a follower waits without hearing from its
	// leader before suspecting it.
	LeaderTimeout sim.Duration
	// RetryInterval is how often a leader retransmits proposals for
	// messages stuck waiting on other groups.
	RetryInterval sim.Duration
	// HandlerCPU is the CPU time charged per protocol message handled,
	// modeling the replica's dispatch loop.
	HandlerCPU sim.Duration
}

// Layout numbers groups x replicas nodes from 1, group by group: the
// group layout DefaultConfig takes for a deployment with no other nodes
// between its groups.
func Layout(groups, replicas int) [][]rdma.NodeID {
	layout := make([][]rdma.NodeID, groups)
	id := rdma.NodeID(1)
	for g := range layout {
		for r := 0; r < replicas; r++ {
			layout[g] = append(layout[g], id)
			id++
		}
	}
	return layout
}

// DefaultConfig returns a deployment descriptor with the given group
// layout and latency parameters calibrated to RamCast's testbed.
func DefaultConfig(groups [][]rdma.NodeID) Config {
	return Config{
		Groups:            groups,
		HeartbeatInterval: 100 * sim.Microsecond,
		LeaderTimeout:     800 * sim.Microsecond,
		RetryInterval:     400 * sim.Microsecond,
		HandlerCPU:        200 * sim.Nanosecond,
	}
}

// n returns the size of group g.
func (c *Config) n(g GroupID) int { return len(c.Groups[g]) }

// f returns the fault threshold of group g.
func (c *Config) f(g GroupID) int { return (c.n(g) - 1) / 2 }

// Validate checks structural invariants of the deployment.
func (c *Config) Validate() error {
	if len(c.Groups) == 0 {
		return fmt.Errorf("multicast: no groups")
	}
	if len(c.Groups) > 256 {
		return fmt.Errorf("multicast: %d groups exceed the 256-group limit", len(c.Groups))
	}
	seen := make(map[rdma.NodeID]bool)
	for g, members := range c.Groups {
		if len(members) == 0 || len(members)%2 == 0 {
			return fmt.Errorf("multicast: group %d has %d members, want odd n = 2f+1", g, len(members))
		}
		for _, id := range members {
			if seen[id] {
				return fmt.Errorf("multicast: node %d appears in two groups; groups must be disjoint", id)
			}
			seen[id] = true
		}
	}
	return nil
}
