// Package reconfig implements elastic reconfiguration for a Heron
// deployment: live membership changes (add/remove replicas) and online
// repartitioning (split/merge/rebalance of the object space) without
// stopping client traffic.
//
// The design follows the epoch/view discipline of group-membership systems
// (Derecho's view-driven changes, Hermes' epoch-fenced transitions)
// adapted to Heron's one-sided fabric:
//
//   - A Configuration is an epoch-numbered value: group membership, the
//     object-range routing table, and nothing else. It is replicated by
//     submitting a config command through the atomic multicast layer to
//     every partition, so it has a position in the total order of
//     requests — the same mechanism that orders the application's own
//     requests decides exactly which requests execute before and after
//     the configuration change.
//   - Replicas fence on the command: the executor blocks at the command's
//     position until the driver finishes migration and flips the layout,
//     then resumes under the new epoch. Requests tagged with the old
//     epoch are rejected with an epoch-mismatch response carrying the new
//     configuration; the client refreshes its routing and resubmits.
//   - Object migration is copy→freeze→flip: ranges are bulk-copied while
//     traffic still runs (the copy is invisible — routing still points at
//     the source), the source freezes at the fence, a delta copy catches
//     the writes that raced the bulk copy, and the flip installs the new
//     routing everywhere at one virtual instant.
package reconfig

import (
	"fmt"
	"sort"

	"heron/internal/core"
	"heron/internal/rdma"
	"heron/internal/store"
	"heron/internal/wire"
)

// Range routes the inclusive object range [Lo, Hi] to a partition.
type Range struct {
	Lo, Hi store.OID
	Part   core.PartitionID
}

// Configuration is one epoch of the deployment layout: group membership by
// (partition, rank) and the object→partition routing table. It implements
// core.Partitioner, so a Configuration is installed directly as a
// replica's routing.
type Configuration struct {
	Epoch  uint64
	Groups [][]rdma.NodeID
	Routes []Range // sorted by Lo, pairwise disjoint
}

// Halves returns the epoch-1 configuration over groups that routes the
// objects 0..keys-1 in two halves: the lower to partition 0, the upper
// to partition 1.
func Halves(groups [][]rdma.NodeID, keys int) *Configuration {
	half := store.OID(keys / 2)
	return &Configuration{Epoch: 1, Groups: groups, Routes: []Range{
		{Lo: 0, Hi: half - 1, Part: 0},
		{Lo: half, Hi: store.OID(keys) - 1, Part: 1},
	}}
}

// PartitionOf implements core.Partitioner by binary search over the
// routing table. Unrouted objects map to partition 0 (a workload bug, not
// a protocol state — validated workloads only touch routed ranges).
func (c *Configuration) PartitionOf(oid store.OID) core.PartitionID {
	i := sort.Search(len(c.Routes), func(i int) bool { return c.Routes[i].Hi >= oid })
	if i < len(c.Routes) && c.Routes[i].Lo <= oid {
		return c.Routes[i].Part
	}
	return 0
}

// Clone deep-copies the configuration.
func (c *Configuration) Clone() *Configuration {
	n := &Configuration{Epoch: c.Epoch}
	n.Groups = make([][]rdma.NodeID, len(c.Groups))
	for g := range c.Groups {
		n.Groups[g] = append([]rdma.NodeID(nil), c.Groups[g]...)
	}
	n.Routes = append([]Range(nil), c.Routes...)
	return n
}

// Encode serializes the configuration for the config command body and for
// epoch-mismatch responses.
func (c *Configuration) Encode() []byte {
	w := wire.NewWriter(16 + 8*len(c.Groups)*4 + 24*len(c.Routes))
	w.U64(c.Epoch)
	w.U32(uint32(len(c.Groups)))
	for _, g := range c.Groups {
		w.U32(uint32(len(g)))
		for _, id := range g {
			w.U64(uint64(id))
		}
	}
	w.U32(uint32(len(c.Routes)))
	for _, r := range c.Routes {
		w.U64(uint64(r.Lo))
		w.U64(uint64(r.Hi))
		w.U8(uint8(r.Part))
	}
	return w.Finish()
}

// DecodeConfiguration parses an encoded configuration.
func DecodeConfiguration(b []byte) (*Configuration, error) {
	r := wire.NewReader(b)
	c := &Configuration{Epoch: r.U64()}
	ng := int(r.U32())
	for g := 0; g < ng && r.Err() == nil; g++ {
		n := int(r.U32())
		members := make([]rdma.NodeID, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			members = append(members, rdma.NodeID(r.U64()))
		}
		c.Groups = append(c.Groups, members)
	}
	nr := int(r.U32())
	for i := 0; i < nr && r.Err() == nil; i++ {
		lo, hi := store.OID(r.U64()), store.OID(r.U64())
		c.Routes = append(c.Routes, Range{Lo: lo, Hi: hi, Part: core.PartitionID(r.U8())})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("reconfig: bad configuration: %w", err)
	}
	return c, nil
}

// AddReplica adds one node as the next rank of an existing partition.
type AddReplica struct {
	Part core.PartitionID
	Node rdma.NodeID
}

// RemoveReplicas drops the highest Count ranks of a partition. Removing
// only tail ranks keeps every survivor's rank stable, which the
// coordination-memory layout relies on.
type RemoveReplicas struct {
	Part  core.PartitionID
	Count int
}

// Move reroutes the inclusive object range [Lo, Hi] to partition To. The
// range must be fully routed in the current configuration and To must
// exist after the change (an existing partition, or one of the partitions
// AddPartitions creates, numbered after the existing ones).
type Move struct {
	Lo, Hi store.OID
	To     core.PartitionID
}

// Change is one reconfiguration step. All of it commits or none of it
// does: the driver either installs the resulting configuration at the
// config command's position in the total order, or aborts and leaves the
// current epoch untouched.
type Change struct {
	AddReplicas    []AddReplica
	RemoveReplicas []RemoveReplicas
	AddPartitions  [][]rdma.NodeID // membership of each new partition
	Moves          []Move
}

// Apply computes the configuration that results from a change, validating
// it against the current one and the deployment caps. It does not mutate
// the receiver.
func (c *Configuration) Apply(ch Change, maxParts, maxGroup int) (*Configuration, error) {
	next := c.Clone()
	next.Epoch = c.Epoch + 1

	used := make(map[rdma.NodeID]bool)
	for _, g := range next.Groups {
		for _, id := range g {
			used[id] = true
		}
	}
	fresh := func(id rdma.NodeID) error {
		if used[id] {
			return fmt.Errorf("reconfig: node %d already a member", id)
		}
		used[id] = true
		return nil
	}

	for _, rm := range ch.RemoveReplicas {
		if int(rm.Part) >= len(next.Groups) {
			return nil, fmt.Errorf("reconfig: remove from unknown partition %d", rm.Part)
		}
		g := next.Groups[rm.Part]
		if rm.Count <= 0 || rm.Count >= len(g) {
			return nil, fmt.Errorf("reconfig: remove %d of %d replicas", rm.Count, len(g))
		}
		next.Groups[rm.Part] = g[:len(g)-rm.Count]
	}
	for _, ad := range ch.AddReplicas {
		if int(ad.Part) >= len(next.Groups) {
			return nil, fmt.Errorf("reconfig: add to unknown partition %d", ad.Part)
		}
		if err := fresh(ad.Node); err != nil {
			return nil, err
		}
		next.Groups[ad.Part] = append(next.Groups[ad.Part], ad.Node)
	}
	for _, g := range ch.AddPartitions {
		if len(g) == 0 {
			return nil, fmt.Errorf("reconfig: empty new partition")
		}
		for _, id := range g {
			if err := fresh(id); err != nil {
				return nil, err
			}
		}
		next.Groups = append(next.Groups, append([]rdma.NodeID(nil), g...))
	}
	if len(next.Groups) > maxParts {
		return nil, fmt.Errorf("reconfig: %d partitions exceed cap %d", len(next.Groups), maxParts)
	}
	for g, members := range next.Groups {
		if len(members) > maxGroup {
			return nil, fmt.Errorf("reconfig: partition %d size %d exceeds cap %d", g, len(members), maxGroup)
		}
		if len(members)%2 == 0 {
			return nil, fmt.Errorf("reconfig: partition %d would have even size %d", g, len(members))
		}
	}

	for _, mv := range ch.Moves {
		if mv.Hi < mv.Lo {
			return nil, fmt.Errorf("reconfig: inverted move range [%d,%d]", mv.Lo, mv.Hi)
		}
		if int(mv.To) >= len(next.Groups) {
			return nil, fmt.Errorf("reconfig: move to unknown partition %d", mv.To)
		}
		covered := uint64(0)
		for _, r := range c.Routes {
			lo, hi := r.Lo, r.Hi
			if lo < mv.Lo {
				lo = mv.Lo
			}
			if hi > mv.Hi {
				hi = mv.Hi
			}
			if lo <= hi {
				covered += uint64(hi-lo) + 1
			}
		}
		if covered != uint64(mv.Hi-mv.Lo)+1 {
			return nil, fmt.Errorf("reconfig: move range [%d,%d] not fully routed", mv.Lo, mv.Hi)
		}
		next.Routes = applyMove(next.Routes, mv)
	}
	return next, nil
}

// applyMove subtracts [mv.Lo, mv.Hi] from the existing routes (splitting
// partial overlaps) and inserts the moved range.
func applyMove(routes []Range, mv Move) []Range {
	out := make([]Range, 0, len(routes)+2)
	for _, r := range routes {
		if mv.Hi < r.Lo || mv.Lo > r.Hi {
			out = append(out, r)
			continue
		}
		if r.Lo < mv.Lo {
			out = append(out, Range{Lo: r.Lo, Hi: mv.Lo - 1, Part: r.Part})
		}
		if r.Hi > mv.Hi {
			out = append(out, Range{Lo: mv.Hi + 1, Hi: r.Hi, Part: r.Part})
		}
	}
	out = append(out, Range{Lo: mv.Lo, Hi: mv.Hi, Part: mv.To})
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// --- Programmatic change synthesis --------------------------------------
//
// Helpers a policy loop uses to turn "partition p is hot, shed everything
// at or above key b" into a valid Change without re-deriving the routing
// table's invariants (moves must cover fully-routed ranges only).

// RangesOf returns the ranges routed to part, sorted by Lo.
func (c *Configuration) RangesOf(part core.PartitionID) []Range {
	var out []Range
	for _, r := range c.Routes {
		if r.Part == part {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// RoutedObjects returns the number of objects routed to part.
func (c *Configuration) RoutedObjects(part core.PartitionID) uint64 {
	var n uint64
	for _, r := range c.RangesOf(part) {
		n += uint64(r.Hi-r.Lo) + 1
	}
	return n
}

// SplitMoves builds the moves that reroute the portion of part's routed
// space at or above `at` to partition `to`: one move per affected routed
// range, so each move trivially satisfies the fully-routed invariant.
// Empty when `at` is above everything part routes.
func (c *Configuration) SplitMoves(part core.PartitionID, at store.OID, to core.PartitionID) []Move {
	var out []Move
	for _, r := range c.RangesOf(part) {
		if r.Hi < at {
			continue
		}
		lo := r.Lo
		if lo < at {
			lo = at
		}
		out = append(out, Move{Lo: lo, Hi: r.Hi, To: to})
	}
	return out
}

// movedRanges lists the ranges a change migrates, keyed by source
// partition under the OLD routing, in deterministic (Lo) order.
func movedRanges(cur *Configuration, ch Change) []Move {
	moves := append([]Move(nil), ch.Moves...)
	sort.Slice(moves, func(i, j int) bool { return moves[i].Lo < moves[j].Lo })
	return moves
}

var _ core.Partitioner = (*Configuration)(nil)
