package rdma

import (
	"errors"
	"math/rand"
	"sort"

	"heron/internal/sim"
)

// Link faults model the RDMA failure modes beyond fail-stop that Aguilera
// et al. identify for shared-memory agreement: per-connection failures
// (one QP pair partitioned while both endpoints stay up), degraded links
// (added latency and jitter), and lossy links (a deterministic fraction of
// unsignaled operations silently lost). Faults are directional internally
// so asymmetric reachability can be expressed; the public API installs
// them symmetrically, which is what the chaos schedules script.
//
// All randomness (jitter draws, drop draws) comes from one fault RNG
// seeded via SetFaultSeed, so a schedule replays byte-identically: the
// virtual clock fixes the order of verb issues, and the RNG consumes one
// draw per issue.

// ErrLinkDown is the RDMA exception surfaced when the path to the target
// is partitioned while the target itself is alive. Like ErrRemoteFailure
// it is reported after Config.FailureTimeout (RC retransmission
// exhaustion); callers that match on ErrRemoteFailure for failover should
// usually treat both identically.
var ErrLinkDown = errors.New("rdma: link partitioned")

// linkKey names one direction of a node pair.
type linkKey struct{ a, b NodeID }

// linkFault is the fault state of one directed link.
type linkFault struct {
	partitioned bool
	extra       sim.Duration // added base latency
	jitter      sim.Duration // upper bound of a uniform extra delay
	drop        float64      // fraction of verbs lost in the fabric
}

func (lf *linkFault) clear() bool {
	return !lf.partitioned && lf.extra == 0 && lf.jitter == 0 && lf.drop == 0
}

// SetFaultSeed seeds the fault RNG that drives jitter and drop draws.
// Deterministic replay of a chaos schedule requires setting the same seed
// before the same sequence of verb issues.
func (f *Fabric) SetFaultSeed(seed int64) { f.frng = rand.New(rand.NewSource(seed)) }

// faultRNG returns the fault RNG, lazily seeded for determinism even when
// SetFaultSeed was never called.
func (f *Fabric) faultRNG() *rand.Rand {
	if f.frng == nil {
		f.frng = rand.New(rand.NewSource(1))
	}
	return f.frng
}

// editFault returns (creating on demand) the fault record for a->b.
func (f *Fabric) editFault(a, b NodeID) *linkFault {
	k := linkKey{a, b}
	lf := f.faults[k]
	if lf == nil {
		lf = &linkFault{}
		f.faults[k] = lf
	}
	return lf
}

// fault returns the fault record for a->b, or nil when the link is clean.
func (f *Fabric) fault(a, b NodeID) *linkFault { return f.faults[linkKey{a, b}] }

// PartitionLink cuts the links between a and b in both directions: verbs
// between them fail like verbs against a crashed node (ErrLinkDown after
// the failure timeout; unsignaled writes silently dropped), while both
// nodes keep serving every other peer.
func (f *Fabric) PartitionLink(a, b NodeID) {
	f.editFault(a, b).partitioned = true
	f.editFault(b, a).partitioned = true
}

// Partitioned reports whether the directed link a->b is partitioned.
func (f *Fabric) Partitioned(a, b NodeID) bool {
	lf := f.fault(a, b)
	return lf != nil && lf.partitioned
}

// SetLinkDelay degrades the directed link a->b: every verb pays extra
// base latency plus a uniform jitter in [0, jitter) drawn from the fault
// RNG. Install both directions for a symmetric slow link.
func (f *Fabric) SetLinkDelay(a, b NodeID, extra, jitter sim.Duration) {
	lf := f.editFault(a, b)
	lf.extra, lf.jitter = extra, jitter
	if lf.clear() {
		delete(f.faults, linkKey{a, b})
	}
}

// SetLinkDrop makes the directed link a->b lose the given fraction of
// verbs, drawn deterministically from the fault RNG. Dropped unsignaled
// writes vanish silently (as on a lossy fabric); dropped signaled verbs
// surface ErrLinkDown after the failure timeout.
func (f *Fabric) SetLinkDrop(a, b NodeID, frac float64) {
	lf := f.editFault(a, b)
	lf.drop = frac
	if lf.clear() {
		delete(f.faults, linkKey{a, b})
	}
}

// HealLink removes every fault (partition, delay, jitter, drop) between a
// and b in both directions and re-establishes the path: link-reset hooks
// fire so transports reinitialize their rings (producer and consumer
// cursors desynchronize while writes are being dropped), and both nodes'
// write-notify conditions are broadcast to wake blocked pollers.
func (f *Fabric) HealLink(a, b NodeID) {
	delete(f.faults, linkKey{a, b})
	delete(f.faults, linkKey{b, a})
	f.fireResetHooks(a, b)
	if n := f.nodes[a]; n != nil {
		n.writeNotify.Broadcast()
	}
	if n := f.nodes[b]; n != nil {
		n.writeNotify.Broadcast()
	}
}

// linkExtra returns the additional one-way latency currently imposed on
// a->b, consuming one jitter draw when jitter is configured.
func (f *Fabric) linkExtra(a, b NodeID) sim.Duration {
	lf := f.fault(a, b)
	if lf == nil {
		return 0
	}
	d := lf.extra
	if lf.jitter > 0 {
		d += sim.Duration(f.faultRNG().Int63n(int64(lf.jitter)))
	}
	return d
}

// dropDraw decides whether a verb issued on a->b is lost in the fabric.
func (f *Fabric) dropDraw(a, b NodeID) bool {
	lf := f.fault(a, b)
	if lf == nil || lf.drop <= 0 {
		return false
	}
	return f.faultRNG().Float64() < lf.drop
}

// OnLinkReset registers a callback fired whenever the path between two
// nodes is re-established — HealLink, or Node.Recover (for every link of
// the recovered node). Transports use it to reinitialize ring state that
// desynchronized while writes were being dropped.
func (f *Fabric) OnLinkReset(fn func(a, b NodeID)) {
	f.resetHooks = append(f.resetHooks, fn)
}

// fireResetHooks invokes every registered link-reset hook for the pair.
func (f *Fabric) fireResetHooks(a, b NodeID) {
	for _, fn := range f.resetHooks {
		fn(a, b)
	}
}

// resetNodeLinks fires reset hooks for every link of the given node, in
// peer-id order for determinism. Called by Node.Recover.
func (f *Fabric) resetNodeLinks(id NodeID) {
	peers := make([]NodeID, 0, len(f.nodes))
	for nid := range f.nodes {
		if nid != id {
			peers = append(peers, nid)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, nid := range peers {
		f.fireResetHooks(nid, id)
	}
}
