// Package rebalance closes the loop from heat telemetry to elastic
// reconfiguration: a deterministic controller runs as a simulation
// process on a virtual-time cadence, consumes obs.Heat reports
// (per-partition throughput and hot-key sketches), scores imbalance
// against the policy's thresholds, and synthesizes reconfig.Changes —
// range splits of hot partitions at hot-key boundaries taken from the
// sketch, moves of routed ranges from overloaded to underloaded
// partitions, and scale-out onto a spare-node pool when no partition
// can absorb the shed load.
//
// Stability discipline: decisions pass hysteresis (a partition must
// stay hot for consecutive ticks before anything happens) and cooldown
// (a minimum virtual-time gap between changes, doubled when the last
// change failed to recover the hot partition), so a noisy or
// oscillating load signal produces no change storm. Exactly one change
// is ever in flight: the controller drives reconfig.Manager.Execute
// synchronously from its own process, and outcome feedback (did the
// hot partition's rate recover?) gates the next decision.
//
// Everything derives from the virtual clock and the deterministic heat
// series, so the same seed yields the same decision log, byte for
// byte.
package rebalance

import (
	"heron/internal/obs"
	"heron/internal/sim"
)

// Policy is the controller's decision surface: the thresholds its
// harnesses set differently. The ratios are relative to the mean
// per-partition rate over the scored window, so the policy needs no
// absolute capacity model.
type Policy struct {
	// HotRatio marks a partition hot when its rate exceeds
	// HotRatio * mean; ColdRatio qualifies a shed target when its rate is
	// below ColdRatio * mean.
	HotRatio  float64
	ColdRatio float64
	// MinRate is the aggregate ops/sec floor below which imbalance is
	// noise: an idle system is never rebalanced.
	MinRate float64
	// MaxChanges bounds the total changes one controller may issue
	// (0 = unlimited).
	MaxChanges int
	// MaxPartitions caps the partition count scale-out may reach
	// (0 = no cap beyond the deployment's own).
	MaxPartitions int
}

// The rest of the decision discipline is fixed.
const (
	// tick is the decision cadence: the controller wakes, polls the heat
	// subscription, and decides once per tick.
	tick = 1 * sim.Millisecond
	// hysteresis is the number of consecutive hot ticks required before
	// acting; cooldown the minimum virtual time between changes. A change
	// that fails to recover its hot partition (or aborts) multiplies the
	// effective cooldown by backoffFactor until one recovers.
	hysteresis    = 2
	cooldown      = 3 * sim.Millisecond
	backoffFactor = 2
	// dominantShare is the sketch-mass share above which the single
	// hottest key is isolated onto the target by itself instead of
	// splitting at a boundary (splitting cannot spread one key).
	dominantShare = 0.6
	// groupSize is the replica count of a scale-out partition.
	groupSize = 3
)

// PartLoad is one partition's scored load over a decision window.
type PartLoad struct {
	Rate    float64 // executed requests/sec over the window
	TopKeys []obs.KeyCount
}

// Score reduces the samples of one heat report (typically a HeatSub
// poll covering the ticks since the last decision) to per-partition
// loads. Partitions are returned in index order; a partition with no
// samples scores zero rate.
func Score(rep *obs.HeatReport) []PartLoad {
	out := make([]PartLoad, 0, len(rep.Partitions))
	for _, p := range rep.Partitions {
		l := PartLoad{TopKeys: p.TopKeys}
		var exec uint64
		for _, s := range p.Samples {
			exec += s.Executed
		}
		if span := float64(len(p.Samples)) * float64(rep.CadenceNS); span > 0 {
			l.Rate = float64(exec) / (span / 1e9)
		}
		out = append(out, l)
	}
	return out
}

// Decision is one entry of the controller's decision log: what the
// policy concluded at one tick and, for acting decisions, how the
// change went. Every field is virtual-state, so the log serializes
// byte-identically across same-seed runs.
type Decision struct {
	AtNS        int64  `json:"at_ns"`
	Action      string `json:"action"`
	Hot         int    `json:"hot,omitempty"`
	Target      int    `json:"target,omitempty"`
	BoundaryOID uint64 `json:"boundary_oid,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Committed   bool   `json:"committed,omitempty"`
	Note        string `json:"note,omitempty"`
}

// Decision actions. The none-* family explains inaction — the
// distinction between "balanced" and "hot but gated" is what the
// oscillation tests assert.
const (
	ActNone         = "none"            // balanced
	ActNoneIdle     = "none-idle"       // aggregate rate below MinRate
	ActNoneHyst     = "none-hysteresis" // hot, but not for long enough
	ActNoneCooldown = "none-cooldown"   // hot, but a change landed recently
	ActNoneTarget   = "none-no-target"  // hot, but nowhere to shed and no spares
	ActNoneBudget   = "none-budget"     // hot, but MaxChanges exhausted
	ActSplit        = "split"           // shed the sketch's upper mass at a hot-key boundary
	ActIsolate      = "isolate"         // move the single dominant hot key by itself
	ActMove         = "move"            // shed half the routed space (no usable sketch)
	ActScaleOut     = "scale-out"       // attach a spare-node partition and shed onto it
)

// acting reports whether an action issues a change.
func acting(action string) bool {
	switch action {
	case ActSplit, ActIsolate, ActMove, ActScaleOut:
		return true
	}
	return false
}
