package rebalance

import (
	"fmt"
	"sort"

	"heron/internal/core"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/reconfig"
	"heron/internal/sim"
	"heron/internal/store"
)

// Planner is the pure decision core: thresholds plus the mutable
// hysteresis/cooldown/feedback state, with no deployment attached. The
// controller wraps one; the policy tests drive Step directly with
// synthetic loads and assert the exact decision sequence.
type Planner struct {
	Pol Policy

	// Log records every decision, acting or not, in tick order.
	Log []Decision

	hotStreak []int
	lastAt    sim.Time
	cooldown  sim.Duration // effective cooldown, backoff-scaled
	fb        *feedback
	changes   int
}

// feedback is the outcome check pending from the last shed: on the next
// tick the planner asks whether the hot partition's rate recovered.
type feedback struct {
	part int
}

// Step runs one decision tick: score-derived loads in, at most one
// synthesized change out (nil for every none-* decision). cfg is the
// configuration the change applies to; spares is the joiner node pool
// available for scale-out. The returned decision is also appended to
// the log.
func (pl *Planner) Step(now sim.Time, loads []PartLoad, cfg *reconfig.Configuration, spares []rdma.NodeID) (Decision, *reconfig.Change) {
	// The heat collector is sized for the partition cap; partitions not
	// yet attached score zero and must not read as cold shed targets.
	if n := len(cfg.Groups); len(loads) > n {
		loads = loads[:n]
	}
	dec, hot, mean, ok := pl.classify(now, loads)
	if !ok {
		return pl.emit(dec), nil
	}

	// Shed target: the coldest qualifying peer, else a spare-node
	// partition, else nothing to do.
	target := pl.shedTarget(loads, hot, mean)
	scaleOut := false
	if target < 0 {
		n := len(cfg.Groups)
		if len(spares) >= groupSize && (pl.Pol.MaxPartitions == 0 || n < pl.Pol.MaxPartitions) {
			target = n
			scaleOut = true
		} else {
			dec.Action = ActNoneTarget
			dec.Hot = hot
			return pl.emit(dec), nil
		}
	}

	moves, boundary, kind := pl.shedMoves(cfg, core.PartitionID(hot), loads[hot].TopKeys, core.PartitionID(target))
	if len(moves) == 0 {
		dec.Action = ActNoneTarget
		dec.Hot = hot
		dec.Note = "nothing routed to shed"
		return pl.emit(dec), nil
	}
	dec.Action = kind
	if scaleOut {
		dec.Action = ActScaleOut
		dec.Note = kind
	}
	dec.Hot = hot
	dec.Target = target
	dec.BoundaryOID = uint64(boundary)

	ch := &reconfig.Change{Moves: moves}
	if scaleOut {
		ch.AddPartitions = [][]rdma.NodeID{append([]rdma.NodeID(nil), spares[:groupSize]...)}
	}
	pl.issued(now, hot)
	return pl.emit(dec), ch
}

// classify runs the target-independent part of a tick — feedback,
// idle/hysteresis/cooldown/budget gates, streak bookkeeping — and
// reports whether a shed is actionable.
func (pl *Planner) classify(now sim.Time, loads []PartLoad) (dec Decision, hot int, mean float64, ok bool) {
	if pl.cooldown == 0 {
		pl.cooldown = cooldown
	}
	for len(pl.hotStreak) < len(loads) {
		pl.hotStreak = append(pl.hotStreak, 0)
	}
	dec = Decision{AtNS: int64(now)}
	hot = -1

	total := 0.0
	for _, l := range loads {
		total += l.Rate
	}
	if len(loads) > 0 {
		mean = total / float64(len(loads))
	}

	// Outcome feedback from the last shed: recovery restores the base
	// cooldown; a hot partition that stayed hot doubles it.
	if pl.fb != nil {
		fb := pl.fb
		pl.fb = nil
		if fb.part < len(loads) {
			if loads[fb.part].Rate <= pl.Pol.HotRatio*mean {
				pl.cooldown = cooldown
				dec.Note = "recovered"
			} else {
				pl.cooldown *= backoffFactor
				dec.Note = "no-recovery-backoff"
			}
		}
	}

	if total < pl.Pol.MinRate || len(loads) == 0 {
		clear(pl.hotStreak)
		dec.Action = ActNoneIdle
		return dec, hot, mean, false
	}

	// Streaks: the hysteresis clock runs every tick, including gated
	// ones, so a persistent hotspot is not reset by a cooldown window.
	hottest := 0.0
	anyHot := false
	for i, l := range loads {
		isHot := l.Rate > pl.Pol.HotRatio*mean
		if isHot {
			pl.hotStreak[i]++
			anyHot = true
		} else {
			pl.hotStreak[i] = 0
		}
		if isHot && pl.hotStreak[i] >= hysteresis && l.Rate > hottest {
			hottest = l.Rate
			hot = i
		}
	}

	switch {
	case hot < 0 && anyHot:
		dec.Action = ActNoneHyst
		return dec, -1, mean, false
	case hot < 0:
		dec.Action = ActNone
		return dec, -1, mean, false
	case pl.Pol.MaxChanges > 0 && pl.changes >= pl.Pol.MaxChanges:
		dec.Action = ActNoneBudget
		dec.Hot = hot
		return dec, hot, mean, false
	case pl.changes > 0 && sim.Duration(now-pl.lastAt) < pl.cooldown:
		dec.Action = ActNoneCooldown
		dec.Hot = hot
		return dec, hot, mean, false
	}
	return dec, hot, mean, true
}

// shedTarget picks the coldest peer whose rate qualifies it to absorb
// shed load, or -1.
func (pl *Planner) shedTarget(loads []PartLoad, hot int, mean float64) int {
	target, best := -1, 0.0
	for i, l := range loads {
		if i == hot || l.Rate >= pl.Pol.ColdRatio*mean {
			continue
		}
		if target < 0 || l.Rate < best {
			target, best = i, l.Rate
		}
	}
	return target
}

// shedMoves synthesizes the moves that shed the hot partition's load
// onto the target, picking the boundary from the hot-key sketch, whose
// keys are object ids (the core.HeatKeyer contract):
//
//   - a dominant key (dominantShare of the sketch mass) is isolated by
//     itself — splitting cannot spread a single key, but giving it a
//     partition of its own removes it from everything else's path;
//   - otherwise the boundary is the sketch's mass median: the smallest
//     hot key whose left mass covers half the sketch, so each side of
//     the split keeps roughly half the observed accesses;
//   - with no usable sketch, the boundary is the midpoint of the routed
//     object space (a plain move of half the partition).
func (pl *Planner) shedMoves(cfg *reconfig.Configuration, hot core.PartitionID, top []obs.KeyCount, to core.PartitionID) ([]reconfig.Move, store.OID, string) {
	// Keep only sketch keys that actually route to the hot partition
	// (stale entries may predate an earlier move).
	var keys []obs.KeyCount
	var mass uint64
	for _, kc := range top {
		oid := store.OID(kc.Key)
		if cfg.PartitionOf(oid) != hot {
			continue
		}
		keys = append(keys, kc)
		mass += kc.Count
	}

	if mass > 0 && len(keys) > 0 {
		// Dominant key: isolate it. keys comes sorted by count
		// descending (TopKeys order), so keys[0] is the candidate.
		if float64(keys[0].Count) >= dominantShare*float64(mass) && len(keys) > 1 {
			oid := store.OID(keys[0].Key)
			return []reconfig.Move{{Lo: oid, Hi: oid, To: to}}, oid, ActIsolate
		}
		if len(keys) > 1 {
			// Mass-median boundary over key order.
			sort.Slice(keys, func(i, j int) bool { return keys[i].Key < keys[j].Key })
			left := uint64(0)
			for i := 0; i < len(keys)-1; i++ {
				left += keys[i].Count
				if 2*left >= mass {
					at := store.OID(keys[i+1].Key)
					if moves := cfg.SplitMoves(hot, at, to); len(moves) > 0 {
						return moves, at, ActSplit
					}
					break
				}
			}
		}
	}

	// No sketch signal: move the upper half of the routed space.
	ranges := cfg.RangesOf(hot)
	half := cfg.RoutedObjects(hot) / 2
	var seen uint64
	for _, r := range ranges {
		n := uint64(r.Hi-r.Lo) + 1
		if seen+n > half {
			at := r.Lo + store.OID(half-seen)
			if at <= r.Lo && seen == 0 {
				at = r.Lo + 1 // never move everything: that just renames the hotspot
			}
			if moves := cfg.SplitMoves(hot, at, to); len(moves) > 0 {
				return moves, at, ActMove
			}
			break
		}
		seen += n
	}
	return nil, 0, ActNone
}

// Outcome patches the latest acting decision with the executed change's
// result. An abort (fence timeout, lost migration source) backs the
// cooldown off and cancels the pending recovery check: nothing changed,
// so there is nothing to assess.
func (pl *Planner) Outcome(committed bool, epoch uint64) {
	if len(pl.Log) == 0 {
		return
	}
	d := &pl.Log[len(pl.Log)-1]
	d.Committed = committed
	d.Epoch = epoch
	if !committed {
		pl.fb = nil
		pl.cooldown *= backoffFactor
	}
}

// issued records that a change shedding hot left the planner this tick.
func (pl *Planner) issued(now sim.Time, hot int) {
	pl.changes++
	pl.lastAt = now
	pl.fb = &feedback{part: hot}
	// Telemetry accumulated under the old layout says nothing about the
	// new one: restart every hysteresis clock.
	clear(pl.hotStreak)
}

func (pl *Planner) emit(d Decision) Decision {
	pl.Log = append(pl.Log, d)
	return d
}

// ActingLog filters the log down to acting decisions — the compact
// form reports embed.
func (pl *Planner) ActingLog() []Decision {
	var out []Decision
	for _, d := range pl.Log {
		if acting(d.Action) {
			out = append(out, d)
		}
	}
	return out
}

// String renders a decision for logs and errors.
func (d Decision) String() string {
	if !acting(d.Action) {
		return fmt.Sprintf("@%dns %s", d.AtNS, d.Action)
	}
	return fmt.Sprintf("@%dns %s p%d->p%d at %d (committed=%v epoch=%d)",
		d.AtNS, d.Action, d.Hot, d.Target, d.BoundaryOID, d.Committed, d.Epoch)
}
