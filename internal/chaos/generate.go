package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"heron/internal/lease"
	"heron/internal/lsm"
	"heron/internal/persist"
	"heron/internal/sim"
)

// Schedule generators: each profile derives a reproducible fault script
// from a seed. All randomness comes from one rand.Rand seeded with the
// schedule seed, consumed in a fixed order, so a (profile, seed,
// topology) triple always yields the same schedule.

// Profiles lists the generator names, in sweep rotation order.
var Profiles = []string{"churn", "partitions", "slownic", "mixed", "durable", "leasecrash"}

// genParams bound the fault window. The active window must overlap the
// client workload (tens of milliseconds); holds are long enough to span
// many requests, short enough that several fault rounds fit.
const (
	genStart  = 2 * sim.Millisecond  // let the system warm up first
	genEnd    = 24 * sim.Millisecond // workload tail; everything heals by here
	holdMin   = 2 * sim.Millisecond
	holdSpan  = 3 * sim.Millisecond // hold in [holdMin, holdMin+holdSpan)
	gapMin    = 1 * sim.Millisecond
	gapSpan   = 2 * sim.Millisecond
	slowExtra = 5 * sim.Microsecond // minimum added latency for slow-NIC
)

// Generate builds the schedule for a profile over a (partitions,
// replicasPerPartition) topology. Unknown profiles return an error. The
// special profile "overload" crashes f+1 replicas of one partition and
// never recovers them — the clean-degradation (not correctness) scenario.
func Generate(profile string, seed int64, partitions, replicas int) (Schedule, error) {
	sc := Schedule{Seed: seed, Profile: profile}
	rng := rand.New(rand.NewSource(seed))
	f := (replicas - 1) / 2
	switch profile {
	case "churn":
		sc.Events = genChurn(rng, partitions, f)
	case "partitions":
		sc.Events = genPartitions(rng, partitions, replicas)
	case "slownic":
		sc.Events = genSlowNIC(rng, partitions, replicas)
	case "mixed":
		// Explicit concrete list (not a slice of Profiles): appending new
		// profiles must not change existing mixed schedules.
		concrete := []string{"churn", "partitions", "slownic"}
		pick := concrete[rng.Intn(len(concrete))]
		switch pick {
		case "churn":
			sc.Events = genChurn(rng, partitions, f)
		case "partitions":
			sc.Events = genPartitions(rng, partitions, replicas)
		case "slownic":
			sc.Events = genSlowNIC(rng, partitions, replicas)
		}
		// Overlay one independent slow-NIC window on top.
		sc.Events = append(sc.Events, genSlowNIC(rng, partitions, replicas)...)
		sortEvents(sc.Events)
	case "durable":
		sc.Events = genDurable(rng, partitions, f)
	case "leasecrash":
		sc.Events = genLeaseCrash(rng, partitions, f)
	case "overload":
		sc.Events = genOverload(rng, partitions, f)
	default:
		return sc, fmt.Errorf("chaos: unknown profile %q (have %v, overload)", profile, Profiles)
	}
	return sc, nil
}

// genChurn emits rounds of crash-then-recover: each round crashes up to f
// replicas of one partition, holds the outage, recovers them all, then
// pauses before the next round. At most f replicas of any partition are
// down at any instant, so every round must preserve linearizability.
func genChurn(rng *rand.Rand, partitions, f int) []Event {
	if f < 1 {
		return nil
	}
	var evs []Event
	t := genStart
	for t < genEnd {
		part := rng.Intn(partitions)
		k := 1 + rng.Intn(f)
		ranks := rng.Perm(2*f + 1)[:k]
		sort.Ints(ranks)
		hold := holdMin + sim.Duration(rng.Int63n(int64(holdSpan)))
		for _, rank := range ranks {
			stagger := sim.Duration(rng.Int63n(int64(200 * sim.Microsecond)))
			evs = append(evs,
				Event{At: t + stagger, Kind: EvCrash, Part: part, Rank: rank},
				Event{At: t + hold + stagger, Kind: EvRecover, Part: part, Rank: rank},
			)
		}
		t += hold + gapMin + sim.Duration(rng.Int63n(int64(gapSpan)))
	}
	sortEvents(evs)
	return evs
}

// genPartitions emits rolling link partitions: windows during which one
// replica-to-replica link (within a partition, or across partitions) is
// cut both ways, then healed. Single-link cuts never isolate a majority,
// so correctness must hold throughout.
func genPartitions(rng *rand.Rand, partitions, replicas int) []Event {
	var evs []Event
	t := genStart
	for t < genEnd {
		pa, ra := rng.Intn(partitions), rng.Intn(replicas)
		pb, rb := rng.Intn(partitions), rng.Intn(replicas)
		if pa == pb && ra == rb {
			rb = (ra + 1) % replicas
		}
		hold := holdMin/2 + sim.Duration(rng.Int63n(int64(holdSpan)))
		evs = append(evs,
			Event{At: t, Kind: EvPartition, Part: pa, Rank: ra, Part2: pb, Rank2: rb},
			Event{At: t + hold, Kind: EvHeal, Part: pa, Rank: ra, Part2: pb, Rank2: rb},
		)
		t += hold + gapMin + sim.Duration(rng.Int63n(int64(gapSpan)))
	}
	sortEvents(evs)
	return evs
}

// genSlowNIC emits degradation windows: one replica's links gain latency,
// jitter, and a small completion-drop fraction, then clear. The replica
// becomes a lagger candidate; state transfer must absorb it.
func genSlowNIC(rng *rand.Rand, partitions, replicas int) []Event {
	var evs []Event
	t := genStart
	for t < genEnd {
		part, rank := rng.Intn(partitions), rng.Intn(replicas)
		hold := holdMin + sim.Duration(rng.Int63n(int64(holdSpan)))
		evs = append(evs,
			Event{
				At: t, Kind: EvSlowLink, Part: part, Rank: rank,
				Extra:  slowExtra + sim.Duration(rng.Int63n(int64(15*sim.Microsecond))),
				Jitter: sim.Duration(rng.Int63n(int64(5 * sim.Microsecond))),
				Drop:   float64(rng.Intn(5)) / 100, // 0% – 4%
			},
			Event{At: t + hold, Kind: EvClearLink, Part: part, Rank: rank},
		)
		t += hold + gapMin + sim.Duration(rng.Int63n(int64(gapSpan)))
	}
	sortEvents(evs)
	return evs
}

// genDurable emits three sequential single-replica crash→recover
// rounds, each held long enough for several checkpoint intervals to
// elapse on the peers — exercising checkpoint restore plus delta
// transfer (and, across rounds, truncated-log repair paths).
//
// The rounds aim at the durable engine's exact virtual instants, whose
// arithmetic the persist layer exports: member flushes tick at
// StaggerOffset + k*DefaultInterval and compactions half an interval later.
// Round one lands a few microseconds into a memtable flush (inside the
// append+sync window, so the flush aborts and its partial run is
// discarded); round two lands just after a compaction tick — on a
// multiple-of-L0Trigger tick, when steady flushing has L0 full — so an
// in-flight compaction aborts mid-writeback; round three is an
// unaligned crash, preserving the original profile's coverage of
// arbitrary instants. Whether an aimed crash actually catches the
// operation in flight depends on the workload phase (an idle interval
// produces no run), and the phase moves with any change of timing in the
// layers below: no seed is guaranteed to hit. Tests that need an aborted
// flush or compaction scan a seed range and count the schedules that
// caught one (TestDurableAimedFaults).
func genDurable(rng *rand.Rand, partitions, f int) []Event {
	if f < 1 {
		return nil
	}
	replicas := 2*f + 1
	interval := persist.DefaultInterval
	flushAt := func(rank int, k int64) sim.Duration {
		return persist.StaggerOffset(rank, replicas) + sim.Duration(k)*interval
	}
	compactAt := func(rank int, k int64) sim.Duration {
		return flushAt(rank, k) + interval/2
	}
	var evs []Event

	// Round 1: mid-flush. The first flush ticks after the fault window
	// opens have steady client writes behind them.
	p1, r1 := rng.Intn(partitions), rng.Intn(replicas)
	k1 := int64(genStart/interval) + 1 + int64(rng.Intn(3))
	crash1 := flushAt(r1, k1) + 2*sim.Microsecond + sim.Duration(rng.Int63n(int64(30*sim.Microsecond)))
	hold1 := holdMin + sim.Duration(rng.Int63n(int64(holdSpan)))
	evs = append(evs,
		Event{At: crash1, Kind: EvCrash, Part: p1, Rank: r1},
		Event{At: crash1 + hold1, Kind: EvRecover, Part: p1, Rank: r1},
	)

	// Round 2: mid-compaction, while the workload is still writing (L0
	// only refills while flushes carry new runs). On a multi-partition
	// topology the round runs on a different partition and may overlap
	// round 1 — each group still has at most one member down; a
	// single-partition topology falls back to a strictly sequential
	// round after round 1's recovery.
	p2, r2 := p1, rng.Intn(replicas)
	// Steady early-workload writes dirty every interval, so L0 reaches
	// L0Trigger runs at exactly the L0Trigger-th tick — the one compaction
	// instant a short workload is guaranteed to have.
	k2 := int64(lsm.DefaultL0Trigger)
	if partitions > 1 {
		p2 = (p1 + 1 + rng.Intn(partitions-1)) % partitions
	} else {
		if r2 == r1 {
			r2 = (r1 + 1) % replicas
		}
		k2 += int64((crash1 + hold1) / interval)
	}
	crash2 := compactAt(r2, k2) + 2*sim.Microsecond + sim.Duration(rng.Int63n(int64(40*sim.Microsecond)))
	hold2 := holdMin + sim.Duration(rng.Int63n(int64(holdSpan)))
	evs = append(evs,
		Event{At: crash2, Kind: EvCrash, Part: p2, Rank: r2},
		Event{At: crash2 + hold2, Kind: EvRecover, Part: p2, Rank: r2},
	)

	// Round 3: unaligned, as in the original profile, strictly after
	// both recoveries.
	p3, r3 := rng.Intn(partitions), rng.Intn(replicas)
	end := crash1 + hold1
	if crash2+hold2 > end {
		end = crash2 + hold2
	}
	t3 := end + gapMin + sim.Duration(rng.Int63n(int64(gapSpan)))
	hold3 := holdMin + sim.Duration(rng.Int63n(int64(holdSpan)))
	evs = append(evs,
		Event{At: t3, Kind: EvCrash, Part: p3, Rank: r3},
		Event{At: t3 + hold3, Kind: EvRecover, Part: p3, Rank: r3},
	)
	sortEvents(evs)
	return evs
}

// genLeaseCrash aims crashes at the partition lease holder at the exact
// virtual instants the lease manager acts (Run auto-attaches the manager
// for this profile, so its grant loop ticks at lease.DefaultStart +
// k*lease.DefaultRenew). Round one crashes the initial holder (rank 0 —
// the manager grants to the lowest live rank) a few microseconds after a
// grant submission, while the grant command is still being ordered and
// executed; round two, after rank 0 has recovered and the manager has
// stickily kept rank 1 as holder, crashes rank 1 exactly at a renewal
// submission instant. At most one replica is down at any time, so every
// operation must complete and the history must linearize: reads served
// locally before a crash, declined during it, and served by the new
// holder after the switch.
func genLeaseCrash(rng *rand.Rand, partitions, f int) []Event {
	if f < 1 {
		return nil
	}
	part := rng.Intn(partitions)
	grantAt := func(k int64) sim.Duration {
		return lease.DefaultStart + sim.Duration(k)*lease.DefaultRenew
	}
	// First grant tick at or after the fault window opens, mid-grant.
	k1 := int64((genStart-lease.DefaultStart)/lease.DefaultRenew) + 1 + int64(rng.Intn(3))
	crash1 := grantAt(k1) + 3*sim.Microsecond
	hold1 := holdMin + sim.Duration(rng.Int63n(int64(holdSpan)))
	// A renewal tick safely after rank 0's recovery, mid-renewal.
	k2 := int64((crash1+hold1-lease.DefaultStart)/lease.DefaultRenew) + 2 + int64(rng.Intn(3))
	crash2 := grantAt(k2)
	hold2 := holdMin + sim.Duration(rng.Int63n(int64(holdSpan)))
	evs := []Event{
		{At: crash1, Kind: EvCrash, Part: part, Rank: 0},
		{At: crash1 + hold1, Kind: EvRecover, Part: part, Rank: 0},
		{At: crash2, Kind: EvCrash, Part: part, Rank: 1},
		{At: crash2 + hold2, Kind: EvRecover, Part: part, Rank: 1},
	}
	sortEvents(evs)
	return evs
}

// genOverload crashes f+1 replicas of one partition — beyond the
// tolerated fault bound — and never recovers them. The harness expects
// clean degradation: operations on the dead partition fail by timeout,
// nothing deadlocks, and the report says so instead of claiming a
// linearizable pass.
func genOverload(rng *rand.Rand, partitions, f int) []Event {
	part := rng.Intn(partitions)
	ranks := rng.Perm(2*f + 1)[:f+1]
	sort.Ints(ranks)
	var evs []Event
	for i, rank := range ranks {
		evs = append(evs, Event{
			At:   genStart + sim.Duration(i)*100*sim.Microsecond,
			Kind: EvCrash, Part: part, Rank: rank,
		})
	}
	return evs
}

// sortEvents orders events by instant (stable on ties, preserving
// generation order) so Install arms them in schedule order.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}
