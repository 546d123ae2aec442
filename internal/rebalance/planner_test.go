package rebalance

import (
	"testing"

	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/reconfig"
	"heron/internal/sim"
	"heron/internal/store"
)

// Policy isolation tests: synthetic heat-derived loads run through the
// planner with no deployment attached, asserting the exact decision
// sequence — including "no change" under hysteresis, cooldown, and
// oscillating bait.

// testConfig is a 2-partition configuration over 16 keys.
func testConfig() *reconfig.Configuration {
	return &reconfig.Configuration{
		Epoch:  1,
		Groups: [][]rdma.NodeID{{1, 2, 3}, {4, 5, 6}},
		Routes: []reconfig.Range{
			{Lo: 0, Hi: 7, Part: 0},
			{Lo: 8, Hi: 15, Part: 1},
		},
	}
}

func testPolicy() Policy {
	return Policy{HotRatio: 1.5, ColdRatio: 0.75, MinRate: 100, MaxPartitions: 4}
}

// loads2 builds a 2-partition load vector with the given rates.
func loads2(r0, r1 float64, top0 []obs.KeyCount) []PartLoad {
	return []PartLoad{
		{Rate: r0, TopKeys: top0},
		{Rate: r1},
	}
}

// TestPlannerSteadySkew: a persistent hotspot passes hysteresis on the
// second tick and sheds at the sketch's mass-median boundary; the tick
// after the shed is gated by cooldown even though the (stale) signal
// still reads hot.
func TestPlannerSteadySkew(t *testing.T) {
	pl := &Planner{Pol: testPolicy()}
	cfg := testConfig()
	// Keys 1,2,5,6 hot with balanced mass: median boundary at key 5.
	top := []obs.KeyCount{{Key: 1, Count: 50}, {Key: 2, Count: 50}, {Key: 5, Count: 50}, {Key: 6, Count: 50}}

	d, ch := pl.Step(sim.Time(1*sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	if d.Action != ActNoneHyst || ch != nil {
		t.Fatalf("tick 1 = %v, want hysteresis hold", d)
	}
	d, ch = pl.Step(sim.Time(2*sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	if d.Action != ActSplit || ch == nil {
		t.Fatalf("tick 2 = %v, want split", d)
	}
	if d.Hot != 0 || d.Target != 1 || d.BoundaryOID != 5 {
		t.Fatalf("split = %+v, want p0->p1 at oid 5", d)
	}
	if len(ch.Moves) != 1 || ch.Moves[0].Lo != 5 || ch.Moves[0].Hi != 7 || ch.Moves[0].To != 1 {
		t.Fatalf("moves = %+v, want [5,7]->p1", ch.Moves)
	}
	pl.Outcome(true, 2)

	// A change resets every hysteresis clock (old telemetry says nothing
	// about the new layout), so the next tick is hysteresis-held; the one
	// after re-earns hysteresis but hits the cooldown gate.
	d, ch = pl.Step(sim.Time(3*sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	if d.Action != ActNoneHyst || ch != nil {
		t.Fatalf("tick 3 = %v, want hysteresis hold", d)
	}
	d, ch = pl.Step(sim.Time(4*sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	if d.Action != ActNoneCooldown || ch != nil {
		t.Fatalf("tick 4 = %v, want cooldown hold", d)
	}
}

// TestPlannerOscillationBait: load that alternates sides every tick
// never survives hysteresis — the planner must issue zero changes.
func TestPlannerOscillationBait(t *testing.T) {
	pl := &Planner{Pol: testPolicy()}
	cfg := testConfig()
	for i := 0; i < 10; i++ {
		var loads []PartLoad
		if i%2 == 0 {
			loads = loads2(9000, 1000, nil)
		} else {
			loads = loads2(1000, 9000, nil)
		}
		d, ch := pl.Step(sim.Time(i+1)*sim.Time(sim.Millisecond), loads, cfg, nil)
		if ch != nil {
			t.Fatalf("tick %d issued %v on oscillating bait", i, d)
		}
		if d.Action != ActNoneHyst {
			t.Fatalf("tick %d = %v, want hysteresis hold", i, d)
		}
	}
	if pl.changes != 0 {
		t.Fatalf("changes = %d, want 0", pl.changes)
	}
}

// TestPlannerIdleAndBalanced: an idle system and a balanced one both
// decide nothing, and idleness resets hysteresis streaks.
func TestPlannerIdleAndBalanced(t *testing.T) {
	pl := &Planner{Pol: testPolicy()}
	cfg := testConfig()
	d, _ := pl.Step(sim.Time(sim.Millisecond), loads2(9000, 1000, nil), cfg, nil)
	if d.Action != ActNoneHyst {
		t.Fatalf("hot tick = %v", d)
	}
	// Idle tick: aggregate below MinRate. Streaks must reset.
	d, _ = pl.Step(sim.Time(2*sim.Millisecond), loads2(10, 5, nil), cfg, nil)
	if d.Action != ActNoneIdle {
		t.Fatalf("idle tick = %v", d)
	}
	// Hot again: the streak restarted, so still hysteresis-held.
	d, ch := pl.Step(sim.Time(3*sim.Millisecond), loads2(9000, 1000, nil), cfg, nil)
	if d.Action != ActNoneHyst || ch != nil {
		t.Fatalf("post-idle hot tick = %v, want hysteresis hold", d)
	}
	// Balanced: plain none.
	d, _ = pl.Step(sim.Time(4*sim.Millisecond), loads2(5000, 5000, nil), cfg, nil)
	if d.Action != ActNone {
		t.Fatalf("balanced tick = %v", d)
	}
}

// TestPlannerDominantKeyIsolated: one key holding most of the sketch
// mass is isolated onto the target by itself.
func TestPlannerDominantKeyIsolated(t *testing.T) {
	pl := &Planner{Pol: testPolicy()}
	cfg := testConfig()
	top := []obs.KeyCount{{Key: 3, Count: 90}, {Key: 1, Count: 10}}
	pl.Step(sim.Time(sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	d, ch := pl.Step(sim.Time(2*sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	if d.Action != ActIsolate || ch == nil {
		t.Fatalf("decision = %v, want isolate", d)
	}
	if len(ch.Moves) != 1 || ch.Moves[0].Lo != 3 || ch.Moves[0].Hi != 3 {
		t.Fatalf("moves = %+v, want [3,3] isolated", ch.Moves)
	}
}

// TestPlannerNoSketchMovesHalf: with no usable sketch the planner sheds
// the upper half of the routed space.
func TestPlannerNoSketchMovesHalf(t *testing.T) {
	pl := &Planner{Pol: testPolicy()}
	cfg := testConfig()
	pl.Step(sim.Time(sim.Millisecond), loads2(9000, 1000, nil), cfg, nil)
	d, ch := pl.Step(sim.Time(2*sim.Millisecond), loads2(9000, 1000, nil), cfg, nil)
	if d.Action != ActMove || ch == nil {
		t.Fatalf("decision = %v, want move", d)
	}
	if len(ch.Moves) != 1 || ch.Moves[0].Lo != 4 || ch.Moves[0].Hi != 7 {
		t.Fatalf("moves = %+v, want [4,7]", ch.Moves)
	}
}

// TestPlannerScaleOut: a hot partition with no cold peer and a spare
// pool scales out onto a fresh partition.
func TestPlannerScaleOut(t *testing.T) {
	pol := testPolicy()
	pol.HotRatio = 1.1  // p0 at 127% of mean is hot
	pol.ColdRatio = 0.3 // p1 at 73% of mean does not qualify as a target
	pl := &Planner{Pol: pol}
	cfg := testConfig()
	spares := []rdma.NodeID{101, 102, 103}
	pl.Step(sim.Time(sim.Millisecond), loads2(7000, 4000, nil), cfg, spares)
	d, ch := pl.Step(sim.Time(2*sim.Millisecond), loads2(7000, 4000, nil), cfg, spares)
	if d.Action != ActScaleOut || ch == nil {
		t.Fatalf("decision = %v, want scale-out", d)
	}
	if len(ch.AddPartitions) != 1 || len(ch.AddPartitions[0]) != 3 {
		t.Fatalf("add partitions = %+v", ch.AddPartitions)
	}
	if d.Target != 2 {
		t.Fatalf("target = %d, want new partition 2", d.Target)
	}
	for _, mv := range ch.Moves {
		if mv.To != 2 {
			t.Fatalf("move %+v not onto the new partition", mv)
		}
	}

	// Without spares the same signal has nowhere to go.
	pl2 := &Planner{Pol: pol}
	pl2.Step(sim.Time(sim.Millisecond), loads2(7000, 4000, nil), cfg, nil)
	d, ch = pl2.Step(sim.Time(2*sim.Millisecond), loads2(7000, 4000, nil), cfg, nil)
	if d.Action != ActNoneTarget || ch != nil {
		t.Fatalf("decision = %v, want no-target hold", d)
	}
}

// TestPlannerBackoffOnNoRecovery: when the shed fails to cool the hot
// partition, the effective cooldown doubles; when it recovers, the base
// cooldown is restored.
func TestPlannerBackoffOnNoRecovery(t *testing.T) {
	pl := &Planner{Pol: testPolicy()}
	cfg := testConfig()
	hot := loads2(9000, 1000, nil)
	ms := sim.Time(sim.Millisecond)

	pl.Step(1*ms, hot, cfg, nil)
	_, ch := pl.Step(2*ms, hot, cfg, nil)
	if ch == nil {
		t.Fatal("no change issued")
	}
	pl.Outcome(true, 2)
	// Still hot on the next tick: no recovery, cooldown doubles to 6ms.
	d, _ := pl.Step(3*ms, hot, cfg, nil)
	if d.Note != "no-recovery-backoff" {
		t.Fatalf("tick 3 note = %q, want backoff", d.Note)
	}
	// 2ms + 6ms = 8ms: tick at 7ms still cooled down...
	d, ch = pl.Step(7*ms, hot, cfg, nil)
	if d.Action != ActNoneCooldown || ch != nil {
		t.Fatalf("tick @7ms = %v, want cooldown hold", d)
	}
	// ...and the tick at 9ms acts again.
	d, ch = pl.Step(9*ms, hot, cfg, nil)
	if ch == nil {
		t.Fatalf("tick @9ms = %v, want a change after backoff expires", d)
	}
	pl.Outcome(true, 3)
	// Recovery restores the base cooldown.
	d, _ = pl.Step(10*ms, loads2(4000, 4500, nil), cfg, nil)
	if d.Note != "recovered" {
		t.Fatalf("recovery tick note = %q", d.Note)
	}
}

// TestPlannerMaxChangesBudget: the change budget caps total actions.
func TestPlannerMaxChangesBudget(t *testing.T) {
	pol := testPolicy()
	pol.MaxChanges = 1
	pl := &Planner{Pol: pol}
	cfg := testConfig()
	hot := loads2(9000, 1000, nil)
	ms := sim.Time(sim.Millisecond)
	pl.Step(1*ms, hot, cfg, nil)
	_, ch := pl.Step(2*ms, hot, cfg, nil)
	if ch == nil {
		t.Fatal("first change not issued")
	}
	pl.Outcome(true, 2)
	pl.Step(10*ms, hot, cfg, nil)
	d, ch := pl.Step(11*ms, hot, cfg, nil)
	if d.Action != ActNoneBudget || ch != nil {
		t.Fatalf("post-budget tick = %v, want budget hold", d)
	}
}

// TestPlannerStaleSketchKeysSkipped: sketch entries routed elsewhere
// (left over from before an earlier move) do not contribute to the
// boundary.
func TestPlannerStaleSketchKeysSkipped(t *testing.T) {
	pl := &Planner{Pol: testPolicy()}
	cfg := testConfig()
	// Keys 9,10 route to p1: stale for a p0 decision. Only 1,2,5,6 count.
	top := []obs.KeyCount{
		{Key: 9, Count: 500}, {Key: 10, Count: 400},
		{Key: 1, Count: 50}, {Key: 2, Count: 50}, {Key: 5, Count: 50}, {Key: 6, Count: 50},
	}
	pl.Step(sim.Time(sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	d, ch := pl.Step(sim.Time(2*sim.Millisecond), loads2(9000, 1000, top), cfg, nil)
	if d.Action != ActSplit || ch == nil {
		t.Fatalf("decision = %v, want split", d)
	}
	if d.BoundaryOID != 5 {
		t.Fatalf("boundary = %d, want 5 (stale keys ignored)", d.BoundaryOID)
	}
}

// TestScore reduces a heat report to loads: rates from sample windows.
func TestScore(t *testing.T) {
	rep := &obs.HeatReport{
		CadenceNS: 1_000_000, // 1ms
		Partitions: []obs.PartitionHeatReport{
			{Partition: 0, Samples: []obs.HeatSample{
				{AtNS: 0, Executed: 10, QueueMax: 3, MeanLatNS: 100},
				{AtNS: 1_000_000, Executed: 30, QueueMax: 7, MeanLatNS: 300},
			}},
			{Partition: 1, Samples: []obs.HeatSample{
				{AtNS: 0, Executed: 0}, {AtNS: 1_000_000, Executed: 0},
			}},
		},
	}
	loads := Score(rep)
	if len(loads) != 2 {
		t.Fatalf("loads = %d", len(loads))
	}
	if loads[0].Rate != 20_000 {
		t.Fatalf("p0 rate = %v, want 20000/s (40 execs over 2ms)", loads[0].Rate)
	}
	if loads[1].Rate != 0 {
		t.Fatalf("idle p1 rate = %v", loads[1].Rate)
	}
}

var _ = store.OID(0)
