package core_test

import (
	"testing"

	"heron/internal/core"
	"heron/internal/sim"
)

// The target of a READ posted ahead crashes before the READ lands. The
// reader's execute finds the failed completion, excludes the target and
// reads from another coordinated replica; the request completes, the
// crashed replica recovers, and TPCC's consistency conditions hold on
// every replica.
func TestReadAheadTargetCrashes(t *testing.T) {
	stop := sim.Time(6 * sim.Millisecond)
	l := newTPCCLoop(t, nil, stop)
	defer l.s.Close()
	l.runUntil(t, sim.Time(sim.Millisecond))
	var reader, victim *core.Replica
	for at := l.s.Now(); victim == nil; {
		if at > sim.Time(5*sim.Millisecond) {
			t.Fatal("no READ posted ahead was ever in flight to a replica other than a multicast leader")
		}
		at += sim.Time(100 * sim.Nanosecond)
		l.runUntil(t, at)
		for _, group := range l.d.Replicas {
			for _, rep := range group {
				node, ok := rep.ReadAheadInFlight()
				if !ok || victim != nil {
					continue
				}
				for _, g := range l.d.Replicas {
					for _, target := range g[1:] { // leave the multicast leaders be
						if target.NodeID() == node {
							reader, victim = rep, target
						}
					}
				}
			}
		}
	}
	t.Logf("%v: p%d/r%d crashes with a READ of p%d/r%d in flight to it", l.s.Now(),
		victim.Partition(), victim.Rank(), reader.Partition(), reader.Rank())
	victim.Crash()
	completedAtFault := l.completed
	l.runUntil(t, l.s.Now()+sim.Time(sim.Millisecond))
	if reader.ReadRetries() == 0 {
		t.Fatal("the reader never retried the READ that went to the crashed replica")
	}
	if err := l.d.RecoverReplica(victim.Partition(), victim.Rank()); err != nil {
		t.Fatal(err)
	}
	if ts := victim.ReadAheadFor(); ts != 0 {
		t.Fatalf("the rejoined replica still reads ahead for %v", ts)
	}
	l.runUntil(t, stop+sim.Time(5*sim.Millisecond))
	if l.completed-completedAtFault < 20 {
		t.Fatalf("%d requests completed after the crash", l.completed-completedAtFault)
	}
	if victim.Recoveries() != 1 {
		t.Fatalf("p%d/r%d: %d recoveries", victim.Partition(), victim.Rank(), victim.Recoveries())
	}
	l.checkConsistency(t)
}
