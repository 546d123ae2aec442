package core_test

import (
	"fmt"
	"strings"
	"testing"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/sim"
)

// A replica crashes after its phase-4 word announced the queued request's
// phase 2, and started reading it ahead, before it dequeued that request;
// the rejoin forgets the read-ahead. The survivors complete the
// request without it; the recovered replica catches up past it, and
// TPCC's consistency conditions hold on every replica, the recovered one
// included.
func TestCrashBetweenMergedWordAndDequeue(t *testing.T) {
	stop := sim.Time(6 * sim.Millisecond)
	l := newTPCCLoop(t, nil, stop)
	defer l.s.Close()
	l.runUntil(t, sim.Time(sim.Millisecond))
	var victim *core.Replica
	var next multicast.Timestamp
	for at := l.s.Now(); victim == nil; {
		if at > sim.Time(2*sim.Millisecond) {
			t.Fatal("no replica announced a queued request")
		}
		at += sim.Time(100 * sim.Nanosecond)
		l.runUntil(t, at)
		for _, group := range l.d.Replicas {
			for _, rep := range group[1:] { // leave the multicast leaders be
				if ts, queued := rep.AnnouncedAhead(); queued && victim == nil {
					victim, next = rep, ts
				}
			}
		}
	}
	t.Logf("%v: p%d/r%d crashes, %v announced and queued", l.s.Now(), victim.Partition(), victim.Rank(), next)
	if ts := victim.ReadAheadFor(); ts != next {
		t.Fatalf("p%d/r%d reads ahead for %v, not for the announced %v", victim.Partition(), victim.Rank(), ts, next)
	}
	victim.Crash()
	completedAtFault := l.completed
	l.runUntil(t, l.s.Now()+sim.Time(sim.Millisecond))
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
	if victim.Recoveries() != 1 || victim.LastExecuted() < next {
		t.Fatalf("p%d/r%d: %d recoveries, executed through %v, announced %v",
			victim.Partition(), victim.Rank(), victim.Recoveries(), victim.LastExecuted(), next)
	}
	l.checkConsistency(t)
}

// The coordination rule is checked before every execution: a replica that
// executed a multi-partition request whose phase-4 majority it has not
// seen panics, naming both timestamps.
func TestCoordinationRuleViolationPanics(t *testing.T) {
	l := newTPCCLoop(t, nil, 0)
	defer l.s.Close()
	rep := l.d.Replicas[0][0]
	multi, seen, ts := multicast.MakeTimestamp(7, 1), multicast.MakeTimestamp(6, 0), multicast.MakeTimestamp(8, 0)
	rep.CheckCoordinationRule(multi, multi, ts) // seen: no panic
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "multi-partition request "+multi.String()) || !strings.Contains(msg, "newest seen "+seen.String()) {
			t.Fatalf("panic %q does not name both timestamps", msg)
		}
	}()
	rep.CheckCoordinationRule(multi, seen, ts)
	t.Fatal("executing past an unseen phase-4 majority did not panic")
}
