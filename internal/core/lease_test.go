package core

import (
	"fmt"
	"strings"
	"testing"

	"heron/internal/multicast"
	"heron/internal/sim"
)

// TestFlushKeepsReplyParkedDuringIt: flushGatedReplies yields inside each
// reply's Send, and an executing proc that parks a reply meanwhile must
// find it still parked when the flush ends — the flush keeps it behind the
// replies it kept, rather than overwriting the queue with those — and the
// accounting agrees: two parked, one flushed, one still parked.
func TestFlushKeepsReplyParkedDuringIt(t *testing.T) {
	s, d, r := stoppedExecutor(t, 1, nil)
	defer s.Close()
	r.ctlProc.Kill() // the test flushes in its place
	client := d.NewClient().NodeID()

	// A self-serving holder gates each reply on its execution frontier:
	// the one parked before the flush is open, the one parked during it is
	// not.
	r.leaseHolder, r.leaseSelfServe = r.rank, true
	r.leaseExpire = s.Now() + sim.Time(sim.Second)
	r.lastExec = 10
	open := Request{ID: multicast.MsgID{Node: client, Seq: 1}, Ts: 5}
	late := Request{ID: multicast.MsgID{Node: client, Seq: 2}, Ts: 20}
	r.gatedQ = append(r.gatedQ, gatedReplyEntry{req: open, resp: []byte("open")})
	r.gatedParked++

	var flushed, parked sim.Time
	s.Spawn("flusher", func(p *sim.Proc) {
		r.flushGatedReplies(p)
		flushed = p.Now()
	})
	s.Spawn("executor", func(p *sim.Proc) {
		p.Sleep(1) // into the flush's Send
		r.gatedReply(p, &late, []byte("late"))
		parked = p.Now()
	})
	runFor(t, s, sim.Millisecond)

	if parked == 0 || flushed <= parked {
		t.Fatalf("the reply parked at %v and the flush ended at %v: it did not park during the flush", parked, flushed)
	}
	if len(r.gatedQ) != 1 || r.gatedQ[0].req.ID != late.ID || string(r.gatedQ[0].resp) != "late" {
		t.Fatalf("after the flush %d replies are parked, want only the one parked during it", len(r.gatedQ))
	}
	if r.gatedParked != 2 || r.gatedFlushed != 1 || r.gatedDiscarded != 0 ||
		r.gatedParked != r.gatedFlushed+r.gatedDiscarded+uint64(len(r.gatedQ)) {
		t.Fatalf("parked %d, flushed %d, discarded %d, still parked %d: want 2 = 1 + 0 + 1",
			r.gatedParked, r.gatedFlushed, r.gatedDiscarded, len(r.gatedQ))
	}
}

// A reply that leaves gatedQ without being flushed or discarded by a
// rejoin trips the accounting check at the next flush, which names the
// replica and the counts.
func TestUncountedGatedReplyPanics(t *testing.T) {
	s, _, r := stoppedExecutor(t, 1, nil)
	defer s.Close()
	r.ctlProc.Kill()
	// A lease held by another rank whose frontier has not moved keeps both
	// replies gated.
	r.leaseHolder = r.rank + 1
	r.leaseExpire = s.Now() + sim.Time(sim.Second)
	var caught string
	s.Spawn("executor", func(p *sim.Proc) {
		for seq := uint64(1); seq <= 2; seq++ {
			r.gatedReply(p, &Request{ID: multicast.MsgID{Seq: seq}, Ts: 20}, []byte("gated"))
		}
		r.flushGatedReplies(p)  // nothing opens: no panic
		r.gatedQ = r.gatedQ[:1] // one reply leaves uncounted
		defer func() { caught = fmt.Sprint(recover()) }()
		r.flushGatedReplies(p)
	})
	runFor(t, s, sim.Millisecond)
	want := fmt.Sprintf("replica p%d/r%d: 2 replies parked, 0 flushed, 0 discarded, 1 still parked", r.part, r.rank)
	if !strings.Contains(caught, want) {
		t.Fatalf("panic %q, want it to contain %q", caught, want)
	}
}

// A rejoin drops the replies the pre-crash incarnation parked and counts
// them discarded, so the accounting still balances.
func TestRejoinCountsParkedRepliesDiscarded(t *testing.T) {
	s, d := testDeployment(t, 1, 3, 4)
	defer s.Close()
	r := d.Replica(0, 1)
	// Rank 0 holds the lease and has published no frontier: both replies
	// stay parked.
	r.leaseHolder = 0
	r.leaseExpire = s.Now() + sim.Time(sim.Second)
	s.Spawn("executor", func(p *sim.Proc) {
		for seq := uint64(1); seq <= 2; seq++ {
			r.gatedReply(p, &Request{ID: multicast.MsgID{Seq: seq}, Ts: 20}, []byte("gated"))
		}
	})
	runFor(t, s, sim.Millisecond)
	if len(r.gatedQ) != 2 {
		t.Fatalf("%d replies parked before the crash, want 2", len(r.gatedQ))
	}
	r.Crash()
	if err := d.RecoverReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if r.gatedParked != 2 || r.gatedFlushed != 0 || r.gatedDiscarded != 2 || len(r.gatedQ) != 0 {
		t.Fatalf("parked %d, flushed %d, discarded %d, still parked %d: want 2 = 0 + 2 + 0",
			r.gatedParked, r.gatedFlushed, r.gatedDiscarded, len(r.gatedQ))
	}
}
