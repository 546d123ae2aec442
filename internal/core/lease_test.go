package core

import (
	"testing"

	"heron/internal/multicast"
	"heron/internal/sim"
)

// TestFlushKeepsReplyParkedDuringIt: flushGatedReplies yields inside each
// reply's Send, and an executing proc that parks a reply meanwhile must
// find it still parked when the flush ends — the flush keeps it behind the
// replies it kept, rather than overwriting the queue with those.
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
}
