package multicast

import (
	"fmt"
	"strings"
	"testing"

	"heron/internal/sim"
)

// owedLen returns how many sequence numbers pr.owed holds.
func (pr *Process) owedLen() int {
	n := 0
	for _, seqs := range pr.owed {
		n += len(seqs)
	}
	return n
}

// TestCheckClientOrderTripsOnReplayedCopy: the set of committed messages a
// member keeps rests on each client copy arriving at most once and in
// order. A tap that writes one client copy to a follower twice must make
// the follower's event loop panic naming the member and the copy; the same
// script without the replay runs clean.
func TestCheckClientOrderTripsOnReplayedCopy(t *testing.T) {
	for _, replay := range []bool{false, true} {
		t.Run(fmt.Sprintf("replay=%v", replay), func(t *testing.T) {
			c, tp := newTappedCluster(t, 1, 3)
			defer c.s.Close()
			follower := c.cfg.Groups[0][1]
			if replay {
				replayed := false
				tp.replay = func(d tapped) bool {
					if d.kind != kindClient || d.to != follower || replayed {
						return false
					}
					replayed = true
					return true
				}
			}
			cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
			var first MsgID
			c.s.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					id := cl.Multicast(p, []GroupID{0}, []byte("m"))
					if i == 0 {
						first = id
					}
					p.Sleep(sim.Microsecond)
				}
			})
			err := c.s.RunUntil(sim.Time(sim.Millisecond))
			if !replay {
				if err != nil || len(c.deliveries[0][1]) != 4 {
					t.Fatalf("clean run: error %v, follower delivered %d of 4", err, len(c.deliveries[0][1]))
				}
				return
			}
			want := fmt.Sprintf("group 0 rank 1: client copy %v arrived after %v", first, first)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("replayed copy: run ended with %v, want a panic containing %q", err, want)
			}
		})
	}
}

// committedPeak orders n single-group messages from one client through a
// group of three whose truncation threshold is lowered to 64, with the
// client's link to rank 2 slowed so that rank 2 truncates entries before
// their client copies reach it. Sampling every member each 10 µs, it
// checks that the log index maps exactly the retained log and that owed
// holds no more than the client's copies still in flight to the member,
// and returns the largest committed-set size (index plus owed) and the
// largest owed set seen.
func committedPeak(t *testing.T, n int) (peak, owedPeak int) {
	t.Helper()
	c := newCluster(t, 1, 3)
	defer c.s.Close()
	c.truncateAt(64)
	node := c.addClientNode(0)
	c.fab.SetLinkDelay(node, c.cfg.Groups[0][2], 300*sim.Microsecond, 0)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, node)
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			cl.Multicast(p, []GroupID{0}, []byte("payload"))
			p.Sleep(2 * sim.Microsecond)
		}
	})
	var broken string
	c.s.Spawn("sampler", func(p *sim.Proc) {
		for broken == "" {
			for r, pr := range c.procs[0] {
				for i := range pr.log {
					if gseq, ok := pr.logIdx[pr.log[i].id]; !ok || gseq != pr.logBase+uint64(i) {
						broken = fmt.Sprintf("rank %d at %v: entry %v at %d indexed at %d (%v)", r, p.Now(), pr.log[i].id, pr.logBase+uint64(i), gseq, ok)
					}
				}
				if len(pr.logIdx) != len(pr.log) {
					broken = fmt.Sprintf("rank %d at %v: %d ids indexed for %d retained entries", r, p.Now(), len(pr.logIdx), len(pr.log))
				}
				owed := pr.owedLen()
				if inFlight := int(cl.seq - pr.clientHigh[node]); owed > inFlight {
					broken = fmt.Sprintf("rank %d at %v: %d owed with %d copies in flight", r, p.Now(), owed, inFlight)
				}
				peak = max(peak, len(pr.logIdx)+owed)
				owedPeak = max(owedPeak, owed)
			}
			p.Sleep(10 * sim.Microsecond)
		}
	})
	c.run(sim.Duration(n)*2*sim.Microsecond + 5*sim.Millisecond)
	if broken != "" {
		t.Fatal(broken)
	}
	for r, pr := range c.procs[0] {
		if got := len(c.deliveries[0][r]); got != n {
			t.Fatalf("rank %d delivered %d of %d", r, got, n)
		}
		if pr.Truncated() < uint64(n/2) {
			t.Fatalf("rank %d truncated %d of %d entries", r, pr.Truncated(), n)
		}
		if pr.owedLen() != 0 || len(pr.unproposed) != 0 {
			t.Fatalf("rank %d ends owing %d copies with %d unproposed", r, pr.owedLen(), len(pr.unproposed))
		}
	}
	return peak, owedPeak
}

// TestCommittedSetBoundedByRetainedLog: what a member keeps to recognise
// committed messages is its retained log plus the client copies still in
// flight to it, so four times the messages leave its peak size within
// 1.2x.
func TestCommittedSetBoundedByRetainedLog(t *testing.T) {
	const n = 2000
	p1, o1 := committedPeak(t, n)
	p4, o4 := committedPeak(t, 4*n)
	t.Logf("peak index+owed: %d at %d messages (owed %d), %d at %d (owed %d)", p1, n, o1, p4, 4*n, o4)
	if o1 == 0 || o4 == 0 {
		t.Fatal("set-up: no member truncated an entry before its client copy arrived")
	}
	if float64(p4) > 1.2*float64(p1) {
		t.Fatalf("committed set peaks at %d for %d messages and %d for %d: it grows with run length", p1, n, p4, 4*n)
	}
}

// TestLateClientCopyAfterTruncation: a client copy delayed past the
// truncation of its entry is recognised as committed at the member it
// reaches late — nothing is buffered for ordering again, the group
// settles — and when that member then leads, no message is delivered
// twice.
func TestLateClientCopyAfterTruncation(t *testing.T) {
	c := newCluster(t, 1, 3)
	defer c.s.Close()
	c.truncateAt(8)
	node := c.addClientNode(0)
	c.fab.SetLinkDelay(node, c.cfg.Groups[0][1], sim.Millisecond, 0)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, node)
	sent := make(map[MsgID][]GroupID)
	const n = 64
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			dst := []GroupID{0}
			sent[cl.Multicast(p, dst, []byte{byte(i)})] = dst
			p.Sleep(2 * sim.Microsecond)
		}
	})
	late := c.procs[0][1]
	c.run(900 * sim.Microsecond)
	if late.LogBase() == 0 || late.owedLen() == 0 {
		t.Fatalf("set-up: rank 1 truncated through %d owing %d copies; want both before its copies land", late.LogBase(), late.owedLen())
	}
	c.run(5 * sim.Millisecond)
	if late.owedLen() != 0 || len(late.unproposed) != 0 || !Settled(c.procs[0]) {
		t.Fatalf("after the late copies: %d owed, %d unproposed, settled %v; want 0, 0, true", late.owedLen(), len(late.unproposed), Settled(c.procs[0]))
	}
	c.procs[0][0].Crash()
	c.run(10 * sim.Millisecond)
	if !late.IsLeader() {
		t.Fatal("rank 1 did not take over")
	}
	for r := 1; r < 3; r++ {
		if got := len(c.deliveries[0][r]); got != n {
			t.Fatalf("rank %d delivered %d messages, want %d", r, got, n)
		}
	}
	checkIntegrity(t, c, sent)
	checkGlobalOrder(t, c)
}

// TestViewChangeAfterTruncation: a group leader crashes after its group
// truncated a mix of single- and two-group entries, while the next
// leader's client copies lag behind. install rebuilds the new leader's
// log index from the log it adopts and keeps truncTs and owed, so the
// truncated two-group messages are still committed and answered for,
// the late copies are recognised, and every message is delivered once
// everywhere, in one order.
func TestViewChangeAfterTruncation(t *testing.T) {
	c := newCluster(t, 2, 3)
	defer c.s.Close()
	c.truncateAt(16)
	node := c.addClientNode(0)
	next := c.procs[0][1]
	c.fab.SetLinkDelay(node, next.NodeID(), sim.Millisecond, 0)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, node)
	sent := make(map[MsgID][]GroupID)
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			dst := []GroupID{0}
			if i%4 == 0 {
				dst = []GroupID{0, 1}
			}
			sent[cl.Multicast(p, dst, []byte{byte(i)})] = dst
			p.Sleep(20 * sim.Microsecond)
		}
	})
	c.run(2 * sim.Millisecond)
	var memo []MsgID
	for id := range next.truncTs {
		memo = append(memo, id)
	}
	if len(memo) == 0 || next.owedLen() == 0 {
		t.Fatalf("set-up: rank 1 memoised %d two-group entries and owes %d copies; want both", len(memo), next.owedLen())
	}
	c.procs[0][0].Crash()
	c.run(30 * sim.Millisecond)
	if !next.IsLeader() {
		t.Fatal("rank 1 did not take over")
	}
	for i := range next.log {
		if gseq, ok := next.logIdx[next.log[i].id]; !ok || gseq != next.logBase+uint64(i) {
			t.Fatalf("new leader's entry %v at %d indexed at %d (%v)", next.log[i].id, next.logBase+uint64(i), gseq, ok)
		}
	}
	if len(next.logIdx) != len(next.log) {
		t.Fatalf("new leader indexes %d ids for %d retained entries", len(next.logIdx), len(next.log))
	}
	for _, id := range memo {
		if !next.isCommitted(id) {
			t.Fatalf("two-group %v truncated before the view change is no longer committed", id)
		}
	}
	// Ask for the proposal of one as a member of group 1 would, then read
	// the queued answer: the final timestamp every member delivered.
	asked := memo[0]
	want, _ := c.delivered(0, 1, asked)
	from := c.cfg.Groups[1][0]
	next.onPropRequest(&propRequest{id: asked}, from)
	ob := next.outboxes[next.outboxOf[from]]
	if len(ob.msgs) != 1 {
		t.Fatalf("%d datagrams queued for the asker, want 1", len(ob.msgs))
	}
	if kind, r, _ := decodeKind(ob.msgs[0]); kind != kindProposal || decodeProposal(&r) != (proposalMsg{fromGroup: 0, id: asked, prop: want}) {
		t.Fatalf("answer of kind %d for %v, want group 0's final timestamp %v", kind, asked, want)
	}
	if next.owedLen() != 0 || len(next.unproposed) != 0 || len(next.pending) != 0 {
		t.Fatalf("new leader ends with %d owed, %d unproposed, %d pending", next.owedLen(), len(next.unproposed), len(next.pending))
	}
	for id, dst := range sent {
		for _, g := range dst {
			for r := range c.procs[g] {
				if g == 0 && r == 0 {
					continue
				}
				if _, ok := c.delivered(int(g), r, id); !ok {
					t.Fatalf("%v not delivered at group %d rank %d", id, g, r)
				}
			}
		}
	}
	checkIntegrity(t, c, sent)
	checkGlobalOrder(t, c)
}
