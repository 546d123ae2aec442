package multicast

import (
	"slices"
	"testing"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// The commit rule and the outbox, seen from the wire: a tap between the
// processes and the substrate logs every datagram of every Send, drops
// the ones a test wants withheld and sends twice the ones it wants
// replayed.

// tapped is one datagram handed to the substrate.
type tapped struct {
	at       sim.Time
	from, to rdma.NodeID
	kind     uint8
}

type tap struct {
	Transport
	log    []tapped
	drop   func(d tapped) bool // nil: drop nothing
	replay func(d tapped) bool // nil: replay nothing
}

func (tp *tap) Send(p *sim.Proc, from, to rdma.NodeID, payloads ...[]byte) error {
	kept := make([][]byte, 0, len(payloads))
	for _, pl := range payloads {
		kind, _, _ := decodeKind(pl)
		d := tapped{at: tp.Scheduler().Now(), from: from, to: to, kind: kind}
		tp.log = append(tp.log, d)
		if tp.drop == nil || !tp.drop(d) {
			kept = append(kept, pl)
		}
		if tp.replay != nil && tp.replay(d) {
			kept = append(kept, pl)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return tp.Transport.Send(p, from, to, kept...)
}

// count returns how many logged datagrams of the given kind were handed
// over at or after since.
func (tp *tap) count(kind uint8, since sim.Time) int {
	n := 0
	for _, d := range tp.log {
		if d.kind == kind && d.at >= since {
			n++
		}
	}
	return n
}

func dropKinds(kinds ...uint8) func(tapped) bool {
	return func(d tapped) bool { return slices.Contains(kinds, d.kind) }
}

func newTappedCluster(t *testing.T, groups, n int) (*cluster, *tap) {
	t.Helper()
	tp := &tap{}
	c := newClusterOver(t, groups, n, func(tr Transport) Transport {
		tp.Transport = tr
		return tp
	})
	return c, tp
}

// reshape changes group g to n members at the current instant, the way the
// reconfiguration driver does (reconfig.Manager.flip): removed tail ranks
// die, the shared layout is mutated in place, survivors realign on a fresh
// view led by rank 0, joiners restore from the survivors' snapshots.
func (c *cluster) reshape(g, n int) {
	old := c.cfg.Groups[g]
	keep := min(len(old), n)
	for r := len(old) - 1; r >= n; r-- {
		c.procs[g][r].Crash()
	}
	members := append([]rdma.NodeID(nil), old[:keep]...)
	for r := len(old); r < n; r++ {
		id := rdma.NodeID(500 + 10*g + r)
		c.fab.AddNode(id)
		members = append(members, id)
	}
	c.cfg.Groups[g] = members
	survivors := append([]*Process(nil), c.procs[g][:keep]...)
	var view uint64
	for _, pr := range survivors {
		if v := pr.VotedView(); v >= view {
			view = v + 1
		}
	}
	for view%uint64(n) != 0 {
		view++
	}
	snapshots := func() []*RecoveryState {
		var out []*RecoveryState
		for _, pr := range survivors {
			out = append(out, pr.SnapshotForRecovery())
		}
		return out
	}
	for _, pr := range survivors {
		pr.PrepareReshape(snapshots(), view)
	}
	c.procs[g] = survivors
	for r := len(old); r < n; r++ {
		pr := NewProcess(c.over, &c.cfg, GroupID(g), r)
		pr.Restore(snapshots())
		pr.AlignView(view)
		c.procs[g] = append(c.procs[g], nil)
		c.deliveries[g] = append(c.deliveries[g], nil)
		c.attach(g, r, pr)
	}
}

// delivered reports whether member (g, r) has delivered id, and with which
// timestamp.
func (c *cluster) delivered(g, r int, id MsgID) (Timestamp, bool) {
	for _, d := range c.deliveries[g][r] {
		if d.ID == id {
			return d.Ts, true
		}
	}
	return 0, false
}

// TestFollowerCommitsOnReceipt: with n = 3 a follower that holds a record
// of its view's leader sees the quorum — the leader and itself — and
// delivers without being told: here every ack is withheld, so the leader
// itself cannot commit, and the followers have delivered all the same.
// Withholding acks is loss RC never causes, so nothing repairs it: the
// leader commits once the next message's ack arrives.
func TestFollowerCommitsOnReceipt(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	tp.drop = dropKinds(kindAck)
	cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
	var id MsgID
	c.s.Spawn("client", func(p *sim.Proc) { id = cl.Multicast(p, []GroupID{0}, []byte("m")) })
	c.run(50 * sim.Microsecond)
	if tp.count(kindAck, 0) == 0 {
		t.Fatal("no follower acked: the test withheld nothing")
	}
	if _, ok := c.delivered(0, 0, id); ok || c.procs[0][0].CommitIdx() != 0 {
		t.Fatal("the leader committed with every ack withheld")
	}
	for r := 1; r < 3; r++ {
		if _, ok := c.delivered(0, r, id); !ok || c.procs[0][r].CommitIdx() != 1 {
			t.Fatalf("follower %d holds the leader's record and has not delivered it", r)
		}
	}
	// The leader catches up once acks flow: the next message's cumulative
	// ack covers the first, which it delivers at the followers' timestamp.
	tp.drop = nil
	var next MsgID
	c.s.Spawn("client", func(p *sim.Proc) { next = cl.Multicast(p, []GroupID{0}, []byte("n")) })
	c.run(2 * sim.Millisecond)
	for _, m := range []MsgID{id, next} {
		if _, ok := c.delivered(0, 0, m); !ok {
			t.Fatalf("the leader never delivered %v", m)
		}
	}
	checkGlobalOrder(t, c)
}

// TestCommitIndexRidesOnlyTheHeartbeat: with n = 3 no kindCommitIdx is ever
// sent — commit index and truncation point ride the heartbeat — under a
// workload of single- and multi-group messages that all get delivered.
func TestCommitIndexRidesOnlyTheHeartbeat(t *testing.T) {
	c, tp := newTappedCluster(t, 2, 3)
	defer c.s.Close()
	cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			dst := []GroupID{GroupID(i % 2)}
			if i%3 == 0 {
				dst = []GroupID{0, 1}
			}
			cl.Multicast(p, dst, []byte{byte(i)})
			p.Sleep(sim.Duration(i%7) * sim.Microsecond)
		}
	})
	c.run(5 * sim.Millisecond)
	for g := 0; g < 2; g++ {
		for r := 0; r < 3; r++ {
			if n := len(c.deliveries[g][r]); n != 40 {
				t.Fatalf("group %d replica %d delivered %d, want 40", g, r, n)
			}
		}
	}
	checkGlobalOrder(t, c)
	if n := tp.count(kindCommitIdx, 0); n != 0 {
		t.Fatalf("%d kindCommitIdx datagrams sent in 3-member groups, want 0", n)
	}
	if tp.count(kindHeartbeat, 0) == 0 || tp.count(kindRepCommit, 0) == 0 {
		t.Fatal("the tap saw no heartbeats or no replication records")
	}
}

// TestFollowerDeliveryOutlivesLeaderCrash: the leader crashes right after
// one follower delivered on receipt — no ack ever landed, the other
// follower never saw the record, and the other follower is the next
// leader. The view change must adopt the record from the follower that
// holds it: the message ends up delivered once, at the same timestamp,
// everywhere, and ordering goes on.
func TestFollowerDeliveryOutlivesLeaderCrash(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	leader, next, holder := c.cfg.Groups[0][0], c.cfg.Groups[0][1], 2
	tp.drop = func(d tapped) bool {
		return d.kind == kindAck || (d.kind == kindRepCommit && d.from == leader && d.to == next)
	}
	cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
	var first, second MsgID
	c.s.Spawn("client", func(p *sim.Proc) {
		first = cl.Multicast(p, []GroupID{0}, []byte("first"))
		p.Sleep(5 * sim.Millisecond)
		second = cl.Multicast(p, []GroupID{0}, []byte("second"))
	})
	c.run(20 * sim.Microsecond)
	ts, ok := c.delivered(0, holder, first)
	if !ok {
		t.Fatal("the follower that received the record has not delivered it")
	}
	if _, ok := c.delivered(0, 1, first); ok || c.procs[0][1].LogLen() != 0 || c.procs[0][0].CommitIdx() != 0 {
		t.Fatal("set-up: the record reached the next leader, or the leader committed")
	}
	c.procs[0][0].Crash()
	tp.drop = nil
	c.run(20 * sim.Millisecond)

	if !c.procs[0][1].IsLeader() {
		t.Fatal("rank 1 did not take over")
	}
	for r := 1; r < 3; r++ {
		for _, id := range []MsgID{first, second} {
			if _, ok := c.delivered(0, r, id); !ok {
				t.Fatalf("replica %d did not deliver %v after the view change", r, id)
			}
		}
		if got, _ := c.delivered(0, r, first); got != ts {
			t.Fatalf("replica %d delivered the message at %v, the follower had delivered it at %v", r, got, ts)
		}
	}
	checkGlobalOrder(t, c)
	checkIntegrity(t, c, map[MsgID][]GroupID{first: {0}, second: {0}})
}

// TestFiveMembersWaitForTheLeader: with n = 5 a follower holding the record
// knows of two holders and needs three, so it does not deliver before the
// leader tells it — by kindCommitIdx, which stays, or by a heartbeat.
func TestFiveMembersWaitForTheLeader(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 5)
	defer c.s.Close()
	tp.drop = dropKinds(kindCommitIdx, kindHeartbeat)
	cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
	var id MsgID
	c.s.Spawn("client", func(p *sim.Proc) { id = cl.Multicast(p, []GroupID{0}, []byte("m")) })
	c.run(300 * sim.Microsecond)
	if _, ok := c.delivered(0, 0, id); !ok {
		t.Fatal("the leader did not commit on a quorum of acks")
	}
	if tp.count(kindCommitIdx, 0) == 0 {
		t.Fatal("the leader of a 5-member group announced no commit index")
	}
	for r := 1; r < 5; r++ {
		if c.procs[0][r].LogLen() != 1 {
			t.Fatalf("follower %d does not hold the record", r)
		}
		if _, ok := c.delivered(0, r, id); ok {
			t.Fatalf("follower %d delivered before the leader's commit index reached it", r)
		}
	}
	tp.drop = nil
	c.run(600 * sim.Microsecond)
	for r := 1; r < 5; r++ {
		if _, ok := c.delivered(0, r, id); !ok {
			t.Fatalf("follower %d never delivered", r)
		}
	}
}

// TestReshapeSwitchesCommitRule: a group reshaped 3 -> 5 -> 3 commits by
// the rule of its current size from the instant of each switch — followers
// on receipt and nothing announced at 3, followers on the leader's word at
// 5 — because the rule is asked of the live layout, never cached.
func TestReshapeSwitchesCommitRule(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
	sent := make(map[MsgID][]GroupID)
	send := func(at sim.Duration, out *MsgID) {
		c.s.After(at, func() {
			c.s.Spawn("client", func(p *sim.Proc) {
				*out = cl.Multicast(p, []GroupID{0}, []byte{byte(len(sent))})
				sent[*out] = []GroupID{0}
			})
		})
	}
	const (
		grow   = 1 * sim.Millisecond
		shrink = 2 * sim.Millisecond
	)
	var at3, at5, at3again MsgID
	send(500*sim.Microsecond, &at3)
	c.s.After(grow, func() { c.reshape(0, 5) })
	send(grow+200*sim.Microsecond, &at5)
	c.s.After(shrink, func() { c.reshape(0, 3) })
	send(shrink+200*sim.Microsecond, &at3again)

	// Three members: delivered everywhere, nothing announced.
	c.run(grow - sim.Microsecond)
	for r := 0; r < 3; r++ {
		if _, ok := c.delivered(0, r, at3); !ok {
			t.Fatalf("3 members: replica %d did not deliver", r)
		}
	}
	if n := tp.count(kindCommitIdx, 0); n != 0 {
		t.Fatalf("3 members: %d kindCommitIdx sent", n)
	}

	// Five members, the leader's word withheld: followers hold the record
	// and wait; the leader announces.
	c.run(grow + 150*sim.Microsecond)
	tp.drop = dropKinds(kindCommitIdx, kindHeartbeat)
	c.run(grow + 300*sim.Microsecond)
	if _, ok := c.delivered(0, 0, at5); !ok {
		t.Fatal("5 members: the leader did not deliver")
	}
	for r := 1; r < 5; r++ {
		if _, ok := c.delivered(0, r, at5); ok {
			t.Fatalf("5 members: follower %d delivered on receipt", r)
		}
	}
	if tp.count(kindCommitIdx, sim.Time(grow)) == 0 {
		t.Fatal("5 members: the leader announced no commit index")
	}
	tp.drop = nil
	c.run(shrink - sim.Microsecond)
	for r := 0; r < 5; r++ {
		if _, ok := c.delivered(0, r, at5); !ok {
			t.Fatalf("5 members: replica %d never delivered", r)
		}
	}

	// Three again, acks withheld: followers deliver on receipt, the leader
	// cannot, and nothing is announced any more.
	c.run(shrink + 150*sim.Microsecond)
	tp.drop = dropKinds(kindAck)
	c.run(shrink + 300*sim.Microsecond)
	if _, ok := c.delivered(0, 0, at3again); ok {
		t.Fatal("3 members again: the leader committed with every ack withheld")
	}
	for r := 1; r < 3; r++ {
		if _, ok := c.delivered(0, r, at3again); !ok {
			t.Fatalf("3 members again: follower %d did not deliver on receipt", r)
		}
	}
	tp.drop = nil
	var after MsgID
	send(shrink+400*sim.Microsecond, &after) // its cumulative ack covers at3again
	c.run(shrink + 3*sim.Millisecond)
	for _, m := range []MsgID{at3again, after} {
		if _, ok := c.delivered(0, 0, m); !ok {
			t.Fatalf("3 members again: the leader never delivered %v", m)
		}
	}
	if n := tp.count(kindCommitIdx, sim.Time(shrink)); n != 0 {
		t.Fatalf("3 members again: %d kindCommitIdx sent after the switch", n)
	}
	c.deliveries[0] = c.deliveries[0][:3] // the removed members' histories end at the switch
	checkGlobalOrder(t, c)
	checkIntegrity(t, c, sent)
}
