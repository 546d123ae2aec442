package multicast

import (
	"testing"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// The gap repair fires on the events that lose records (resync.go): a
// reset of the leader's link to a follower, or a failed send to it. Each
// test counts the resyncs the leader hands to the substrate.

// load multicasts to group 0 every gap until stop, recording what it sent.
func (c *cluster) load(gap, stop sim.Duration, sent map[MsgID][]GroupID) {
	cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; p.Now() < sim.Time(stop); i++ {
			sent[cl.Multicast(p, []GroupID{0}, []byte{byte(i)})] = []GroupID{0}
			p.Sleep(gap)
		}
	})
}

// resyncsTo returns how many resyncs the leader sent to node to, and when
// the first one went.
func (tp *tap) resyncsTo(to rdma.NodeID) (int, sim.Time) {
	n, first := 0, sim.Time(-1)
	for _, d := range tp.log {
		if d.kind == kindResync && d.to == to {
			if n == 0 {
				first = d.at
			}
			n++
		}
	}
	return n, first
}

// checkConverged fails unless every member of group 0 delivered every
// message, in one order.
func checkConverged(t *testing.T, c *cluster, sent map[MsgID][]GroupID) {
	t.Helper()
	for id := range sent {
		for r := range c.procs[0] {
			if _, ok := c.delivered(0, r, id); !ok {
				t.Fatalf("replica %d never delivered %v", r, id)
			}
		}
	}
	checkGlobalOrder(t, c)
}

// TestHealedFollowerGetsOneSnapshot: a follower partitioned from its
// leader while records flow misses them; the heal resets the link, and
// the leader sends exactly one snapshot, at the follower's first ack
// after the heal, which repairs it. No more snapshots go than the
// leader's links were reset.
func TestHealedFollowerGetsOneSnapshot(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	leader, cut := c.cfg.Groups[0][0], c.cfg.Groups[0][2]
	resets := 0
	c.fab.OnLinkReset(func(a, b rdma.NodeID) {
		if a == leader || b == leader {
			resets++
		}
	})
	const heal = 600 * sim.Microsecond
	c.s.After(200*sim.Microsecond, func() { c.fab.PartitionLink(leader, cut) })
	c.s.After(heal, func() { c.fab.HealLink(leader, cut) })
	sent := make(map[MsgID][]GroupID)
	c.load(5*sim.Microsecond, 1500*sim.Microsecond, sent)
	c.run(5 * sim.Millisecond)

	n, at := tp.resyncsTo(cut)
	if n != 1 || at < sim.Time(heal) {
		t.Fatalf("the healed follower was sent %d snapshots, the first at %d ns; want 1, after the heal at %d", n, at, heal)
	}
	if all := tp.count(kindResync, 0); all > resets {
		t.Fatalf("%d snapshots sent, but the leader's links were reset %d times", all, resets)
	}
	checkConverged(t, c, sent)
}

// TestDownFollowerIsSentNothing: a follower crashed and kept down for
// 20 ms under load never acks, so it is sent no snapshot.
func TestDownFollowerIsSentNothing(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	c.s.After(200*sim.Microsecond, func() { c.procs[0][2].Crash() })
	sent := make(map[MsgID][]GroupID)
	c.load(10*sim.Microsecond, 20*sim.Millisecond, sent)
	c.run(21 * sim.Millisecond)
	if n := tp.count(kindResync, 0); n != 0 {
		t.Fatalf("%d snapshots sent to a member that stayed down", n)
	}
	for id := range sent {
		for r := 0; r < 2; r++ {
			if _, ok := c.delivered(0, r, id); !ok {
				t.Fatalf("live replica %d never delivered %v with one member down", r, id)
			}
		}
	}
}

// paused holds one node's receive endpoint idle until a set instant: the
// node lives, its process runs its timers, and its rings fill.
type paused struct {
	Transport
	node  rdma.NodeID
	until sim.Time
}

func (ps *paused) Endpoint(id rdma.NodeID) Endpoint {
	if id != ps.node {
		return ps.Transport.Endpoint(id)
	}
	return pausedEndpoint{ps.Transport.Endpoint(id), ps}
}

type pausedEndpoint struct {
	Endpoint
	ps *paused
}

func (e pausedEndpoint) held() bool { return e.ps.Scheduler().Now() < e.ps.until }

func (e pausedEndpoint) TryRecv(p *sim.Proc) ([]byte, rdma.NodeID, bool) {
	if e.held() {
		return nil, 0, false
	}
	return e.Endpoint.TryRecv(p)
}

func (e pausedEndpoint) RecvTimeout(p *sim.Proc, d sim.Duration) ([]byte, rdma.NodeID, bool) {
	if e.held() {
		p.Sleep(min(d, sim.Duration(e.ps.until-p.Now())))
		return nil, 0, false
	}
	return e.Endpoint.RecvTimeout(p, d)
}

func (e pausedEndpoint) Pending() bool { return !e.held() && e.Endpoint.Pending() }

// TestFullRingFollowerGetsOneResync: a live follower that stops draining
// fills its 16 KiB ring, so the leader's Send to it fails after
// FailureTimeout and later records land past a hole. No link resets; the
// failed send alone makes the leader owe one resync, paid at the
// follower's next ack.
func TestFullRingFollowerGetsOneResync(t *testing.T) {
	tp := &tap{}
	stalled := rdma.NodeID(3) // group 0's rank 2
	ps := &paused{node: stalled, until: sim.Time(1200 * sim.Microsecond)}
	c := newClusterRing(t, 1, 3, 1<<14, func(tr Transport) Transport {
		tp.Transport = tr
		ps.Transport = tp
		return ps
	})
	defer c.s.Close()
	c.cfg.LeaderTimeout = 10 * sim.Millisecond // the pause must not look like a dead leader
	resets := 0
	c.fab.OnLinkReset(func(rdma.NodeID, rdma.NodeID) { resets++ })
	sent := make(map[MsgID][]GroupID)
	c.load(3*sim.Microsecond, 1*sim.Millisecond, sent) // a snapshot of it fits in the ring
	c.run(8 * sim.Millisecond)

	if resets != 0 {
		t.Fatalf("set-up: %d link resets", resets)
	}
	n, at := tp.resyncsTo(stalled)
	if n != 1 || at < ps.until {
		t.Fatalf("the stalled follower was sent %d resyncs, the first at %d ns; want 1, after it resumed at %d", n, at, ps.until)
	}
	checkConverged(t, c, sent)
}

// TestRestoredMemberRepairedByNextRecord: a member rebuilt by Restore
// after a crash holds the live members' state but no position in the
// leader's stream. While no record follows it is sent nothing; the next
// record shows it the hole, and its ack draws the one resync.
func TestRestoredMemberRepairedByNextRecord(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	sent := make(map[MsgID][]GroupID)
	c.load(10*sim.Microsecond, 1*sim.Millisecond, sent)
	c.s.After(300*sim.Microsecond, func() { c.procs[0][2].Crash() })
	const restore = 2 * sim.Millisecond
	c.s.After(restore, func() {
		c.fab.Node(c.cfg.Groups[0][2]).Recover()
		pr := NewProcess(c.over, &c.cfg, 0, 2)
		pr.Restore([]*RecoveryState{c.procs[0][0].SnapshotForRecovery(), c.procs[0][1].SnapshotForRecovery()})
		c.attach(0, 2, pr)
	})
	c.run(restore + 5*sim.Millisecond)
	if n := tp.count(kindResync, 0); n != 0 {
		t.Fatalf("%d snapshots sent to a restored member that received no record", n)
	}

	quiet := c.s.Now()
	cl := NewClient(c.over, &c.cfg, c.addClientNode(1))
	var id MsgID
	c.s.Spawn("late", func(p *sim.Proc) { id = cl.Multicast(p, []GroupID{0}, []byte("next")) })
	c.run(restore + 7*sim.Millisecond)
	if n, at := tp.resyncsTo(c.cfg.Groups[0][2]); n != 1 || at < quiet {
		t.Fatalf("the restored member was sent %d snapshots, the first at %d ns; want 1, after the next record at %d", n, at, quiet)
	}
	for r := 0; r < 3; r++ {
		if _, ok := c.delivered(0, r, id); !ok {
			t.Fatalf("replica %d never delivered the next message", r)
		}
	}
}
