package multicast

import (
	"fmt"
	"math/rand"
	"testing"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// cluster is a test deployment: groups*n replica nodes plus client nodes.
type cluster struct {
	t     *testing.T
	s     *sim.Scheduler
	fab   *rdma.Fabric
	tr    *rdma.Transport
	over  Transport // what the processes send through: OverRDMA(tr), or a wrapper of it
	cfg   Config
	procs [][]*Process
	// deliveries[g][r] accumulates what each replica delivered.
	deliveries [][][]Delivery
}

func newCluster(t *testing.T, groups, n int) *cluster {
	t.Helper()
	return newClusterOver(t, groups, n, func(tr Transport) Transport { return tr })
}

// newClusterOver is newCluster with the processes' transport wrapped (a
// tap that logs or drops datagrams); c.over is what they were given.
func newClusterOver(t *testing.T, groups, n int, wrap func(Transport) Transport) *cluster {
	t.Helper()
	return newClusterRing(t, groups, n, 1<<20, wrap)
}

// newClusterRing is newClusterOver with rings of ringCap bytes.
func newClusterRing(t *testing.T, groups, n, ringCap int, wrap func(Transport) Transport) *cluster {
	t.Helper()
	s := sim.NewScheduler()
	fab := rdma.NewFabric(s, rdma.DefaultConfig())
	layout := make([][]rdma.NodeID, groups)
	id := rdma.NodeID(1)
	for g := range layout {
		for r := 0; r < n; r++ {
			fab.AddNode(id)
			layout[g] = append(layout[g], id)
			id++
		}
	}
	tr := rdma.NewTransport(fab, ringCap)
	cfg := DefaultConfig(layout)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := &cluster{t: t, s: s, fab: fab, tr: tr, cfg: cfg}
	c.over = wrap(OverRDMA(tr))
	c.procs = make([][]*Process, groups)
	c.deliveries = make([][][]Delivery, groups)
	for g := 0; g < groups; g++ {
		c.procs[g] = make([]*Process, n)
		c.deliveries[g] = make([][]Delivery, n)
		for r := 0; r < n; r++ {
			c.attach(g, r, NewProcess(c.over, &c.cfg, GroupID(g), r))
		}
	}
	return c
}

// attach starts pr as member (g, r) and collects what it delivers.
func (c *cluster) attach(g, r int, pr *Process) {
	pr.Start(c.s)
	c.procs[g][r] = pr
	c.s.Spawn(fmt.Sprintf("sink-g%d-r%d", g, r), func(p *sim.Proc) {
		for {
			d, ok := pr.Deliveries().Recv(p)
			if !ok {
				return
			}
			c.deliveries[g][r] = append(c.deliveries[g][r], d)
		}
	})
}

// truncateAt lowers every member's retained-entry truncation threshold
// to n, before the run starts.
func (c *cluster) truncateAt(n uint64) {
	for _, grp := range c.procs {
		for _, pr := range grp {
			pr.truncateAt = n
		}
	}
}

// addClientNode registers a fabric node for a client and returns its id.
func (c *cluster) addClientNode(i int) rdma.NodeID {
	id := rdma.NodeID(1000 + i)
	c.fab.AddNode(id)
	return id
}

// run advances virtual time to the deadline, failing on scheduler errors.
func (c *cluster) run(d sim.Duration) {
	c.t.Helper()
	if err := c.s.RunUntil(sim.Time(d)); err != nil {
		c.t.Fatal(err)
	}
}

func TestSingleGroupDelivery(t *testing.T) {
	c := newCluster(t, 1, 3)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	c.s.Spawn("client", func(p *sim.Proc) {
		cl.Multicast(p, []GroupID{0}, []byte("hello"))
	})
	c.run(5 * sim.Millisecond)
	for r := 0; r < 3; r++ {
		ds := c.deliveries[0][r]
		if len(ds) != 1 {
			t.Fatalf("replica %d delivered %d messages, want 1", r, len(ds))
		}
		if string(ds[0].Payload) != "hello" {
			t.Fatalf("payload = %q", ds[0].Payload)
		}
		if ds[0].Ts != c.deliveries[0][0][0].Ts {
			t.Fatalf("timestamps differ across replicas")
		}
	}
}

func TestMultiGroupSameTimestamp(t *testing.T) {
	c := newCluster(t, 3, 3)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	c.s.Spawn("client", func(p *sim.Proc) {
		cl.Multicast(p, []GroupID{0, 2}, []byte("cross"))
	})
	c.run(5 * sim.Millisecond)
	var ts Timestamp
	for _, g := range []int{0, 2} {
		for r := 0; r < 3; r++ {
			ds := c.deliveries[g][r]
			if len(ds) != 1 {
				t.Fatalf("group %d replica %d delivered %d, want 1", g, r, len(ds))
			}
			if ts == 0 {
				ts = ds[0].Ts
			} else if ds[0].Ts != ts {
				t.Fatalf("timestamp mismatch: %v vs %v", ds[0].Ts, ts)
			}
		}
	}
	if len(c.deliveries[1][0]) != 0 {
		t.Fatal("group 1 not in dst but delivered")
	}
}

func TestUniformPrefixWithinGroup(t *testing.T) {
	c := newCluster(t, 2, 3)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			dst := []GroupID{GroupID(i % 2)}
			if i%5 == 0 {
				dst = []GroupID{0, 1}
			}
			cl.Multicast(p, dst, []byte{byte(i)})
			p.Sleep(3 * sim.Microsecond)
		}
	})
	c.run(20 * sim.Millisecond)
	for g := 0; g < 2; g++ {
		base := c.deliveries[g][0]
		if len(base) == 0 {
			t.Fatalf("group %d delivered nothing", g)
		}
		for r := 1; r < 3; r++ {
			other := c.deliveries[g][r]
			if len(other) != len(base) {
				t.Fatalf("group %d replica %d delivered %d, rank0 %d", g, r, len(other), len(base))
			}
			for i := range base {
				if base[i].ID != other[i].ID || base[i].Ts != other[i].Ts {
					t.Fatalf("group %d delivery sequences diverge at %d", g, i)
				}
			}
		}
	}
}

// checkGlobalOrder verifies uniform acyclic order: any two messages
// delivered by two processes are delivered in the same relative order,
// which with per-process monotone timestamps reduces to: delivery order
// equals timestamp order everywhere, and timestamps per message agree
// across processes.
func checkGlobalOrder(t *testing.T, c *cluster) {
	t.Helper()
	tsOf := make(map[MsgID]Timestamp)
	for g := range c.deliveries {
		for r := range c.deliveries[g] {
			var prev Timestamp
			for _, d := range c.deliveries[g][r] {
				if d.Ts <= prev {
					t.Fatalf("group %d replica %d: non-monotone delivery ts %v after %v", g, r, d.Ts, prev)
				}
				prev = d.Ts
				if old, ok := tsOf[d.ID]; ok && old != d.Ts {
					t.Fatalf("message %v has two timestamps: %v and %v", d.ID, old, d.Ts)
				}
				tsOf[d.ID] = d.Ts
			}
		}
	}
}

// checkIntegrity verifies at-most-once delivery per process and that all
// deliveries were actually multicast to that group.
func checkIntegrity(t *testing.T, c *cluster, sent map[MsgID][]GroupID) {
	t.Helper()
	for g := range c.deliveries {
		for r := range c.deliveries[g] {
			seen := make(map[MsgID]bool)
			for _, d := range c.deliveries[g][r] {
				if seen[d.ID] {
					t.Fatalf("group %d replica %d delivered %v twice", g, r, d.ID)
				}
				seen[d.ID] = true
				dst, ok := sent[d.ID]
				if !ok {
					t.Fatalf("delivered unsent message %v", d.ID)
				}
				member := false
				for _, dg := range dst {
					if int(dg) == g {
						member = true
					}
				}
				if !member {
					t.Fatalf("group %d delivered %v not addressed to it (dst %v)", g, d.ID, dst)
				}
			}
		}
	}
}

func TestRandomWorkloadGlobalConsistency(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, 4, 3)
			rng := rand.New(rand.NewSource(seed))
			sent := make(map[MsgID][]GroupID)
			for ci := 0; ci < 3; ci++ {
				cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100+ci))
				s := c.s
				s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
					for i := 0; i < 40; i++ {
						ng := 1 + rng.Intn(3)
						perm := rng.Perm(4)
						dst := make([]GroupID, 0, ng)
						for _, g := range perm[:ng] {
							dst = append(dst, GroupID(g))
						}
						id := cl.Multicast(p, dst, []byte{byte(i)})
						sent[id] = dst
						p.Sleep(sim.Duration(rng.Intn(20)) * sim.Microsecond)
					}
				})
			}
			c.run(50 * sim.Millisecond)
			// Validity: everything delivered everywhere it was addressed.
			for id, dst := range sent {
				for _, g := range dst {
					for r := 0; r < 3; r++ {
						found := false
						for _, d := range c.deliveries[g][r] {
							if d.ID == id {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("message %v not delivered at group %d replica %d", id, g, r)
						}
					}
				}
			}
			checkGlobalOrder(t, c)
			checkIntegrity(t, c, sent)
		})
	}
}

func TestLeaderCrashRecovers(t *testing.T) {
	c := newCluster(t, 2, 3)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	sent := make(map[MsgID][]GroupID)
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			dst := []GroupID{0, 1}
			if i%2 == 0 {
				dst = []GroupID{0}
			}
			id := cl.Multicast(p, dst, []byte{byte(i)})
			sent[id] = dst
			p.Sleep(100 * sim.Microsecond)
		}
	})
	// Kill group 0's initial leader mid-stream.
	c.s.After(2*sim.Millisecond, func() { c.procs[0][0].Crash() })
	c.run(60 * sim.Millisecond)

	// Surviving replicas of group 0 must deliver every message.
	for id, dst := range sent {
		if dst[0] != 0 && len(dst) == 1 {
			continue
		}
		for r := 1; r < 3; r++ {
			found := false
			for _, d := range c.deliveries[0][r] {
				if d.ID == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("after leader crash, replica %d missing %v", r, id)
			}
		}
	}
	checkGlobalOrder(t, c)
	checkIntegrity(t, c, sent)
	if !c.procs[0][1].IsLeader() && !c.procs[0][2].IsLeader() {
		t.Fatal("no new leader elected in group 0")
	}
}

func TestFollowerCrashTolerated(t *testing.T) {
	c := newCluster(t, 2, 3)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	sent := make(map[MsgID][]GroupID)
	c.s.After(sim.Millisecond, func() { c.procs[0][2].Crash() })
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			id := cl.Multicast(p, []GroupID{0, 1}, []byte{byte(i)})
			sent[id] = []GroupID{0, 1}
			p.Sleep(50 * sim.Microsecond)
		}
	})
	c.run(30 * sim.Millisecond)
	for id := range sent {
		for _, gr := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}} {
			found := false
			for _, d := range c.deliveries[gr[0]][gr[1]] {
				if d.ID == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("message %v missing at group %d replica %d", id, gr[0], gr[1])
			}
		}
	}
	checkGlobalOrder(t, c)
}

func TestFiveReplicaGroups(t *testing.T) {
	c := newCluster(t, 2, 5)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			cl.Multicast(p, []GroupID{0, 1}, []byte{byte(i)})
			p.Sleep(20 * sim.Microsecond)
		}
	})
	c.run(20 * sim.Millisecond)
	for g := 0; g < 2; g++ {
		for r := 0; r < 5; r++ {
			if len(c.deliveries[g][r]) != 20 {
				t.Fatalf("group %d replica %d delivered %d, want 20", g, r, len(c.deliveries[g][r]))
			}
		}
	}
	checkGlobalOrder(t, c)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		groups [][]rdma.NodeID
		ok     bool
	}{
		{"valid", [][]rdma.NodeID{{1, 2, 3}, {4, 5, 6}}, true},
		{"empty", nil, false},
		{"even group", [][]rdma.NodeID{{1, 2}}, false},
		{"overlap", [][]rdma.NodeID{{1, 2, 3}, {3, 4, 5}}, false},
		{"single replica", [][]rdma.NodeID{{1}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.groups)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestTimestampEncoding(t *testing.T) {
	ts := MakeTimestamp(12345, 7)
	if ts.Clock() != 12345 || ts.Group() != 7 {
		t.Fatalf("round trip failed: %v", ts)
	}
	// Ordering: clock dominates, group breaks ties.
	if MakeTimestamp(2, 0) <= MakeTimestamp(1, 255) {
		t.Fatal("clock must dominate group")
	}
	if MakeTimestamp(1, 1) <= MakeTimestamp(1, 0) {
		t.Fatal("group must break ties")
	}
}
