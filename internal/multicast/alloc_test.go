package multicast

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"heron/internal/sim"
)

// steadyBurst warms a cluster of groups × 3 members with n messages, then
// measures a second burst of n: the heap allocations it made, and the body
// copies the rule allows — one per member of every destination group of
// every message. dsts cycles the messages' destination lists.
func steadyBurst(t *testing.T, groups, n int, dsts [][]GroupID) (allocs, bodies uint64) {
	t.Helper()
	c := newCluster(t, groups, 3)
	defer c.s.Close()
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	payload := make([]byte, 64)
	burst := func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(payload, uint64(i))
			cl.Multicast(p, dsts[i%len(dsts)], payload)
			p.Sleep(2 * sim.Microsecond)
		}
	}
	c.s.Spawn("warm", burst)
	c.run(20 * sim.Millisecond)
	want := make([][]int, groups)
	for g := range want {
		want[g] = make([]int, 3)
	}
	for i := 0; i < n; i++ {
		for _, g := range dsts[i%len(dsts)] {
			bodies += 3
			for r := range want[g] {
				want[g][r] += 2
			}
		}
	}
	for g := range c.deliveries {
		for r := range c.deliveries[g] {
			// The sinks' own appends are the test's, not the protocol's.
			c.deliveries[g][r] = slices.Grow(c.deliveries[g][r], n)
		}
	}
	c.s.Spawn("burst", burst)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.run(40 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	for g := range c.deliveries {
		for r, ds := range c.deliveries[g] {
			if len(ds) != want[g][r] {
				t.Fatalf("group %d member %d delivered %d messages, want %d", g, r, len(ds), want[g][r])
			}
		}
	}
	return after.Mallocs - before.Mallocs, bodies
}

// TestSteadyStateAllocatesOnlyBodies: once warm, ordering a message
// allocates nothing but the one copy of its body each destination member
// keeps — no pending state, proposal map, milestone closure or destination
// list per message — in one group of three, and in two groups of three
// under a mix of single- and two-group messages. What the burst may add
// beyond the bodies is a constant: the amortised growth of the log and of
// its index, and the client proc's first run.
func TestSteadyStateAllocatesOnlyBodies(t *testing.T) {
	const n, slack = 1000, 64
	for _, tc := range []struct {
		name   string
		groups int
		dsts   [][]GroupID
	}{
		{"1x3", 1, [][]GroupID{{0}}},
		{"2x3", 2, [][]GroupID{{0, 1}, {0}, {1}, {1, 0}}},
	} {
		allocs, bodies := steadyBurst(t, tc.groups, n, tc.dsts)
		t.Logf("%s: %d messages, %d allocations, %d bodies", tc.name, n, allocs, bodies)
		if allocs > bodies+slack {
			t.Errorf("%s: a warm burst of %d messages allocates %d times, want at most %d body copies + %d (%.2f extra a message)",
				tc.name, n, allocs, bodies, slack, float64(allocs-bodies)/n)
		}
	}
}

// TestClusterSetupAllocatesNoMore pins what building the open-loop
// benchmark's deployment costs: NewCluster(4, 3, 2) prewires 182 rings, and
// anything a ring needs to carry records is made at its first WRITE, never
// at registration. The bounds are the cost before records validated
// themselves, 2 082–2 083 allocations and 185.2–185.8 kB over runs of this
// test, with room for that run-to-run variation.
func TestClusterSetupAllocatesNoMore(t *testing.T) {
	const (
		builds   = 10
		maxAlloc = 2090
		maxBytes = 187_000
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range builds {
		c, err := NewCluster(4, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		c.Sched.Close()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / builds
	bytes := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("NewCluster(4, 3, 2): %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAlloc || bytes > maxBytes {
		t.Fatalf("NewCluster(4, 3, 2) allocates %d times, %d bytes; want at most %d and %d", allocs, bytes, maxAlloc, maxBytes)
	}
}
