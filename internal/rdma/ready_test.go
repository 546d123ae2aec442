package rdma

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// An Endpoint looks only at the rings its ready set marks. These tests
// hold it to the full scan it replaced, kept here as the reference: under
// the same traffic — bursts from several producers, noise WRITEs into the
// node, a consumer crash and recovery, a link reset, chains a lossy link
// retransmits — TryRecv and Pending return the same thing at every step,
// and an unmarked ring never holds anything at its head.

// refTryRecv is Endpoint.TryRecv as it was: every ring, cyclically from
// next.
func refTryRecv(e *Endpoint) ([]byte, NodeID, bool) {
	n := len(e.boxes)
	for i := 0; i < n; i++ {
		idx := (e.next + i) % n
		if rec, got := e.boxes[idx].TryRecv(); got {
			e.next = (idx + 1) % n
			return rec[8:], NodeID(binary.LittleEndian.Uint64(rec[:8])), true
		}
	}
	return nil, 0, false
}

// refPending is Endpoint.Pending as it was.
func refPending(e *Endpoint) bool {
	for _, mb := range e.boxes {
		if mb.Pending() {
			return true
		}
	}
	return false
}

// scanner is one implementation of the endpoint's two ring scans.
type scanner struct {
	tryRecv func(*Endpoint) ([]byte, NodeID, bool)
	pending func(*Endpoint) bool
}

var (
	readySet = scanner{(*Endpoint).TryRecv, (*Endpoint).Pending}
	fullScan = scanner{refTryRecv, refPending}
)

// readyInvariant returns the rings of e that are unmarked with something
// at their head.
func readyInvariant(e *Endpoint) []int {
	var bad []int
	for i, mb := range e.boxes {
		if e.landed[i>>6]&(1<<(i&63)) == 0 && mb.Pending() {
			bad = append(bad, i)
		}
	}
	return bad
}

// readyRun is one seeded run: producers 1-3 send bursts to node 4 over
// 256-byte rings, node 5 writes noise into node 4, node 2's link turns
// lossy for a while, node 1's link is partitioned and healed, node 4
// crashes and recovers, and a poller scans node 4's endpoint at irregular
// steps, logging everything the scans return.
type readyRun struct {
	trace  []string
	events uint64
	// retransmitted counts node 2's lossy bursts that the link delayed.
	retransmitted int
}

func runReady(t *testing.T, seed int64, sc scanner) readyRun {
	t.Helper()
	const ringCap = 256
	s := sim.NewScheduler()
	defer s.Close()
	f := NewFabric(s, DefaultConfig())
	for id := NodeID(1); id <= 5; id++ {
		f.AddNode(id)
	}
	f.SetFaultSeed(seed)
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	tr := NewTransport(f, ringCap)
	tr.Prewire([][2]NodeID{{3, 4}, {1, 4}, {2, 4}})
	ep := tr.Endpoint(4)
	var run readyRun
	logf := func(format string, args ...any) {
		run.trace = append(run.trace, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
	}

	for id := NodeID(1); id <= 3; id++ {
		rng := rand.New(rand.NewSource(seed*10 + int64(id)))
		s.Spawn(fmt.Sprintf("producer%d", id), func(p *sim.Proc) {
			for b := 0; b < 40; b++ {
				burst := make([][]byte, 1+rng.Intn(4))
				for k := range burst {
					burst[k] = append([]byte(fmt.Sprintf("p%d-b%02d-%d:", id, b, k)), make([]byte, 4*rng.Intn(6))...)
				}
				lossy := id == 2 && b >= 6 && b < 18
				if lossy {
					f.SetLinkDrop(2, 4, 0.5)
				}
				retx := counter(m, "rdma/retransmits")
				if err := tr.Send(p, id, 4, burst...); err != nil {
					logf("producer %d burst %d: %v", id, b, err)
				}
				if lossy {
					f.SetLinkDrop(2, 4, 0)
					if counter(m, "rdma/retransmits") > retx {
						run.retransmitted++
					}
				}
				p.Sleep(sim.Duration(rng.Intn(4000)) * sim.Nanosecond)
			}
		})
	}

	scratch := f.Node(4).RegisterRegion(64)
	noise := f.Connect(5, 4)
	s.Spawn("noise", func(p *sim.Proc) {
		for i := 0; i < 600; i++ {
			_ = noise.PostWrite(p, scratch.Addr(8*(i%8)), []byte{byte(i)})
			p.Sleep(300 * sim.Nanosecond)
		}
	})

	s.At(sim.Time(60*sim.Microsecond), func() { f.PartitionLink(1, 4) })
	s.At(sim.Time(75*sim.Microsecond), func() { f.HealLink(1, 4) })
	s.At(sim.Time(110*sim.Microsecond), f.Node(4).Crash)
	s.At(sim.Time(130*sim.Microsecond), f.Node(4).Recover)

	rng := rand.New(rand.NewSource(seed))
	s.Spawn("poller", func(p *sim.Proc) {
		for step := 0; step < 500; step++ {
			p.Sleep(sim.Duration(rng.Intn(1500)) * sim.Nanosecond)
			logf("pending=%v", sc.pending(ep))
			for k := rng.Intn(4); k > 0; k-- {
				pl, from, ok := sc.tryRecv(ep)
				logf("recv %q from %d ok=%v", pl, from, ok)
			}
			if bad := readyInvariant(ep); len(bad) > 0 {
				t.Errorf("seed %d, step %d: rings %v unmarked with something at their head", seed, step, bad)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	run.events = s.EventCount()
	return run
}

// TestReadySetMatchesFullScan checks eight seeds, in which node 2's lossy
// link must have retransmitted some burst.
func TestReadySetMatchesFullScan(t *testing.T) {
	retransmitted, received := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		want := runReady(t, seed, fullScan)
		got := runReady(t, seed, readySet)
		if !reflect.DeepEqual(got.trace, want.trace) {
			for i := range min(len(got.trace), len(want.trace)) {
				if got.trace[i] != want.trace[i] {
					t.Fatalf("seed %d: step %d diverges from the full scan\n got  %s\n want %s", seed, i, got.trace[i], want.trace[i])
				}
			}
			t.Fatalf("seed %d: %d steps, the full scan %d", seed, len(got.trace), len(want.trace))
		}
		if got.events != want.events {
			t.Fatalf("seed %d: %d events, the full scan %d", seed, got.events, want.events)
		}
		retransmitted += got.retransmitted
		for _, line := range got.trace {
			if strings.HasSuffix(line, "ok=true") {
				received++
			}
		}
	}
	t.Logf("%d datagrams received; %d bursts retransmitted", received, retransmitted)
	if retransmitted == 0 {
		t.Fatal("the lossy link retransmitted no burst")
	}
}
