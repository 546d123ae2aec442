package rdma

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// An Endpoint looks only at the rings its ready set marks. These tests
// hold it to the full scan it replaced, kept here as the reference: under
// the same traffic — bursts from several producers, noise WRITEs into the
// node, a consumer crash and recovery, a link reset, chains torn by a
// lossy link — TryRecv, Stirred and Pending return the same thing at
// every step, and an unmarked ring always has its tail on its head.

// refTryRecv is Endpoint.TryRecv as it was: every ring, cyclically from
// next.
func refTryRecv(e *Endpoint) ([]byte, NodeID, bool) {
	n := len(e.boxes)
	for i := 0; i < n; i++ {
		idx := (e.next + i) % n
		for {
			rec, got := e.boxes[idx].TryRecv()
			if !got {
				break
			}
			if len(rec) < 8 {
				continue
			}
			e.next = (idx + 1) % n
			return rec[8:], NodeID(binary.LittleEndian.Uint64(rec[:8])), true
		}
	}
	return nil, 0, false
}

// refStirred is Endpoint.Stirred as it was.
func refStirred(e *Endpoint) bool {
	for _, mb := range e.boxes {
		if mb.stirred() {
			return true
		}
	}
	return false
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

// scanner is one implementation of the endpoint's three ring scans.
type scanner struct {
	tryRecv func(*Endpoint) ([]byte, NodeID, bool)
	stirred func(*Endpoint) bool
	pending func(*Endpoint) bool
}

var (
	readySet = scanner{(*Endpoint).TryRecv, (*Endpoint).Stirred, (*Endpoint).Pending}
	fullScan = scanner{refTryRecv, refStirred, refPending}
)

// readyInvariant returns the rings of e that are unmarked with their tail
// off their head.
func readyInvariant(e *Endpoint) []int {
	var bad []int
	for i, mb := range e.boxes {
		if e.landed[i>>6]&(1<<(i&63)) == 0 && mb.tailShadow() != mb.head {
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
	// torn counts node 2's lossy bursts that lost only their tail, and
	// those that lost only their records.
	tornTail, tornRecords int
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
			w := tr.writer(id, 4)
			mb := ep.boxes[slices.Index(ep.from, id)]
			for b := 0; b < 40; b++ {
				burst := make([][]byte, 1+rng.Intn(4))
				for k := range burst {
					burst[k] = append([]byte(fmt.Sprintf("p%d-b%02d-%d:", id, b, k)), make([]byte, 4*rng.Intn(6))...)
				}
				lossy := id == 2 && b >= 6 && b < 18
				if lossy {
					f.SetLinkDrop(2, 4, 0.5)
				}
				off := int(w.tail % ringCap)
				first := burst[0]
				posted := counter(m, "rdma/qp/n2->n4/write_bytes")
				if err := tr.Send(p, id, 4, burst...); err != nil {
					logf("producer %d burst %d: %v", id, b, err)
				}
				if lossy {
					f.SetLinkDrop(2, 4, 0)
					p.Sleep(5 * sim.Microsecond) // landed, if it was going to
					// Classify the tear, for bursts posted as one chain from
					// where the tail stood: the bytes the QP posted are the
					// records' WRITE, the 8-byte tail's, both or neither.
					if int(w.tail%ringCap) > off && off+recordSpan(8+len(first)) <= ringCap {
						sent := counter(m, "rdma/qp/n2->n4/write_bytes") - posted
						recs := sent != 0 && sent != 8
						tail := mb.tailShadow() == w.tail
						switch {
						case recs && !tail:
							run.tornTail++
						case !recs && tail:
							run.tornRecords++
						}
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
			logf("stirred=%v pending=%v", sc.stirred(ep), sc.pending(ep))
			for k := rng.Intn(4); k > 0; k-- {
				pl, from, ok := sc.tryRecv(ep)
				logf("recv %q from %d ok=%v", pl, from, ok)
			}
			if bad := readyInvariant(ep); len(bad) > 0 {
				t.Errorf("seed %d, step %d: rings %v unmarked with their tail off their head", seed, step, bad)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	run.events = s.EventCount()
	return run
}

// TestReadySetMatchesFullScan checks eight seeds, then scans on until node
// 2's lossy link has torn a burst both ways — tail lost with the records
// landed, and the reverse.
func TestReadySetMatchesFullScan(t *testing.T) {
	tornTail, tornRecords, received := 0, 0, 0
	for seed := int64(1); seed <= 8 || seed <= 64 && (tornTail == 0 || tornRecords == 0); seed++ {
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
		tornTail += got.tornTail
		tornRecords += got.tornRecords
		for _, line := range got.trace {
			if strings.HasSuffix(line, "ok=true") {
				received++
			}
		}
	}
	t.Logf("%d datagrams received; bursts torn: %d lost only the tail, %d only the records", received, tornTail, tornRecords)
	if tornTail == 0 || tornRecords == 0 {
		t.Fatalf("64 seeds tore %d tails and %d record WRITEs off their chains; want both", tornTail, tornRecords)
	}
}
