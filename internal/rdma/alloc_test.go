package rdma

import (
	"bytes"
	"fmt"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// A post takes its landings, payload copy and landing event from its QP's
// free list and gives them back when the chain lands or is dropped. These
// tests pin that: in steady state a post allocates nothing, every way out
// of a post returns its op, the list never outgrows what was in flight,
// and a returned op keeps nothing alive.

// allocsPerPeriod runs post on a proc once every period and returns the
// steady-state allocations per period: the scheduler runs a whole period
// per measured call, so each op lands and comes back before the next post
// takes one.
func allocsPerPeriod(t *testing.T, s *sim.Scheduler, post func(p *sim.Proc)) float64 {
	t.Helper()
	const period = 10 * sim.Microsecond
	s.Spawn("poster", func(p *sim.Proc) {
		for next := p.Now(); ; {
			post(p)
			next += sim.Time(period)
			p.Sleep(sim.Duration(next - p.Now()))
		}
	})
	until := s.Now()
	step := func() {
		until += sim.Time(period)
		if err := s.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // the free list, the event queue and every scratch reach their size
		step()
	}
	return testing.AllocsPerRun(200, step)
}

func TestPostSteadyStateAllocatesNothing(t *testing.T) {
	t.Run("PostWrite", func(t *testing.T) {
		s, f, _, b := testFabric(t)
		defer s.Close()
		reg := b.RegisterRegion(64)
		qp := f.Connect(1, 2)
		data := []byte("sixteen bytes...")
		if n := allocsPerPeriod(t, s, func(p *sim.Proc) {
			if err := qp.PostWrite(p, reg.Addr(8), data); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Fatalf("PostWrite allocates %v per post, want 0", n)
		}
	})
	t.Run("PostWrites-3", func(t *testing.T) {
		s, f, _, b := testFabric(t)
		defer s.Close()
		reg := b.RegisterRegion(256)
		qp := f.Connect(1, 2)
		wrs := []WR{{reg.Addr(64), make([]byte, 100)}, {reg.Addr(0), make([]byte, 40)}, {reg.Addr(200), make([]byte, 8)}}
		if n := allocsPerPeriod(t, s, func(p *sim.Proc) {
			if err := qp.PostWrites(p, wrs...); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Fatalf("a 3-WR PostWrites allocates %v per post, want 0", n)
		}
	})
	// k posted READs into one CQ, collected and reset: every handle and
	// its buffer come back to the CQ for the next period's posts.
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("PostRead-%d", k), func(t *testing.T) {
			s, f, a, b := testFabric(t)
			defer s.Close()
			reg := b.RegisterRegion(256)
			qp := f.Connect(1, 2)
			cq := a.NewCQ()
			n := allocsPerPeriod(t, s, func(p *sim.Proc) {
				for i := 0; i < k; i++ {
					if _, err := qp.PostRead(p, cq, reg.Addr(48*i), 48); err != nil {
						t.Error(err)
					}
				}
				if done := cq.WaitAll(p); len(done) != k {
					t.Errorf("WaitAll returned %d completions, want %d", len(done), k)
				}
				cq.Reset()
			})
			if n != 0 {
				t.Fatalf("%d posted READs, collected and reset, allocate %v per period, want 0", k, n)
			}
		})
	}
	// Transport.Send across many laps of a 512-byte ring: wrap markers,
	// chains split at the lap's end, and a credit READ about once a lap.
	// That READ is not pooled (QP.Read) and averages out below one per
	// send; the consumer copies each record into its ring's reused buffer
	// (Mailbox.TryRecv), so a receive allocates nothing.
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("Send-%d", k), func(t *testing.T) {
			s, f, _, _ := testFabric(t)
			defer s.Close()
			tr := NewTransport(f, 512)
			w := tr.writer(1, 2)
			ep := tr.Endpoint(2)
			s.Spawn("consumer", func(p *sim.Proc) {
				for {
					if _, _, err := ep.Recv(p); err != nil {
						return
					}
				}
			})
			payloads := burstPayloads(0, k, 16) // 24-byte records: 32-byte spans
			n := allocsPerPeriod(t, s, func(p *sim.Proc) {
				if err := tr.Send(p, 1, 2, payloads...); err != nil {
					t.Error(err)
				}
			})
			if laps := w.tail / 512; laps < 10 {
				t.Fatalf("the ring was lapped %d times, want >= 10", laps)
			}
			if n != 0 {
				t.Fatalf("Send of %d payloads, received, allocates %v per send, want 0", k, n)
			}
		})
	}
}

// freeOps returns how many ops the QP holds ready.
func freeOps(q *QP) int { return len(q.free) }

func TestPostOpComesBack(t *testing.T) {
	t.Run("crash-raced landing", func(t *testing.T) {
		s, f, _, b := testFabric(t)
		defer s.Close()
		m := obs.NewMetrics()
		f.Observe(obs.New(nil, m))
		reg := b.RegisterRegion(64)
		qp := f.Connect(1, 2)
		s.Spawn("poster", func(p *sim.Proc) {
			if err := qp.PostWrites(p, WR{reg.Addr(0), []byte("a")}, WR{reg.Addr(8), []byte("b")}); err != nil {
				t.Error(err)
			}
			b.Crash() // posted, not landed
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if d := counter(m, "rdma/write_dropped"); d != 2 {
			t.Fatalf("write_dropped = %d, want 2: the crash did not race the landing", d)
		}
		if n := freeOps(qp); n != 1 {
			t.Fatalf("%d free ops after a crash-raced landing, want 1", n)
		}
	})
	t.Run("whole chain dropped on a lossy link", func(t *testing.T) {
		// A link that loses every transmission exhausts the chain's
		// retries: the QP flushes it, and its op comes back at the reset.
		s, f, _, b := testFabric(t)
		defer s.Close()
		reg := b.RegisterRegion(64)
		qp := f.Connect(1, 2)
		f.SetLinkDrop(1, 2, 1)
		s.Spawn("poster", func(p *sim.Proc) {
			if err := qp.PostWrites(p, WR{reg.Addr(0), []byte("a")}, WR{reg.Addr(8), []byte("b")}); err != nil {
				t.Error(err)
			}
			if n := freeOps(qp); n != 0 {
				t.Errorf("%d free ops with the flushed chain in flight, want 0", n)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if n := freeOps(qp); n != 1 {
			t.Fatalf("%d free ops after the flushed chain's landing, want 1", n)
		}
		if mem := reg.mem(9); !bytes.Equal(mem, make([]byte, 9)) {
			t.Fatalf("the flushed chain placed %q", mem)
		}
	})
	t.Run("bad address", func(t *testing.T) {
		s, f, _, b := testFabric(t)
		defer s.Close()
		reg := b.RegisterRegion(64)
		qp := f.Connect(1, 2)
		s.Spawn("poster", func(p *sim.Proc) {
			if err := qp.PostWrites(p, WR{reg.Addr(0), []byte("a")}, WR{reg.Addr(60), []byte("too long")}); err == nil {
				t.Error("a post past the region's end succeeded")
			}
			if n := freeOps(qp); n != 1 {
				t.Errorf("%d free ops after a failed post, want 1", n)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPostFreeListBound: bursts of back-to-back posts, each burst in flight
// at once, leave exactly as many free ops as the largest burst.
func TestPostFreeListBound(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	peak := 0
	s.Spawn("poster", func(p *sim.Proc) {
		for _, burst := range []int{1, 3, 2, 7, 5, 7, 1, 4} {
			// Ten posts take 900 ns, under a WRITE's 1150 ns: none lands
			// before the burst's last is posted.
			for i := 0; i < burst; i++ {
				if err := qp.PostWrite(p, reg.Addr(0), []byte("x")); err != nil {
					t.Error(err)
				}
			}
			peak = max(peak, burst)
			if n := freeOps(qp); n > peak-burst {
				t.Errorf("%d free ops with %d of at most %d posts in flight", n, burst, peak)
			}
			p.Sleep(20 * sim.Microsecond)
			if n := freeOps(qp); n != peak {
				t.Errorf("%d free ops after the burst of %d landed, want the peak %d", n, burst, peak)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledOpHoldsNothing: traced chains of several sizes, some of them
// retransmitted on a lossy link, land; every op they return keeps no
// region, span or data.
func TestRecycledOpHoldsNothing(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	f.Observe(obs.New(obs.NewTracer(), obs.NewMetrics()))
	reg := b.RegisterRegion(256)
	qp := f.Connect(1, 2)
	f.SetLinkDrop(1, 2, 0.3)
	s.Spawn("poster", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			wrs := make([]WR, 1+i%4)
			for j := range wrs {
				wrs[j] = WR{reg.Addr(8 * j), bytes.Repeat([]byte{byte(i)}, 8)}
			}
			if err := qp.PostWrites(p, wrs...); err != nil {
				t.Error(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(qp.free) == 0 {
		t.Fatal("no op came back")
	}
	for i, op := range qp.free {
		if len(op.chain) != 0 || len(op.buf) != 0 {
			t.Errorf("free op %d holds %d landings and %d bytes", i, len(op.chain), len(op.buf))
		}
		for j, l := range op.chain[:cap(op.chain)] {
			if l.reg != nil || l.data != nil || l.sp != nil {
				t.Errorf("free op %d, landing %d still holds region %v, %d bytes, span %v", i, j, l.reg != nil, len(l.data), l.sp != nil)
			}
		}
	}
}
