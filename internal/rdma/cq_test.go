package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"heron/internal/sim"
)

func TestPostReadBatchPipelines(t *testing.T) {
	// k posted READs must cost roughly one base latency plus k verb
	// occupancies — far less than k sequential blocking reads.
	const k = 16
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	a := f.AddNode(1)
	b := f.AddNode(2)
	reg := b.RegisterRegion(k * 8)
	for i := 0; i < k*8; i++ {
		reg.Bytes()[i] = byte(i)
	}
	qp := f.Connect(1, 2)

	var elapsed sim.Duration
	s.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		cq := a.NewCQ()
		handles := make([]*ReadHandle, k)
		for i := 0; i < k; i++ {
			h, err := qp.PostRead(p, cq, reg.Addr(i*8), 8)
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = h
		}
		done := cq.WaitAll(p)
		elapsed = sim.Duration(p.Now() - t0)
		if len(done) != k {
			t.Errorf("WaitAll returned %d completions, want %d", len(done), k)
		}
		if cq.Outstanding() != 0 {
			t.Errorf("outstanding = %d after WaitAll", cq.Outstanding())
		}
		for i, h := range handles {
			if h.Err() != nil {
				t.Errorf("read %d: %v", i, h.Err())
				continue
			}
			want := reg.Bytes()[i*8 : i*8+8]
			if !bytes.Equal(h.Data(), want) {
				t.Errorf("read %d = %v, want %v", i, h.Data(), want)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	syncCost := k * ReadBase // lower bound on k blocking reads
	if elapsed >= syncCost/2 {
		t.Fatalf("pipelined batch took %v, not much better than sync %v", elapsed, syncCost)
	}
	// Occupancy must still be charged: strictly more than one lone read.
	if elapsed <= ReadBase {
		t.Fatalf("pipelined batch took %v, below a single read's base %v — occupancy lost", elapsed, ReadBase)
	}
}

func TestPostReadCrashBetweenPostAndCompletionFailsOnlyThatOp(t *testing.T) {
	// Two READs to two targets; one target crashes after the posts but
	// before its DMA completes. Only that completion fails, after the RC
	// failure timeout; the other succeeds with correct data.
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	a := f.AddNode(1)
	b := f.AddNode(2)
	c := f.AddNode(3)
	regB := b.RegisterRegion(8)
	regC := c.RegisterRegion(8)
	copy(regB.Bytes(), []byte("liveliv!"))
	qb := f.Connect(1, 2)
	qc := f.Connect(1, 3)

	// Crash c strictly between posting (t≈0) and completion (t≈ReadBase).
	s.After(ReadBase/2, func() { c.Crash() })

	var took sim.Duration
	s.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		cq := a.NewCQ()
		hb, err := qb.PostRead(p, cq, regB.Addr(0), 8)
		if err != nil {
			t.Error(err)
			return
		}
		hc, err := qc.PostRead(p, cq, regC.Addr(0), 8)
		if err != nil {
			t.Error(err)
			return
		}
		done := cq.WaitAll(p)
		took = sim.Duration(p.Now() - t0)
		if len(done) != 2 {
			t.Errorf("got %d completions, want 2", len(done))
		}
		if hb.Err() != nil || !bytes.Equal(hb.Data(), []byte("liveliv!")) {
			t.Errorf("surviving read: err=%v data=%q", hb.Err(), hb.Data())
		}
		if !errors.Is(hc.Err(), ErrRemoteFailure) {
			t.Errorf("crashed target's read: err=%v, want ErrRemoteFailure", hc.Err())
		}
		if hc.Data() != nil {
			t.Errorf("crashed target's read returned data %v", hc.Data())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if took < FailureTimeout {
		t.Fatalf("batch completed in %v, before the failure timeout %v", took, FailureTimeout)
	}
}

func TestPostReadToAlreadyCrashedTarget(t *testing.T) {
	// Posting to a crashed target succeeds (the WQE is accepted); the
	// failure surfaces asynchronously after the failure timeout.
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	a := f.AddNode(1)
	b := f.AddNode(2)
	reg := b.RegisterRegion(8)
	qp := f.Connect(1, 2)
	b.Crash()

	s.Spawn("reader", func(p *sim.Proc) {
		cq := a.NewCQ()
		t0 := p.Now()
		h, err := qp.PostRead(p, cq, reg.Addr(0), 8)
		if err != nil {
			t.Errorf("posting to crashed target failed synchronously: %v", err)
			return
		}
		postCost := sim.Duration(p.Now() - t0)
		if postCost > 10*PostOverhead {
			t.Errorf("posting blocked for %v, want ~PostOverhead", postCost)
		}
		cq.WaitAll(p)
		if !errors.Is(h.Err(), ErrRemoteFailure) {
			t.Errorf("err = %v, want ErrRemoteFailure", h.Err())
		}
		if waited := sim.Duration(p.Now() - t0); waited < FailureTimeout {
			t.Errorf("failure surfaced after %v, before the timeout %v", waited, FailureTimeout)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPostReadLocalCrashAndBadRegion(t *testing.T) {
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	a := f.AddNode(1)
	b := f.AddNode(2)
	reg := b.RegisterRegion(8)
	qp := f.Connect(1, 2)

	s.Spawn("reader", func(p *sim.Proc) {
		cq := a.NewCQ()
		if _, err := qp.PostRead(p, cq, reg.Addr(0), 99); !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("oversized read: err = %v, want ErrOutOfBounds", err)
		}
		if cq.Outstanding() != 0 {
			t.Errorf("failed posting left %d outstanding", cq.Outstanding())
		}
		a.Crash()
		if _, err := qp.PostRead(p, cq, reg.Addr(0), 8); !errors.Is(err, ErrLocalFailure) {
			t.Errorf("local crash: err = %v, want ErrLocalFailure", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCQPollAndWaitSemantics(t *testing.T) {
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	a := f.AddNode(1)
	b := f.AddNode(2)
	reg := b.RegisterRegion(16)
	qp := f.Connect(1, 2)

	s.Spawn("reader", func(p *sim.Proc) {
		cq := a.NewCQ()
		if got := cq.Wait(p); got != nil {
			t.Errorf("Wait on idle CQ returned %d completions", len(got))
		}
		if got := cq.Poll(); got != nil {
			t.Errorf("Poll on idle CQ returned %d completions", len(got))
		}
		h0, err := qp.PostRead(p, cq, reg.Addr(0), 8)
		if err != nil {
			t.Error(err)
			return
		}
		if got := cq.Poll(); got != nil {
			t.Errorf("Poll right after posting returned %d completions", len(got))
		}
		got := cq.Wait(p)
		if len(got) != 1 || got[0] != h0 {
			t.Errorf("Wait returned %v, want the posted handle", got)
		}
		if !h0.Done() || h0.Seq() != 0 {
			t.Errorf("handle done=%v seq=%d", h0.Done(), h0.Seq())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCQCompletionOrderDeterministic(t *testing.T) {
	// Same program, two runs: identical completion order (Seq sequence).
	run := func() []int {
		s := sim.NewScheduler()
		f := NewFabric(s, DefaultConfig())
		a := f.AddNode(1)
		var qps []*QP
		var regs []*Region
		for i := 0; i < 4; i++ {
			n := f.AddNode(NodeID(10 + i))
			regs = append(regs, n.RegisterRegion(64))
			qps = append(qps, f.Connect(1, n.ID()))
		}
		var order []int
		s.Spawn("reader", func(p *sim.Proc) {
			cq := a.NewCQ()
			// Different sizes so completion times differ from posting order.
			sizes := []int{64, 8, 32, 16}
			for i, qp := range qps {
				if _, err := qp.PostRead(p, cq, regs[i].Addr(0), sizes[i]); err != nil {
					t.Error(err)
					return
				}
			}
			for _, h := range cq.WaitAll(p) {
				order = append(order, h.Seq())
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first, second := run(), run()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("completion order not deterministic: %v vs %v", first, second)
	}
	if len(first) != 4 {
		t.Fatalf("expected 4 completions, got %v", first)
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestCQResetRecycles: Reset refuses a CQ with READs outstanding; once they
// have landed it recycles their handles, which then read as not done, so
// a stale Data or Err panics; and the next post reuses a handle.
func TestCQResetRecycles(t *testing.T) {
	s, f, a, b := testFabric(t)
	defer s.Close()
	reg := b.RegisterRegion(16)
	copy(reg.Bytes(), "recycled")
	qp := f.Connect(1, 2)
	s.Spawn("reader", func(p *sim.Proc) {
		cq := a.NewCQ()
		h, err := qp.PostRead(p, cq, reg.Addr(0), 8)
		if err != nil {
			t.Error(err)
			return
		}
		mustPanic(t, "Reset with a READ outstanding", cq.Reset)
		cq.WaitAll(p)
		if string(h.Data()) != "recycled" {
			t.Errorf("Data = %q before Reset", h.Data())
		}
		cq.Reset()
		if h.Done() {
			t.Error("a recycled handle reads as done")
		}
		mustPanic(t, "Data on a recycled handle", func() { h.Data() })
		mustPanic(t, "Err on a recycled handle", func() { h.Err() })
		again, err := qp.PostRead(p, cq, reg.Addr(8), 8)
		if err != nil {
			t.Error(err)
			return
		}
		if again != h || again.Seq() != 0 {
			t.Errorf("the post after Reset took a new handle (%v) numbered %d, want the recycled one numbered 0", again != h, again.Seq())
		}
		if got := cq.Poll(); got != nil {
			t.Errorf("Poll after Reset returned %d stale completions", len(got))
		}
		cq.WaitAll(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCQResetCompletionOrder: a CQ reset after a batch of its own yields the
// next batch's completions in the order, with the sequence numbers and the
// data, that a fresh CQ yields them — a failed READ among them.
func TestCQResetCompletionOrder(t *testing.T) {
	type completion struct {
		seq  int
		addr Addr
		data string
		err  bool
	}
	run := func(reuse bool) []completion {
		s := sim.NewScheduler()
		defer s.Close()
		f := NewFabric(s, DefaultConfig())
		a := f.AddNode(1)
		var qps []*QP
		var regs []*Region
		for i := 0; i < 4; i++ {
			n := f.AddNode(NodeID(10 + i))
			reg := n.RegisterRegion(64)
			for j := range reg.Bytes() {
				reg.Bytes()[j] = byte(16*i + j)
			}
			regs = append(regs, reg)
			qps = append(qps, f.Connect(1, n.ID()))
		}
		var got []completion
		s.Spawn("reader", func(p *sim.Proc) {
			cq := a.NewCQ()
			batch := func(sizes []int) {
				for i, qp := range qps {
					if _, err := qp.PostRead(p, cq, regs[i].Addr(0), sizes[i]); err != nil {
						t.Error(err)
					}
				}
			}
			if reuse {
				batch([]int{8, 16, 32, 64}) // a different order: the handles change places
				cq.WaitAll(p)
				cq.Reset()
			}
			batch([]int{64, 8, 32, 16})
			f.Node(12).Crash()
			for _, h := range cq.WaitAll(p) {
				got = append(got, completion{seq: h.Seq(), addr: h.Addr(), data: string(h.Data()), err: h.Err() != nil})
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	fresh, reset := run(false), run(true)
	if len(fresh) != 4 || !fresh[len(fresh)-1].err {
		t.Fatalf("fresh CQ completions %v: want 4, the crashed target's last and failed", fresh)
	}
	if fmt.Sprint(fresh) != fmt.Sprint(reset) {
		t.Fatalf("completions of a reset CQ %v, of a fresh one %v", reset, fresh)
	}
}
