package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"heron/internal/sim"
)

// TestPartitionLinkFailsVerbs: verbs over a partitioned link fail with
// ErrLinkDown after the failure timeout, in both directions, and succeed
// again after the heal.
func TestPartitionLinkFailsVerbs(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	f.PartitionLink(1, 2)

	var errRead, errWrite error
	s.Spawn("driver", func(p *sim.Proc) {
		t0 := p.Now()
		_, errRead = qp.Read(p, reg.Addr(0), 8)
		if took := sim.Duration(p.Now() - t0); took < FailureTimeout {
			t.Errorf("partitioned read failed after %v, before the failure timeout", took)
		}
		errWrite = qp.Write(p, reg.Addr(0), []byte("x"))
		f.HealLink(1, 2)
		if _, err := qp.Read(p, reg.Addr(0), 8); err != nil {
			t.Errorf("read after heal: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errRead, ErrLinkDown) {
		t.Fatalf("read error = %v, want ErrLinkDown", errRead)
	}
	if !errors.Is(errWrite, ErrLinkDown) {
		t.Fatalf("write error = %v, want ErrLinkDown", errWrite)
	}
}

// TestPartitionIsDirectionless: PartitionLink cuts both directions.
func TestPartitionIsDirectionless(t *testing.T) {
	_, f, _, _ := testFabric(t)
	f.PartitionLink(1, 2)
	if !f.Partitioned(1, 2) || !f.Partitioned(2, 1) {
		t.Fatal("PartitionLink must cut both directions")
	}
	f.HealLink(2, 1) // heal accepts either orientation
	if f.Partitioned(1, 2) || f.Partitioned(2, 1) {
		t.Fatal("HealLink must restore both directions")
	}
}

// TestLinkDelaySlowsCompletion: added latency shifts verb completion by
// exactly the configured extra (jitter 0 keeps it exact).
func TestLinkDelaySlowsCompletion(t *testing.T) {
	base := func() sim.Time {
		s, f, _, b := testFabric(t)
		reg := b.RegisterRegion(64)
		qp := f.Connect(1, 2)
		s.Spawn("r", func(p *sim.Proc) { _, _ = qp.Read(p, reg.Addr(0), 8) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}()

	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	const extra = 7 * sim.Microsecond
	f.SetLinkDelay(1, 2, extra, 0)
	s.Spawn("r", func(p *sim.Proc) { _, _ = qp.Read(p, reg.Addr(0), 8) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Now() - base; got != sim.Time(extra) {
		t.Fatalf("delayed read finished %v later than baseline, want %v", sim.Duration(got), extra)
	}
}

// TestJitteredWritesLandInPostOrder: on a jittered link each WRITE draws
// its own extra delay, yet RC places a QP's WRITEs in post order, so a
// later WRITE never lands before an earlier one.
func TestJitteredWritesLandInPostOrder(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(8)
	qp := f.Connect(1, 2)
	f.SetLinkDelay(1, 2, 0, 20*sim.Microsecond)
	const n = 32
	s.Spawn("writer", func(p *sim.Proc) {
		var word [8]byte
		for i := 1; i <= n; i++ {
			binary.LittleEndian.PutUint64(word[:], uint64(i))
			if err := qp.PostWrite(p, reg.Addr(0), word[:]); err != nil {
				t.Error(err)
			}
		}
	})
	var seen []uint64
	s.Spawn("watcher", func(p *sim.Proc) {
		for b.WriteNotify().WaitTimeout(p, 100*sim.Microsecond) {
			seen = append(seen, binary.LittleEndian.Uint64(reg.Bytes()))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(seen) || len(seen) == 0 || seen[len(seen)-1] != n {
		t.Fatalf("WRITEs landed out of post order: memory went %v, want a rise to %d", seen, n)
	}
}

// TestLinkDropDeterministic: with a seeded fault RNG, which READs a lossy
// link retransmits, and how often, is identical across two runs; some are
// and some are not, and none fails.
func TestLinkDropDeterministic(t *testing.T) {
	run := func() string {
		s := sim.NewScheduler()
		f := NewFabric(s, DefaultConfig())
		f.AddNode(1)
		b := f.AddNode(2)
		f.SetFaultSeed(99)
		reg := b.RegisterRegion(64)
		qp := f.Connect(1, 2)
		f.SetLinkDrop(1, 2, 0.3)
		outcome := ""
		s.Spawn("r", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				t0 := p.Now()
				if _, err := qp.Read(p, reg.Addr(0), 8); err != nil {
					outcome += "x"
				} else {
					// Each retransmit adds one timeout to the READ.
					outcome += fmt.Sprint(sim.Duration(p.Now()-t0) / RetransmitTimeout)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return outcome
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same fault seed produced different drop patterns:\n%s\n%s", a, b)
	}
	if strings.Contains(a, "x") {
		t.Fatalf("a lossy link failed READs: %s", a)
	}
	if late := len(a) - strings.Count(a, "0"); late == 0 || late == len(a) {
		t.Fatalf("drop fraction 0.3 delayed %d/%d READs: %s", late, len(a), a)
	}
}

// TestRecoveryResetsRings: traffic sent into a crashed consumer desyncs
// the ring (producer tail advances, consumer sees nothing); after
// Recover, the rings reset and fresh datagrams flow again.
func TestRecoveryResetsRings(t *testing.T) {
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	f.AddNode(1)
	consumer := f.AddNode(2)
	tr := NewTransport(f, 1<<12)
	ep := tr.Endpoint(2)

	var got []string
	drain := func(p *sim.Proc) {
		// The consumer process dies with its node on a crash (Recv errors);
		// recovery spawns a fresh one, as the real rejoin path does.
		for {
			pl, _, err := ep.Recv(p)
			if err != nil {
				return
			}
			got = append(got, string(pl))
			if string(pl) == "after" {
				return
			}
		}
	}
	s.Spawn("consumer", drain)
	s.Spawn("producer", func(p *sim.Proc) {
		if err := tr.Send(p, 1, 2, []byte("before")); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * sim.Microsecond)
		consumer.Crash()
		// These land nowhere but advance the producer's bookkeeping.
		for i := 0; i < 5; i++ {
			_ = tr.Send(p, 1, 2, []byte(fmt.Sprintf("lost%d", i)))
		}
		p.Sleep(10 * sim.Microsecond)
		consumer.Recover()
		p.Scheduler().Spawn("consumer2", drain)
		if err := tr.Send(p, 1, 2, []byte("after")); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[len(got)-1] != "after" {
		t.Fatalf("post-recovery datagram never arrived; got %q", got)
	}
	for _, m := range got {
		if len(m) >= 4 && m[:4] == "lost" {
			t.Fatalf("datagram %q sent into a crashed node was delivered", m)
		}
	}
}

// TestHealResetsDesyncedRing: a partition drops ring writes while the
// producer's tail advances; HealLink resets both halves so traffic
// resumes instead of stalling on a desynchronized ring.
func TestHealResetsDesyncedRing(t *testing.T) {
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	f.AddNode(1)
	f.AddNode(2)
	tr := NewTransport(f, 1<<12)
	ep := tr.Endpoint(2)

	var got []string
	s.Spawn("consumer", func(p *sim.Proc) {
		for {
			pl, _, ok := ep.RecvTimeout(p, 5*sim.Millisecond)
			if !ok {
				return
			}
			got = append(got, string(pl))
			if string(pl) == "after" {
				return
			}
		}
	})
	s.Spawn("producer", func(p *sim.Proc) {
		_ = tr.Send(p, 1, 2, []byte("before"))
		p.Sleep(10 * sim.Microsecond)
		f.PartitionLink(1, 2)
		for i := 0; i < 5; i++ {
			_ = tr.Send(p, 1, 2, []byte(fmt.Sprintf("lost%d", i)))
		}
		p.Sleep(10 * sim.Microsecond)
		f.HealLink(1, 2)
		p.Sleep(10 * sim.Microsecond)
		_ = tr.Send(p, 1, 2, []byte("after"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := false
	for _, m := range got {
		if m == "after" {
			want = true
		}
	}
	if !want {
		t.Fatalf("post-heal datagram never arrived; got %q", got)
	}
}
