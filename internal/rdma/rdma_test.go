package rdma

import (
	"bytes"
	"errors"
	"testing"

	"heron/internal/sim"
)

// testFabric builds a two-node fabric with default config.
func testFabric(t *testing.T) (*sim.Scheduler, *Fabric, *Node, *Node) {
	t.Helper()
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	return s, f, f.AddNode(1), f.AddNode(2)
}

func TestReadRemoteMemory(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(64)
	copy(reg.Bytes()[8:], []byte("hello"))
	qp := f.Connect(1, 2)

	var got []byte
	var err error
	s.Spawn("reader", func(p *sim.Proc) {
		got, err = qp.Read(p, reg.Addr(8), 5)
	})
	if rerr := s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("read %q", got)
	}
	if s.Now() < sim.Time(ReadBase) {
		t.Fatalf("read completed too fast: %d", s.Now())
	}
}

func TestWriteRemoteMemory(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)

	s.Spawn("writer", func(p *sim.Proc) {
		if err := qp.Write(p, reg.Addr(0), []byte("abc")); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reg.Bytes()[:3], []byte("abc")) {
		t.Fatalf("memory = %q", reg.Bytes()[:3])
	}
}

func TestReadSnapshotsAtCompletionTime(t *testing.T) {
	// A write committing before the read completes must be observed; the
	// read snapshots target memory at its completion instant.
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(8)
	qp := f.Connect(1, 2)

	var got []byte
	s.Spawn("reader", func(p *sim.Proc) {
		var err error
		got, err = qp.Read(p, reg.Addr(0), 1)
		if err != nil {
			t.Error(err)
		}
	})
	// Local mutation strictly before the read completes.
	s.After(100*sim.Nanosecond, func() { reg.Bytes()[0] = 0x7f })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x7f {
		t.Fatalf("read stale value %x", got[0])
	}
}

func TestPostWriteIsAsync(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(8)
	qp := f.Connect(1, 2)

	var issuerDone, committed sim.Time
	s.Spawn("writer", func(p *sim.Proc) {
		if err := qp.PostWrite(p, reg.Addr(0), []byte{1}); err != nil {
			t.Error(err)
		}
		issuerDone = p.Now()
	})
	s.Spawn("watch", func(p *sim.Proc) {
		b.WriteNotify().WaitUntil(p, func() bool { return reg.Bytes()[0] == 1 })
		committed = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if issuerDone >= committed {
		t.Fatalf("post returned at %d, commit at %d; post must not block", issuerDone, committed)
	}
}

func TestWriteNotifyBroadcast(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(8)
	qp := f.Connect(1, 2)

	woke := false
	s.Spawn("waiter", func(p *sim.Proc) {
		b.WriteNotify().WaitUntil(p, func() bool { return reg.Bytes()[0] == 9 })
		woke = true
	})
	s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		if err := qp.Write(p, reg.Addr(0), []byte{9}); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("waiter not woken by remote write")
	}
}

func TestReadCrashedNodeFails(t *testing.T) {
	s, f, _, b := testFabric(t)
	b.RegisterRegion(8)
	b.Crash()
	qp := f.Connect(1, 2)

	var err error
	var elapsed sim.Time
	s.Spawn("reader", func(p *sim.Proc) {
		_, err = qp.Read(p, Addr{Node: 2, Key: 1, Off: 0}, 4)
		elapsed = p.Now()
	})
	if rerr := s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, ErrRemoteFailure) {
		t.Fatalf("err = %v, want ErrRemoteFailure", err)
	}
	if elapsed < sim.Time(FailureTimeout) {
		t.Fatalf("failure surfaced at %d, before timeout", elapsed)
	}
}

func TestCrashedIssuerFailsFast(t *testing.T) {
	s, f, a, b := testFabric(t)
	reg := b.RegisterRegion(8)
	qp := f.Connect(1, 2)
	a.Crash()

	var err error
	s.Spawn("reader", func(p *sim.Proc) {
		_, err = qp.Read(p, reg.Addr(0), 4)
	})
	if rerr := s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, ErrLocalFailure) {
		t.Fatalf("err = %v, want ErrLocalFailure", err)
	}
}

func TestOutOfBoundsAndMissingRegion(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(16)
	qp := f.Connect(1, 2)

	var errOOB, errNoReg error
	s.Spawn("reader", func(p *sim.Proc) {
		_, errOOB = qp.Read(p, reg.Addr(10), 100)
		_, errNoReg = qp.Read(p, Addr{Node: 2, Key: 999}, 4)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errOOB, ErrOutOfBounds) {
		t.Fatalf("errOOB = %v", errOOB)
	}
	if !errors.Is(errNoReg, ErrNoSuchRegion) {
		t.Fatalf("errNoReg = %v", errNoReg)
	}
}

func TestNICOccupancyQueues(t *testing.T) {
	// Two large reads against the same target must serialize on the
	// target NIC: the second completes later than it would alone.
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(1 << 20)
	size := 512 * 1024

	var t1, t2 sim.Time
	qpA := f.Connect(1, 2)
	s.Spawn("r1", func(p *sim.Proc) {
		if _, err := qpA.Read(p, reg.Addr(0), size); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
	})
	s.Spawn("r2", func(p *sim.Proc) {
		if _, err := qpA.Read(p, reg.Addr(0), size); err != nil {
			t.Error(err)
		}
		t2 = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	alone := sim.Time(ReadBase) + sim.Time(float64(size)/BytesPerNS)
	if t1 < alone {
		t.Fatalf("first read too fast: %d < %d", t1, alone)
	}
	if t2 < t1+sim.Time(float64(size)/BytesPerNS)/2 {
		t.Fatalf("second read did not queue: t1=%d t2=%d", t1, t2)
	}
}

func TestRecoverAfterCrash(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(8)
	reg.Bytes()[0] = 5
	qp := f.Connect(1, 2)
	b.Crash()
	b.Recover()

	var got []byte
	s.Spawn("reader", func(p *sim.Proc) {
		var err error
		got, err = qp.Read(p, reg.Addr(0), 1)
		if err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("memory lost across recover: %v", got)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate node id")
		}
	}()
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	f.AddNode(1)
	f.AddNode(1)
}

func TestLatencyScalesWithPayload(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(1 << 21)
	qp := f.Connect(1, 2)

	var small, large sim.Duration
	s.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := qp.Read(p, reg.Addr(0), 8); err != nil {
			t.Error(err)
		}
		small = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		if _, err := qp.Read(p, reg.Addr(0), 1<<20); err != nil {
			t.Error(err)
		}
		large = sim.Duration(p.Now() - t0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 MiB at 3.125 B/ns is ~335 us of serialization.
	if large < 100*small {
		t.Fatalf("large read %v not much slower than small %v", large, small)
	}
}
