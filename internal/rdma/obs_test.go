package rdma

import (
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// TestObserveCountsVerbs checks that per-QP counters, the nic-wait
// histogram and the verb spans are populated when a fabric is observed.
func TestObserveCountsVerbs(t *testing.T) {
	s, f, _, b := testFabric(t)
	m := obs.NewMetrics()
	tr := obs.NewTracer()
	f.Observe(obs.New(tr, m))

	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	s.Spawn("ops", func(p *sim.Proc) {
		if _, err := qp.Read(p, reg.Addr(0), 16); err != nil {
			t.Errorf("Read: %v", err)
		}
		if err := qp.Write(p, reg.Addr(0), make([]byte, 8)); err != nil {
			t.Errorf("Write: %v", err)
		}
		cq := f.Node(1).NewCQ()
		if _, err := qp.PostRead(p, cq, reg.Addr(0), 32); err != nil {
			t.Errorf("PostRead: %v", err)
		}
		cq.WaitAll(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	want := map[string]uint64{
		"rdma/qp/n1->n2/read_ops":   2, // Read + PostRead
		"rdma/qp/n1->n2/read_bytes": 48,
		"rdma/qp/n1->n2/write_ops":  1,
	}
	for name, v := range want {
		if got := m.Counter(name).Value(); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if m.Histogram("rdma/n1/nic_wait").Count() == 0 {
		t.Error("nic_wait histogram empty")
	}

	// Every verb span must be an async begin/end pair on node1's track.
	begins, ends := 0, 0
	for _, ev := range tr.Events() {
		switch ev.Phase {
		case obs.PhaseAsyncBegin:
			begins++
		case obs.PhaseAsyncEnd:
			ends++
		}
	}
	if begins != 3 || ends != 3 {
		t.Errorf("async span events = %d begins / %d ends, want 3/3", begins, ends)
	}
}

// TestCrashedTargetIncrementsDropCounter checks the satellite-3 contract:
// a PostWrite to a crashed target is silent to the caller but increments
// the rdma/write_dropped counter in the metrics registry.
func TestCrashedTargetIncrementsDropCounter(t *testing.T) {
	s, f, _, b := testFabric(t)
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))

	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	b.Crash()
	s.Spawn("writer", func(p *sim.Proc) {
		if err := qp.PostWrite(p, reg.Addr(0), []byte("lost")); err != nil {
			t.Errorf("PostWrite to crashed target should be silent, got %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("rdma/write_dropped").Value(); got != 1 {
		t.Fatalf("rdma/write_dropped = %d, want 1", got)
	}
}

// TestCrashRacingDMAIncrementsDropCounter covers the other drop path: the
// target crashes after the write is posted but before the DMA commits.
func TestCrashRacingDMAIncrementsDropCounter(t *testing.T) {
	s, f, _, b := testFabric(t)
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))

	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	s.Spawn("writer", func(p *sim.Proc) {
		if err := qp.PostWrite(p, reg.Addr(0), []byte("lost")); err != nil {
			t.Errorf("PostWrite: %v", err)
		}
	})
	// Crash strictly after posting (PostOverhead) but before WriteBase.
	s.At(sim.Time(200*sim.Nanosecond), func() { b.Crash() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("rdma/write_dropped").Value(); got != 1 {
		t.Fatalf("rdma/write_dropped = %d, want 1", got)
	}
}

// TestUnobservedFabricHasNoInstruments guards the disabled path: with no
// observer attached, verbs run and resolve no instruments.
func TestUnobservedFabricHasNoInstruments(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	s.Spawn("ops", func(p *sim.Proc) {
		if _, err := qp.Read(p, reg.Addr(0), 8); err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if qp.io != nil || f.Node(1).io != nil {
		t.Fatal("instruments resolved without an observer")
	}
}

// TestNICBusyTime: every verb is booked on both NICs it occupies — the
// issuer's and the target's — for VerbOverhead plus its bytes at line rate,
// each WR of a chain on its own.
func TestNICBusyTime(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	s.Spawn("ops", func(p *sim.Proc) {
		if err := qp.PostWrites(p, WR{reg.Addr(0), make([]byte, 25)}, WR{reg.Addr(32), make([]byte, 8)}); err != nil {
			t.Error(err)
		}
		if _, err := qp.Read(p, reg.Addr(0), 50); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var busy uint64
	for _, size := range []int{25, 8, 50} {
		busy += uint64(VerbOverhead) + uint64(float64(size)/BytesPerNS)
	}
	for _, node := range []string{"n1", "n2"} {
		if v := counter(m, "rdma/"+node+"/nic_verbs"); v != 3 {
			t.Errorf("%s served %d verbs, want 3", node, v)
		}
		if ns := counter(m, "rdma/"+node+"/nic_busy_ns"); ns != busy {
			t.Errorf("%s was busy %d ns, want %d", node, ns, busy)
		}
	}
}
