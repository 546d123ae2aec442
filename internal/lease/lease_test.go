package lease_test

import (
	"testing"

	"heron/internal/core"
	"heron/internal/lease"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// A minimal register application: payload [op u8][oid u64][val u64];
// op 0 reads the object (response = its value), op 1 writes val into it
// (response = val), op 2 is a write that additionally burns slowWriteCPU
// of execution time (for parallel-executor overlap tests). OIDs carry the
// owning partition in the high 32 bits.

const slowWriteCPU = 200 * sim.Microsecond

type regApp struct{ part core.PartitionID }

func newRegApp(part core.PartitionID, _ int) core.Application {
	return &regApp{part: part}
}

var regParter = core.PartitionerFunc(func(oid store.OID) core.PartitionID {
	return core.PartitionID(uint64(oid) >> 32)
})

func regOID(part core.PartitionID, key uint32) store.OID {
	return store.OID(uint64(part)<<32 | uint64(key))
}

func encodeOp(op uint8, oid store.OID, val uint64) []byte {
	w := wire.NewWriter(17)
	w.U8(op)
	w.U64(uint64(oid))
	w.U64(val)
	return w.Finish()
}

func decodeOp(b []byte) (op uint8, oid store.OID, val uint64) {
	r := wire.NewReader(b)
	return r.U8(), store.OID(r.U64()), r.U64()
}

func encodeVal(v uint64) []byte {
	w := wire.NewWriter(8)
	w.U64(v)
	return w.Finish()
}

func decodeVal(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return wire.NewReader(b).U64()
}

func (a *regApp) ReadSet(req *core.Request) []store.OID {
	op, oid, _ := decodeOp(req.Payload)
	if op == 0 {
		return []store.OID{oid}
	}
	return nil
}

// ConflictSets implements core.ConflictEstimator so the parallel executor
// can dispatch non-conflicting register ops to different workers.
func (a *regApp) ConflictSets(req *core.Request) (reads, writes []store.OID, ok bool) {
	op, oid, _ := decodeOp(req.Payload)
	if op == 0 {
		return []store.OID{oid}, nil, true
	}
	return nil, []store.OID{oid}, true
}

func (a *regApp) Execute(ctx *core.ExecContext) core.Outcome {
	op, oid, val := decodeOp(ctx.Req.Payload)
	if op == 0 {
		return core.Outcome{Response: append([]byte(nil), ctx.Values[oid]...)}
	}
	out := core.Outcome{
		Response: encodeVal(val),
		Writes:   []core.Write{{OID: oid, Val: encodeVal(val)}},
	}
	if op == 2 {
		out.CPU = slowWriteCPU
	}
	return out
}

const testKeys = 4

func build(t *testing.T, partitions, replicas int) (*sim.Scheduler, *core.Deployment) {
	t.Helper()
	return buildWorkers(t, partitions, replicas, 1)
}

func buildWorkers(t *testing.T, partitions, replicas, workers int) (*sim.Scheduler, *core.Deployment) {
	t.Helper()
	s := sim.NewScheduler()
	layout := make([][]rdma.NodeID, partitions)
	id := rdma.NodeID(1)
	for g := range layout {
		for r := 0; r < replicas; r++ {
			layout[g] = append(layout[g], id)
			id++
		}
	}
	cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
	cfg.StoreCapacity = testKeys*store.SlotSize(8) + 1<<12
	cfg.ExecWorkers = workers
	d, err := core.NewDeployment(s, cfg, newRegApp, regParter)
	if err != nil {
		t.Fatal(err)
	}
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		for k := uint32(0); k < testKeys; k++ {
			if err := rep.Store().Register(regOID(part, k), 8); err != nil {
				return err
			}
			if err := rep.Store().Init(regOID(part, k), encodeVal(0)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	return s, d
}

// TestGrantAndLocalRead drives one ordered write and then reads it back
// through the holder's local-read path: the grant must have installed a
// self-serving holder, and the local read must observe the completed
// write (the gating invariant: by the time Submit returns, the holder's
// execution frontier covers the write).
func TestGrantAndLocalRead(t *testing.T) {
	s, d := build(t, 1, 3)
	m := lease.Attach(d, lease.Options{})
	m.Start()
	cl := d.NewClient()
	rc := lease.NewReadClient(cl, m)
	oid := regOID(0, 1)
	done := false
	s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond) // past the first grant
		if _, err := cl.Submit(p, []core.PartitionID{0}, encodeOp(1, oid, 42)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		val, ok := rc.TryLocal(p, 0, oid)
		if !ok {
			t.Error("local read declined with a live lease")
			return
		}
		if got := decodeVal(val); got != 42 {
			t.Errorf("local read = %d, want 42", got)
		}
		done = true
	})
	if err := s.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("client did not finish")
	}
	if rc.Local != 1 {
		t.Errorf("local hits = %d, want 1", rc.Local)
	}
	if h := m.Holder(0); h != 0 {
		t.Errorf("holder = %d, want rank 0", h)
	}
	if !d.Replica(0, 0).LeaseSelfServe() {
		t.Error("holder replica is not self-serving")
	}
}

// TestParallelHolderGatesOwnReplies reproduces the parallel-executor
// read-your-write hazard: with ExecWorkers > 1, a fast write can finish
// while an older, slower, non-conflicting write is still in flight, so
// the holder's contiguous executed frontier (lastExec) has not covered
// the fast write yet. The holder must defer its own acknowledgement until
// the frontier passes the request — otherwise the client's immediate
// local read (served at lastExec+1) misses the write it was just acked.
func TestParallelHolderGatesOwnReplies(t *testing.T) {
	s, d := buildWorkers(t, 1, 3, 4)
	m := lease.Attach(d, lease.Options{})
	m.Start()
	slowCl := d.NewClient()
	cl := d.NewClient()
	rc := lease.NewReadClient(cl, m)
	slowOID, fastOID := regOID(0, 0), regOID(0, 3)
	done := false
	s.Spawn("slow-writer", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond) // past the first grant
		if _, err := slowCl.Submit(p, []core.PartitionID{0}, encodeOp(2, slowOID, 1)); err != nil {
			t.Errorf("slow write: %v", err)
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		// Land the fast write while the slow one occupies a worker.
		p.Sleep(550 * sim.Microsecond)
		if _, err := cl.Submit(p, []core.PartitionID{0}, encodeOp(1, fastOID, 99)); err != nil {
			t.Errorf("fast write: %v", err)
			return
		}
		val, ok := rc.TryLocal(p, 0, fastOID)
		if !ok {
			t.Error("local read declined with a live lease")
			return
		}
		if got := decodeVal(val); got != 99 {
			t.Errorf("local read after acked write = %d, want 99 — read-your-write violated", got)
		}
		done = true
	})
	if err := s.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("client did not finish")
	}
}

// TestHolderCrashSwitches crashes the holder mid-lease: the manager must
// re-grant to the next live rank (immediately — a crashed holder cannot
// serve), and local reads must resume at the new holder with the write
// still visible.
func TestHolderCrashSwitches(t *testing.T) {
	s, d := build(t, 1, 3)
	m := lease.Attach(d, lease.Options{})
	m.Start()
	cl := d.NewClient()
	rc := lease.NewReadClient(cl, m)
	oid := regOID(0, 2)
	done := false
	s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond)
		if _, err := cl.Submit(p, []core.PartitionID{0}, encodeOp(1, oid, 7)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		d.Replica(0, 0).Crash()
		p.Sleep(2 * sim.Millisecond) // several renew ticks
		if h := m.Holder(0); h != 1 {
			t.Errorf("holder after crash = %d, want rank 1", h)
		}
		val, ok := rc.TryLocal(p, 0, oid)
		if !ok {
			t.Error("local read declined at the new holder")
			return
		}
		if got := decodeVal(val); got != 7 {
			t.Errorf("local read = %d, want 7", got)
		}
		done = true
	})
	if err := s.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("client did not finish")
	}
}

// TestFenceRevokesAndResumes checks the reconfig fencing contract: after
// FenceLeases returns, no replica self-serves and no holder is
// advertised; after ResumeLeases, the grant loop re-establishes leases.
func TestFenceRevokesAndResumes(t *testing.T) {
	s, d := build(t, 2, 3)
	m := lease.Attach(d, lease.Options{})
	m.Start()
	done := false
	s.Spawn("fencer", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // leases established
		for g := 0; g < d.Partitions(); g++ {
			if m.Holder(core.PartitionID(g)) < 0 {
				t.Errorf("partition %d has no lease before the fence", g)
			}
		}
		m.FenceLeases(p)
		for g := 0; g < d.Partitions(); g++ {
			for rank := 0; rank < 3; rank++ {
				if d.Replica(core.PartitionID(g), rank).LeaseSelfServe() {
					t.Errorf("p%d/r%d still self-serves after the fence", g, rank)
				}
			}
			if _, ok := m.HolderNode(core.PartitionID(g)); ok {
				t.Errorf("partition %d still advertises a holder while fenced", g)
			}
		}
		m.ResumeLeases()
		p.Sleep(2 * sim.Millisecond)
		for g := 0; g < d.Partitions(); g++ {
			if m.Holder(core.PartitionID(g)) < 0 {
				t.Errorf("partition %d was not re-granted after resume", g)
			}
		}
		done = true
	})
	if err := s.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("fencer did not finish")
	}
}

// TestProbeFallsBackWithoutLease: with no manager attached (or before the
// first grant) TryLocal must decline immediately and count a fallback.
func TestProbeFallsBackWithoutLease(t *testing.T) {
	s, d := build(t, 1, 3)
	m := lease.Attach(d, lease.Options{})
	m.Start()
	cl := d.NewClient()
	rc := lease.NewReadClient(cl, m)
	done := false
	s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(lease.DefaultStart / 2) // before the first grant
		if _, ok := rc.TryLocal(p, 0, regOID(0, 0)); ok {
			t.Error("local read succeeded without a lease")
		}
		done = true
	})
	if err := s.RunUntil(sim.Time(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("client did not finish")
	}
	if rc.Fallback != 1 {
		t.Errorf("fallbacks = %d, want 1", rc.Fallback)
	}
}
