package persist

import (
	"testing"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// A minimal register application for checkpoint integration tests:
// payload [oid u64][val u64] writes val into oid.

type ckptApp struct{}

func newCkptApp(core.PartitionID, int) core.Application { return ckptApp{} }

var ckptParter = core.PartitionerFunc(func(oid store.OID) core.PartitionID {
	return core.PartitionID(uint64(oid) >> 32)
})

func (ckptApp) ReadSet(*core.Request) []store.OID { return nil }

func (ckptApp) Execute(ctx *core.ExecContext) core.Outcome {
	r := wire.NewReader(ctx.Req.Payload)
	oid, val := store.OID(r.U64()), r.U64()
	w := wire.NewWriter(8)
	w.U64(val)
	v := w.Finish()
	return core.Outcome{Response: v, Writes: []core.Write{{OID: oid, Val: v}}}
}

// TestCheckpointRestore: a replica's checkpoint restores that replica
// itself (crash recovery) and seeds a different replica of the partition
// (the donor path a joiner takes); both legs install the checkpointed
// write and are counted.
func TestCheckpointRestore(t *testing.T) {
	s := sim.NewScheduler()
	layout := [][]rdma.NodeID{{1, 2, 3}}
	cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
	cfg.StoreCapacity = 4*store.SlotSize(8) + 1<<12
	d, err := core.NewDeployment(s, cfg, newCkptApp, ckptParter)
	if err != nil {
		t.Fatal(err)
	}
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		for k := uint32(0); k < 4; k++ {
			oid := store.OID(uint64(part)<<32 | uint64(k))
			if err := rep.Store().Register(oid, 8); err != nil {
				return err
			}
			w := wire.NewWriter(8)
			w.U64(0)
			if err := rep.Store().Init(oid, w.Finish()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l := Attach(d, nil)
	d.Start()

	done := false
	s.Spawn("driver", func(p *sim.Proc) {
		cl := d.NewClient()
		w := wire.NewWriter(16)
		w.U64(1) // oid p0/k1
		w.U64(99)
		if _, err := cl.Submit(p, []core.PartitionID{0}, w.Finish()); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		p.Sleep(1 * sim.Millisecond) // several checkpoint intervals

		c := l.Checkpointer(0, 0)
		if c.Stats().Checkpoints == 0 {
			t.Error("replica took no checkpoints")
			return
		}
		for rank, leg := range []string{"own", "donor"} {
			rep := d.Replica(0, rank)
			if snap, ok := c.Restore(p, rep); !ok || snap == 0 {
				t.Errorf("%s restore = (%d, %v), want a checkpoint", leg, snap, ok)
				return
			}
			val, _, ok := rep.Store().Get(1)
			if !ok || wire.NewReader(val).U64() != 99 {
				t.Errorf("%s restore: oid 1 = %v (ok %v), want 99", leg, val, ok)
			}
		}
		if st := c.Stats(); st.Restores != 2 || st.RestoreBytes == 0 {
			t.Errorf("restore stats = %d restores, %d bytes; want 2 and > 0", st.Restores, st.RestoreBytes)
		}
		done = true
	})
	if err := s.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("driver did not finish")
	}
}

// TestIdleMeansNothingMoves: once the layer reports Idle with no client
// writing, no later flush, compaction or manifest write changes its
// counters. Stepping through flushes and compactions also covers the
// window where the tree has installed a compaction's runs but is still
// writing the manifest, in which the tree alone shows no pending work.
// Each write dirties one more run, so across the write counts the last
// flush leaves every number of level-0 runs, a due compaction included.
func TestIdleMeansNothingMoves(t *testing.T) {
	for writes := uint64(13); writes <= 16; writes++ {
		idleAt, st := idleAfterWrites(t, writes)
		if idleAt == 0 || st.Compactions == 0 {
			t.Fatalf("%d writes: idle at %v after %d compactions; want idle after some compaction",
				writes, idleAt, st.Compactions)
		}
	}
}

// idleAfterWrites writes 1..writes into as many objects of one partition,
// one every 500 µs, checkpointed every DefaultInterval (400 µs) so that a
// compaction falls due well before its tick, and steps the scheduler 1 µs
// at a time. It returns
// when the layer first reported Idle after the last write and its
// counters then, failing t if they moved later.
func idleAfterWrites(t *testing.T, writes uint64) (sim.Time, LayerStats) {
	t.Helper()
	const writeEvery = 500 * sim.Microsecond
	s := sim.NewScheduler()
	defer s.Close()
	cfg := core.DefaultConfig(multicast.DefaultConfig([][]rdma.NodeID{{1, 2, 3}}))
	cfg.StoreCapacity = int(writes)*store.SlotSize(8) + 1<<12
	d, err := core.NewDeployment(s, cfg, newCkptApp, ckptParter)
	if err != nil {
		t.Fatal(err)
	}
	err = d.PopulateAll(func(_ core.PartitionID, _ int, rep *core.Replica) error {
		for oid := store.OID(0); oid < store.OID(writes); oid++ {
			if err := rep.Store().Register(oid, 8); err != nil {
				return err
			}
			if err := rep.Store().Init(oid, make([]byte, 8)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l := Attach(d, nil)
	d.Start()
	written := false
	s.Spawn("writer", func(p *sim.Proc) {
		cl := d.NewClient()
		defer func() { written = true }()
		for i := uint64(0); i < writes; i++ {
			p.Sleep(writeEvery)
			w := wire.NewWriter(16)
			w.U64(i)
			w.U64(i + 1)
			if _, err := cl.Submit(p, []core.PartitionID{0}, w.Finish()); err != nil {
				t.Error(err)
				return
			}
		}
	})
	const step = sim.Microsecond
	end := sim.Time(writes)*sim.Time(writeEvery) + sim.Time(2*sim.Millisecond)
	var idleAt sim.Time
	var idleStats LayerStats
	for now := sim.Time(step); now <= end; now += sim.Time(step) {
		if err := s.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		switch st := l.Stats(); {
		case idleAt != 0 && st != idleStats:
			t.Fatalf("%d writes: idle at %v with %+v, yet at %v: %+v", writes, idleAt, idleStats, now, st)
		case idleAt == 0 && written && l.Idle():
			idleAt, idleStats = now, st
		}
	}
	return idleAt, idleStats
}
