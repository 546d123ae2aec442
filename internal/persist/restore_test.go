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
	l := Attach(d, &Options{Interval: 200 * sim.Microsecond})
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
