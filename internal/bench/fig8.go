package bench

import (
	"fmt"
	"strings"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
)

// Fig8Row is one state-transfer measurement.
type Fig8Row struct {
	Label   string
	Bytes   int
	Latency sim.Duration
	Stddev  sim.Duration
	Runs    int
}

// Fig8Result is the full figure.
type Fig8Result struct {
	Rows []Fig8Row
	// FullWarehouse is the paper's worst case: recovering a complete
	// TPCC warehouse (Section V-E2). Zero if the run was skipped.
	FullWarehouseBytes   int
	FullWarehouseLatency sim.Duration
}

// blobApp carries configurable state for state-transfer measurements:
// registered slots model the serialized tables, the aux blob models the
// non-serialized (hash-map) tables that must be (de)serialized.
type blobApp struct {
	aux []byte
}

func (a *blobApp) ReadSet(req *core.Request) []store.OID { return nil }
func (a *blobApp) Execute(ctx *core.ExecContext) core.Outcome {
	return core.Outcome{Response: []byte{1}}
}
func (a *blobApp) SnapshotAux(fromTmp, toTmp uint64) []byte { return a.aux }
func (a *blobApp) ApplyAux(data []byte)                     { a.aux = data }

// blobSlotMax sizes one slot so a dual-versioned object occupies exactly
// 64 KiB (2 * (16 + max)).
const blobSlotMax = 32*1024 - 16

// measureTransfer builds a 1-partition/3-replica deployment whose state
// is `slots` 64 KiB dual-version slots plus auxBytes of auxiliary state,
// then measures a full state transfer onto the rank-2 replica, averaged
// over `runs` repetitions.
func measureTransfer(slots, auxBytes, runs int, o *obs.Observer) (Fig8Row, error) {
	rec := &LatencyRecorder{}
	for run := 0; run < runs; run++ {
		s := sim.NewScheduler()
		layout := Layout(1, 3)
		cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
		cfg.StoreCapacity = slots*store.SlotSize(blobSlotMax) + 4096
		cfg.AuxStagingCap = auxBytes + 4096
		factory := func(part core.PartitionID, rank int) core.Application {
			return &blobApp{aux: make([]byte, auxBytes)}
		}
		d, err := core.NewDeployment(s, cfg, factory, core.PartitionerFunc(func(store.OID) core.PartitionID { return 0 }))
		if err != nil {
			return Fig8Row{}, err
		}
		err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
			for i := 0; i < slots; i++ {
				if err := rep.Store().Register(store.OID(i+1), blobSlotMax); err != nil {
					return err
				}
				if err := rep.Store().Init(store.OID(i+1), make([]byte, blobSlotMax)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Fig8Row{}, err
		}
		d.Observe(o)
		d.Start()

		var lat sim.Duration
		done := false
		seed := sim.Duration(run) * 17 * sim.Microsecond // desynchronize control loops
		s.SpawnAfter(sim.Duration(sim.Millisecond)+seed, "lagger", func(p *sim.Proc) {
			t0 := p.Now()
			d.Replica(0, 2).RequestStateTransferFrom(p, 0)
			lat = sim.Duration(p.Now() - t0)
			done = true
		})
		if err := runUntilDone(s, &done, 30*sim.Second); err != nil {
			return Fig8Row{}, err
		}
		if lat == 0 {
			return Fig8Row{}, fmt.Errorf("state transfer did not complete (slots=%d aux=%d)", slots, auxBytes)
		}
		rec.Add(lat)
		s.Close()
		releaseMemory()
	}
	return Fig8Row{
		Bytes:   slots*store.SlotSize(blobSlotMax) + auxBytes,
		Latency: rec.Mean(),
		Stddev:  rec.Stddev(),
		Runs:    runs,
	}, nil
}

// RunFig8 regenerates Figure 8: state-transfer latency for the bare
// protocol, then 64 KB / 640 KB / 6.4 MB of serialized (registered
// slots) and non-serialized (auxiliary, requiring (de)serialization)
// state. When fullWarehouse is set it also measures the worst case: a
// complete TPCC warehouse at full scale.
func RunFig8(runs int, fullWarehouse bool, o *obs.Observer) (*Fig8Result, error) {
	if runs <= 0 {
		runs = 5
	}
	res := &Fig8Result{}
	cases := []struct {
		label string
		slots int
		aux   int
	}{
		{"Protocol", 0, 0},
		{"64KB serialized", 1, 0},
		{"64KB non-serialized", 0, 64 << 10},
		{"640KB serialized", 10, 0},
		{"640KB non-serialized", 0, 640 << 10},
		{"6.4MB serialized", 100, 0},
		{"6.4MB non-serialized", 0, 6400 << 10},
	}
	for i, c := range cases {
		row, err := measureTransfer(c.slots, c.aux, runs, o.Scope(fmt.Sprintf("fig8-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", c.label, err)
		}
		row.Label = c.label
		res.Rows = append(res.Rows, row)
	}
	if fullWarehouse {
		bytes, lat, err := measureFullWarehouse()
		if err != nil {
			return nil, fmt.Errorf("fig8 full warehouse: %w", err)
		}
		res.FullWarehouseBytes = bytes
		res.FullWarehouseLatency = lat
	}
	return res, nil
}

// measureFullWarehouse recovers a complete full-scale TPCC warehouse.
func measureFullWarehouse() (int, sim.Duration, error) {
	s := sim.NewScheduler()
	defer s.Close()
	scale := tpcc.FullScale()
	layout := Layout(1, 3)
	ds := tpcc.NewDataset(1, 1, scale)
	cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
	cfg.StoreCapacity = storeCapacityFor(scale)
	cfg.AuxStagingCap = 256 << 20
	d, err := core.NewDeployment(s, cfg, tpcc.NewAppFactory(ds), tpcc.Partitioner)
	if err != nil {
		return 0, 0, err
	}
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		return rep.App().(*tpcc.App).Populate(rep.Store())
	})
	if err != nil {
		return 0, 0, err
	}
	ds.DropImages()
	d.Start()

	var lat sim.Duration
	done := false
	s.SpawnAfter(sim.Duration(sim.Millisecond), "lagger", func(p *sim.Proc) {
		t0 := p.Now()
		d.Replica(0, 2).RequestStateTransferFrom(p, 0)
		lat = sim.Duration(p.Now() - t0)
		done = true
	})
	if err := runUntilDone(s, &done, 60*sim.Second); err != nil {
		return 0, 0, err
	}
	stBytes := d.Replica(0, 0).Store().Used()
	auxBytes := len(d.Replica(0, 0).App().(*tpcc.App).SnapshotAux(0, ^uint64(0)))
	return stBytes + auxBytes, lat, nil
}

// Format renders the figure.
func (r *Fig8Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 8: state transfer latency (mean ± stddev)\n")
	fmt.Fprintf(&b, "%-22s  %12s  %12s  %10s\n", "case", "bytes", "latency", "stddev")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s  %12d  %12s  %10s\n", row.Label, row.Bytes, fmtDur(row.Latency), fmtDur(row.Stddev))
	}
	if r.FullWarehouseLatency > 0 {
		fmt.Fprintf(&b, "\nfull TPCC warehouse recovery: %.2f MB in %s\n",
			float64(r.FullWarehouseBytes)/1e6, fmtDur(r.FullWarehouseLatency))
	}
	return b.String()
}
