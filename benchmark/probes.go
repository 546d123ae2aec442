package main

import (
	"fmt"
	"math/rand"
	"time"

	"heron/internal/bench"
	"heron/internal/lincheck"
	"heron/internal/lsm"
	"heron/internal/persist"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
)

// probes times single layers in isolation through their public
// functions (source P in README.md). They run on every traced
// invocation, whatever the workload, so a layer's unit cost is on
// record beside the workload in which it matters. Sizes shrink with
// the run's scale, down to a floor that still takes milliseconds.
func probes(cfg config, out map[string]float64) error {
	for _, probe := range []func(config, map[string]float64) error{
		probeSim, probeRDMA, probeMulticast, probeStore, probeTPCC, probeLSM, probeLincheck,
	} {
		if err := probe(cfg, out); err != nil {
			return err
		}
	}
	return nil
}

// probeSize scales a probe's full-size operation count.
func (c config) probeSize(full int) int {
	if n := int(float64(full) * c.scale); n > full/50 {
		return n
	}
	return full / 50
}

// nsPer is host nanoseconds per operation.
func nsPer(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// probeSim times the kernel's two primitives: a chain of Scheduler.At
// events, each scheduling the next, and two procs handing a token back
// and forth over sim.Chan — one goroutine switch per hand-off.
func probeSim(cfg config, out map[string]float64) error {
	events := cfg.probeSize(2_000_000)
	s := sim.NewScheduler()
	left := events
	var next func()
	next = func() {
		if left--; left > 0 {
			s.After(sim.Nanosecond, next)
		}
	}
	s.After(sim.Nanosecond, next)
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return err
	}
	out["sim.host_ns_per_event"] = nsPer(time.Since(t0), events)

	trips := cfg.probeSize(200_000)
	s = sim.NewScheduler()
	ping, pong := sim.NewChan[int](s), sim.NewChan[int](s)
	s.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
		ping.Close()
	})
	s.Spawn("pong", func(p *sim.Proc) {
		for {
			if _, ok := ping.Recv(p); !ok {
				return
			}
			pong.Send(0)
		}
	})
	t0 = time.Now()
	if err := s.Run(); err != nil {
		return err
	}
	out["sim.host_ns_per_switch"] = nsPer(time.Since(t0), 2*trips)
	return nil
}

// probeRDMA times blocking 64-byte one-sided READs between two nodes.
func probeRDMA(cfg config, out map[string]float64) error {
	reads := cfg.probeSize(200_000)
	s := sim.NewScheduler()
	fab := rdma.NewFabric(s, rdma.DefaultConfig())
	fab.AddNode(1)
	region := fab.AddNode(2).RegisterRegion(4096)
	qp := fab.Connect(1, 2)
	var readErr error
	var virtual sim.Duration
	s.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < reads; i++ {
			if _, readErr = qp.Read(p, region.Addr(0), 64); readErr != nil {
				return
			}
		}
		virtual = sim.Duration(p.Now())
	})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}
	out["rdma.host_ns_per_read"] = nsPer(time.Since(t0), reads)
	out["rdma.v_read_64b_us"] = us(virtual) / float64(reads)
	return nil
}

// probeMulticast runs the atomic multicast alone (bench.RunRamcast:
// 4 groups x 3 replicas, closed loop, TPCC-shaped destinations).
func probeMulticast(cfg config, out map[string]float64) error {
	opt := bench.DefaultOptions(4)
	opt.Seed = cfg.seed
	opt.Warmup = cfg.scaled(5 * sim.Millisecond)
	opt.Window = cfg.scaled(30 * sim.Millisecond)
	t0 := time.Now()
	run, err := bench.RunRamcast(opt)
	if err != nil {
		return err
	}
	if run.Completed == 0 {
		return fmt.Errorf("multicast probe: no message completed in %v", opt.Window)
	}
	out["multicast.host_us_per_msg"] = nsPer(time.Since(t0), run.Completed) / 1e3
	out["multicast.v_tput_rps"] = run.Throughput
	out["multicast.v_lat_p50_us"] = us(run.Latency.Percentile(50))
	return nil
}

// probeStore times the dual-version store's read and write of 256-byte
// objects.
func probeStore(cfg config, out map[string]float64) error {
	const objects, size = 1024, 256
	ops := cfg.probeSize(2_000_000)
	node := rdma.NewFabric(sim.NewScheduler(), rdma.DefaultConfig()).AddNode(1)
	st := store.New(node, objects*store.SlotSize(size))
	val := make([]byte, size)
	for i := 0; i < objects; i++ {
		if err := st.Register(store.OID(i), size); err != nil {
			return err
		}
		if err := st.Init(store.OID(i), val); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if err := st.Set(store.OID(i%objects), val, uint64(i+1)); err != nil {
			return err
		}
	}
	out["store.host_ns_per_set"] = nsPer(time.Since(t0), ops)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, _, ok := st.GetAt(store.OID(i%objects), uint64(ops)); !ok {
			return fmt.Errorf("store probe: object %d unreadable", i%objects)
		}
	}
	out["store.host_ns_per_get"] = nsPer(time.Since(t0), ops)
	return nil
}

// probeTPCC times the application's two pure-CPU costs: generating and
// encoding a request, and a customer row's encode/decode round trip.
func probeTPCC(cfg config, out map[string]float64) error {
	scale := tpcc.SmallScale()
	ops := cfg.probeSize(500_000)
	w := tpcc.NewWorkload(1, 4, scale)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if len(w.Next().Encode()) == 0 {
			return fmt.Errorf("tpcc probe: empty request")
		}
	}
	out["tpcc.host_ns_per_gen"] = nsPer(time.Since(t0), ops)
	cust := tpcc.NewDataset(1, 4, scale).GenCustomer(1, 1, 1)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, err := tpcc.DecodeCustomer(tpcc.EncodeCustomer(cust)); err != nil {
			return err
		}
	}
	out["tpcc.host_ns_per_codec"] = nsPer(time.Since(t0), ops)
	return nil
}

// probeLSM times memtable flushes (with the compactions they trigger)
// and point reads on an lsm.Tree over a persist.Disk.
func probeLSM(cfg config, out map[string]float64) error {
	const perFlush, size = 64, 256
	flushes := cfg.probeSize(400)
	gets := cfg.probeSize(200_000)
	s := sim.NewScheduler()
	var probeErr error
	s.Spawn("lsm-probe", func(p *sim.Proc) {
		tree, err := lsm.NewTree(persist.LSMDevice(persist.NewDisk(persist.DiskConfig{})), lsm.Config{})
		if err != nil {
			probeErr = err
			return
		}
		var tmp uint64
		t0 := time.Now()
		for f := 0; f < flushes; f++ {
			mt := lsm.NewMemtable()
			for i := 0; i < perFlush; i++ {
				tmp++
				mt.Insert(store.OID((f*perFlush+i*7)%4096), tmp, make([]byte, size))
			}
			if _, ok := tree.Flush(p, mt, tmp, nil, nil, nil); !ok {
				probeErr = fmt.Errorf("lsm probe: flush %d failed", f)
				return
			}
			for tree.NeedsCompaction() {
				if _, ok := tree.CompactOnce(p, nil); !ok {
					break
				}
			}
		}
		out["lsm.host_us_per_flush"] = nsPer(time.Since(t0), flushes) / 1e3
		t0 = time.Now()
		for i := 0; i < gets; i++ {
			tree.Get(p, store.OID(i%4096))
		}
		out["lsm.host_ns_per_get"] = nsPer(time.Since(t0), gets)
	})
	if err := s.Run(); err != nil {
		return err
	}
	return probeErr
}

// probeLincheck times the linearizability checker on a 42-operation
// register history with three concurrent clients, the shape every chaos
// schedule hands it.
func probeLincheck(cfg config, out map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	var history []lincheck.Operation
	var sum int64
	for i := 0; i < 42; i++ {
		// Calls are in sequence and each operation overlaps the next
		// two, so issue order is one valid linearization among those
		// the checker has to search.
		arg := int64(rng.Intn(100))
		sum += arg
		history = append(history, lincheck.Operation{
			ClientID: i % 3,
			Input:    lincheck.RegisterOp{Kind: "add", Key: "k", Arg: arg},
			Output:   sum,
			Call:     int64(2 * i),
			Return:   int64(2*i + 5),
		})
	}
	checks := cfg.probeSize(2_000)
	t0 := time.Now()
	for i := 0; i < checks; i++ {
		ok, err := lincheck.Check(lincheck.RegisterModel(), history)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("lincheck probe: linearizable history rejected")
		}
	}
	out["lincheck.host_us_per_check"] = nsPer(time.Since(t0), checks) / 1e3
	return nil
}
