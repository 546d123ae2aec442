package bench

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/dynastar"
	"heron/internal/multicast"
	"heron/internal/sim"
	"heron/internal/tpcc"
)

// RunDynaStar measures the message-passing baseline under TPCC.
func RunDynaStar(opt Options) (*HeronRun, error) {
	s := sim.NewScheduler()
	defer s.Close()
	layout := Layout(opt.Warehouses, opt.Replicas)
	ds := tpcc.NewDataset(opt.Seed, opt.Warehouses, opt.Scale)
	cfg := dynastar.DefaultConfig(multicast.DefaultConfig(layout), 99999)
	newApp := func(part core.PartitionID, rank int) core.Application {
		app := tpcc.NewApp(part, ds, tpcc.DefaultCostModel())
		app.SetSingleExecutor(true)
		return app
	}
	d, err := dynastar.NewDeployment(s, cfg, newApp, tpcc.Router{})
	if err != nil {
		return nil, err
	}
	for g := range d.Replicas {
		for _, rep := range d.Replicas[g] {
			app := rep.App().(*tpcc.App)
			for _, obj := range app.InitialObjects() {
				rep.LoadObject(obj.OID, obj.Val)
			}
			app.PopulateAux()
		}
	}
	d.Start()

	run := &HeronRun{
		Latency:       &LatencyRecorder{},
		LatencyByKind: make(map[tpcc.TxnKind]*LatencyRecorder),
		LatencySingle: &LatencyRecorder{},
		LatencyMulti:  &LatencyRecorder{},
	}
	warmupEnd := sim.Time(opt.Warmup)
	measureEnd := warmupEnd + sim.Time(opt.Window)

	nClients := opt.ClientsPerPartition * opt.Warehouses
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		cl := d.NewClient()
		w := tpcc.NewWorkload(opt.Seed+int64(ci)*7919, opt.Warehouses, opt.Scale)
		w.LocalOnly = opt.LocalOnly
		w.Mix = opt.Mix
		w.HomeWID = ci%opt.Warehouses + 1
		s.Spawn(fmt.Sprintf("dyn-client%d", ci), func(p *sim.Proc) {
			for {
				txn := w.Next()
				t0 := p.Now()
				if _, err := cl.Submit(p, txn.Encode()); err != nil {
					return
				}
				t1 := p.Now()
				if t1 > measureEnd {
					return
				}
				if t0 >= warmupEnd {
					lat := sim.Duration(t1 - t0)
					run.Completed++
					run.Latency.Add(lat)
					if len(txn.Partitions()) > 1 {
						run.LatencyMulti.Add(lat)
					} else {
						run.LatencySingle.Add(lat)
					}
				}
			}
		})
	}
	if err := s.RunUntil(measureEnd + sim.Time(50*sim.Millisecond)); err != nil {
		return nil, err
	}
	run.Throughput = Throughput(run.Completed, opt.Window)
	releaseMemory()
	return run, nil
}
