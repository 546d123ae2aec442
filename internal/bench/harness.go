package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
)

// Options control a measurement run.
type Options struct {
	Warehouses int
	Replicas   int
	Scale      tpcc.Scale
	// ClientsPerPartition drives the closed loop; "enough to saturate"
	// per Section V-B for throughput runs, 1 for latency runs.
	ClientsPerPartition int
	Warmup              sim.Duration
	Window              sim.Duration
	Seed                int64
	// Workload shaping.
	LocalOnly       bool
	FixedPartitions int
	Mix             *tpcc.Mix
	// NullRequests replaces TPCC execution with empty requests that keep
	// the TPCC destination-set shape (Fig. 4's "Heron" series).
	NullRequests bool
	// CutoffDelay overrides the anti-lagger cut-off (negative = default).
	CutoffDelay sim.Duration
	// ExecWorkers enables the multi-threaded execution extension (>1).
	ExecWorkers int
	// Obs attaches the observability layer (span tracing + metrics) to
	// the deployment; nil leaves instrumentation on the disabled path.
	Obs *obs.Observer
}

// DefaultOptions returns throughput-run options for a warehouse count.
func DefaultOptions(warehouses int) Options {
	return Options{
		Warehouses:          warehouses,
		Replicas:            3,
		Scale:               tpcc.SmallScale(),
		ClientsPerPartition: 6,
		Warmup:              20 * sim.Millisecond,
		Window:              150 * sim.Millisecond,
		Seed:                1,
		CutoffDelay:         -1,
	}
}

// Layout builds the node layout for a deployment.
func Layout(warehouses, replicas int) [][]rdma.NodeID {
	return multicast.Layout(warehouses, replicas)
}

// storeCapacityFor sizes the per-replica store region for a scale.
func storeCapacityFor(scale tpcc.Scale) int {
	return scale.Items*store.SlotSize(tpcc.StockMaxBytes) +
		scale.DistrictsPerWH*scale.CustomersPerDistrict*store.SlotSize(tpcc.CustomerMaxBytes) +
		1<<16
}

// HeronRun is the outcome of one closed-loop measurement.
type HeronRun struct {
	Completed  int
	Throughput float64 // requests per second in the window (timed runs)
	Latency    *LatencyRecorder
	// LatencyByKind and latency split by request shape.
	LatencyByKind map[tpcc.TxnKind]*LatencyRecorder
	LatencySingle *LatencyRecorder
	LatencyMulti  *LatencyRecorder
	// StateTransfers and Skipped sum every Heron replica's counters
	// after the drain.
	StateTransfers uint64
	Skipped        uint64
	// Rows holds a counted run's requests in completion order.
	Rows []Row
}

// nullApp executes empty requests (no reads, no writes, no CPU), keeping
// only Heron's ordering + coordination path — Fig. 4's "Heron" series.
type nullApp struct{}

func (nullApp) ReadSet(req *core.Request) []store.OID { return nil }
func (nullApp) Execute(ctx *core.ExecContext) core.Outcome {
	return core.Outcome{Response: []byte{1}}
}

// BuildHeron constructs a started Heron deployment per the options.
func BuildHeron(s *sim.Scheduler, opt Options) (*core.Deployment, *tpcc.Dataset, error) {
	layout := Layout(opt.Warehouses, opt.Replicas)
	ds := tpcc.NewDataset(opt.Seed, opt.Warehouses, opt.Scale)
	cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
	cfg.StoreCapacity = storeCapacityFor(opt.Scale)
	if opt.NullRequests {
		cfg.StoreCapacity = 1 << 16
	}
	if opt.CutoffDelay >= 0 {
		cfg.CutoffDelay = opt.CutoffDelay
	}
	cfg.ExecWorkers = opt.ExecWorkers
	var factory core.AppFactory
	if opt.NullRequests {
		factory = func(part core.PartitionID, rank int) core.Application { return nullApp{} }
	} else {
		factory = tpcc.NewAppFactory(ds)
	}
	d, err := core.NewDeployment(s, cfg, factory, tpcc.Partitioner)
	if err != nil {
		return nil, nil, err
	}
	if !opt.NullRequests {
		err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
			return rep.App().(*tpcc.App).Populate(rep.Store())
		})
		if err != nil {
			return nil, nil, err
		}
		ds.DropImages()
	}
	d.Observe(opt.Obs)
	d.Start()
	return d, ds, nil
}

// RunHeron measures Heron under the configured TPCC workload: closed-loop
// clients, a warmup, then a measurement window.
func RunHeron(opt Options) (*HeronRun, error) { return runHeron(opt, 0, nil) }

// RunRequests runs each of opt's closed-loop clients for requests
// requests (at least one) and returns every one as a Row.
func RunRequests(opt Options, requests int) (*HeronRun, error) {
	return runHeron(opt, max(requests, 1), nil)
}

// traceSink keeps one replica's trace records by request id.
type traceSink map[multicast.MsgID]core.TraceRecord

func (t traceSink) RequestDone(part core.PartitionID, rank int, id multicast.MsgID, rec core.TraceRecord) {
	t[id] = rec
}

// runHeron builds opt's deployment, lets prepare install its hooks (a
// tracer, a slow replica), and drives its clients with runClosedLoop. A
// counted run's rows take their stages from rank 0 of the request's home
// partition: the replica that executes the whole transaction, as the
// paper's breakdown is traced.
func runHeron(opt Options, requests int, prepare func(d *core.Deployment)) (*HeronRun, error) {
	s := sim.NewScheduler()
	// Unwind the deployment's processes before handing memory back: a
	// parked process pins its coroutine and everything its stack reaches.
	defer releaseMemory()
	defer s.Close()
	d, _, err := BuildHeron(s, opt)
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(d)
	}
	var sinks []traceSink
	if requests > 0 {
		sinks = make([]traceSink, d.Partitions())
		for g := range sinks {
			sinks[g] = traceSink{}
			d.Replica(core.PartitionID(g), 0).SetTracer(sinks[g])
		}
	}
	run, err := runClosedLoop(s, opt, requests, func(int) submitFunc {
		cl := d.NewClient()
		return func(p *sim.Proc, txn *tpcc.Txn, parts []core.PartitionID) (multicast.MsgID, error) {
			_, err := cl.Submit(p, parts, txn.Encode())
			return cl.LastMsgID(), err
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range run.Rows {
		row := &run.Rows[i]
		if rec, ok := sinks[row.home][row.id]; ok {
			row.traced = true
			row.Ordering = sim.Duration(rec.Delivered - row.Submit)
			row.Coordination = rec.CoordPhase2 + rec.CoordPhase4
			row.Execution = rec.Exec
		}
	}
	for g := 0; g < d.Partitions(); g++ {
		for r := 0; r < opt.Replicas; r++ {
			rep := d.Replica(core.PartitionID(g), r)
			run.StateTransfers += rep.StateTransfers()
			run.Skipped += rep.Skipped()
		}
	}
	return run, nil
}

// releaseMemory returns freed heap to the OS between measurement runs;
// back-to-back deployments otherwise accumulate MADV_FREE'd pages that
// the OOM killer still counts.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runUntilDone advances virtual time in slices until the flag is set or
// the virtual deadline passes — long-lived background processes
// (heartbeats, control loops) would otherwise keep the event queue busy
// long after the measurement finished.
func runUntilDone(s *sim.Scheduler, done *bool, max sim.Duration) error {
	deadline := s.Now() + sim.Time(max)
	for !*done && s.Now() < deadline {
		if err := s.RunUntil(s.Now() + sim.Time(5*sim.Millisecond)); err != nil {
			return err
		}
	}
	if !*done {
		return fmt.Errorf("bench: run did not complete within %v of virtual time", max)
	}
	return nil
}
