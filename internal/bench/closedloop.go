package bench

import (
	"fmt"
	"math"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/sim"
	"heron/internal/tpcc"
)

// drain is how long a timed run keeps simulating after its window
// closes: in-flight requests finish, and laggers finish catching up
// before the cut-off ablation counts state transfers and skips.
const drain = 50 * sim.Millisecond

// submitFunc sends one transaction for a closed-loop client and returns
// once the client may send the next, with the multicast id the replicas
// traced the request under.
type submitFunc func(p *sim.Proc, txn *tpcc.Txn, parts []core.PartitionID) (multicast.MsgID, error)

// Row is one request of a counted run: what its client saw, and the
// stages its home partition's rank-0 replica traced (zero when that
// replica traced nothing).
type Row struct {
	Kind         string       `json:"kind"`
	Partitions   int          `json:"partitions"`
	Submit       sim.Time     `json:"submit_ns"`
	Total        sim.Duration `json:"total_ns"`
	Ordering     sim.Duration `json:"ordering_ns"`
	Coordination sim.Duration `json:"coordination_ns"`
	Execution    sim.Duration `json:"execution_ns"`

	traced bool
	id     multicast.MsgID
	home   core.PartitionID
}

// runClosedLoop drives the closed-loop TPCC clients every harness here
// measures with. opt.ClientsPerPartition × opt.Warehouses clients each
// keep to home warehouse ci%Warehouses+1; ClientsPerPartition == 0 runs
// one client that roams every warehouse. Client ci draws its requests
// from seed opt.Seed+ci*7919, shaped by opt's LocalOnly,
// FixedPartitions and Mix, and newClient(ci) supplies how it submits.
//
// With requests == 0 the run is timed: clients stop at the end of the
// window, only requests submitted after the warm-up and completed within
// the window count, and the run drains before it returns. With
// requests > 0 each client runs that many requests to completion, and
// every one counts and is kept as a Row.
func runClosedLoop(s *sim.Scheduler, opt Options, requests int, newClient func(ci int) submitFunc) (*HeronRun, error) {
	run := &HeronRun{
		Latency:       &LatencyRecorder{},
		LatencyByKind: make(map[tpcc.TxnKind]*LatencyRecorder),
		LatencySingle: &LatencyRecorder{},
		LatencyMulti:  &LatencyRecorder{},
	}
	counted := requests > 0
	warmupEnd := sim.Time(opt.Warmup)
	measureEnd := warmupEnd + sim.Time(opt.Window)
	if counted {
		warmupEnd, measureEnd = 0, math.MaxInt64
	}
	nClients := max(opt.ClientsPerPartition*opt.Warehouses, 1)
	live := nClients
	done := false
	for ci := 0; ci < nClients; ci++ {
		submit := newClient(ci)
		w := tpcc.NewWorkload(opt.Seed+int64(ci)*7919, opt.Warehouses, opt.Scale)
		w.LocalOnly, w.FixedPartitions, w.Mix = opt.LocalOnly, opt.FixedPartitions, opt.Mix
		if opt.ClientsPerPartition > 0 {
			w.HomeWID = ci%opt.Warehouses + 1
		}
		s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			defer func() {
				live--
				done = live == 0
			}()
			for i := 0; !counted || i < requests; i++ {
				txn := w.Next()
				parts := txn.Partitions()
				t0 := p.Now()
				id, err := submit(p, txn, parts)
				if err != nil {
					return
				}
				t1 := p.Now()
				if t1 > measureEnd {
					return
				}
				if t0 < warmupEnd {
					continue
				}
				lat := sim.Duration(t1 - t0)
				run.record(txn.Kind, len(parts) > 1, lat)
				if counted {
					run.Rows = append(run.Rows, Row{
						Kind: txn.Kind.String(), Partitions: len(parts), Submit: t0, Total: lat,
						id: id, home: tpcc.PartitionOfWarehouse(int(txn.WID)),
					})
				}
			}
		})
	}
	if counted {
		if err := runUntilDone(s, &done, 60*sim.Second); err != nil {
			return nil, err
		}
		return run, nil
	}
	if err := s.RunUntil(measureEnd + sim.Time(drain)); err != nil {
		return nil, err
	}
	run.Throughput = Throughput(run.Completed, opt.Window)
	return run, nil
}

// record adds one counted request.
func (r *HeronRun) record(kind tpcc.TxnKind, multi bool, lat sim.Duration) {
	r.Completed++
	r.Latency.Add(lat)
	rec := r.LatencyByKind[kind]
	if rec == nil {
		rec = &LatencyRecorder{}
		r.LatencyByKind[kind] = rec
	}
	rec.Add(lat)
	if multi {
		r.LatencyMulti.Add(lat)
	} else {
		r.LatencySingle.Add(lat)
	}
}
