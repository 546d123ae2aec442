package kvapp

import (
	"fmt"
	"math/rand"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Spec is what the verification harnesses' runs have in common: the
// client population, the deployment the workload runs on, and the seed
// of the fabric's faults and the clients' streams.
type Spec struct {
	// Harness names the run's errors and its client procs.
	Harness               string
	Clients, OpsPerClient int

	Groups [][]rdma.NodeID
	// MaxPartitions and MaxGroupSize reserve room for a reconfiguration
	// (0: the initial layout is the largest).
	MaxPartitions, MaxGroupSize int
	// Owner routes the workload's objects, StoreKeys sizes each replica's
	// store, and OIDs are the objects populated, in this order.
	Owner     core.Partitioner
	StoreKeys int
	OIDs      []store.OID
	ValBytes  int

	Seed int64
	Obs  *obs.Observer
}

// Run is a verification run brought up to the point where its harness
// attaches its own layers: the deployment is built, populated, seeded
// and observed, but not started.
type Run struct {
	D    *core.Deployment
	Apps core.AppFactory
	Hist *History
	spec Spec
}

// Deploy brings a run up, in this order: the history, the scheduler, the
// deployment of this package's application, its population, the fabric's
// fault seed and the observer. The caller must Close the run.
func Deploy(sp Spec) (*Run, error) {
	hist, err := NewHistory(sp.Harness, sp.Clients, sp.OpsPerClient)
	if err != nil {
		return nil, err
	}
	s := sim.NewScheduler()
	cfg := core.DefaultConfig(multicast.DefaultConfig(sp.Groups))
	cfg.StoreCapacity = SlotCapacity(sp.StoreKeys, sp.ValBytes)
	cfg.MaxPartitions = sp.MaxPartitions
	cfg.MaxGroupSize = sp.MaxGroupSize
	apps := New(sp.Owner, sp.ValBytes)
	d, err := core.NewDeployment(s, cfg, apps, sp.Owner)
	if err == nil {
		err = Populate(d, sp.Owner, sp.OIDs, sp.ValBytes)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	d.Fabric.SetFaultSeed(sp.Seed)
	d.Observe(sp.Obs)
	return &Run{D: d, Apps: apps, Hist: hist, spec: sp}, nil
}

// Close unwinds every proc of the run.
func (r *Run) Close() { r.D.Sched.Close() }

// An Op draws a client's next operation from its stream: the request the
// history records and the submission that runs it, which returns the
// observed sum or false on a timeout.
type Op func(p *sim.Proc, rng *rand.Rand) (*Req, func() (uint64, bool))

// Drive spawns the clients and runs the scheduler to horizon. For each
// client ci in turn, newClient(ci) builds its state and returns its Op;
// then the client's stream is seeded with Seed*1000+ci and its proc,
// "<harness>-client<ci>", runs OpsPerClient operations through the
// history, sleeping think(stream) after each one that completed.
func (r *Run) Drive(horizon sim.Duration, think func(*rand.Rand) sim.Duration, newClient func(ci int) Op) error {
	for ci := 0; ci < r.spec.Clients; ci++ {
		op := newClient(ci)
		rng := rand.New(rand.NewSource(r.spec.Seed*1000 + int64(ci)))
		r.D.Sched.Spawn(fmt.Sprintf("%s-client%d", r.spec.Harness, ci), func(p *sim.Proc) {
			for i := 0; i < r.spec.OpsPerClient; i++ {
				if req, submit := op(p, rng); r.Hist.Do(p, ci, req, submit) {
					p.Sleep(think(rng))
				}
			}
		})
	}
	return r.D.Sched.RunUntil(sim.Time(horizon))
}
