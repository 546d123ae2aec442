package reconfig

import (
	"fmt"
	"math/rand"

	"heron/internal/chaos"
	"heron/internal/core"
	"heron/internal/kvapp"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/persist"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Scenarios.
const (
	// ScenarioScaleOut grows both partitions from 3 to 5 replicas.
	ScenarioScaleOut = "scaleout"
	// ScenarioScaleIn shrinks both partitions from 5 to 3 replicas.
	ScenarioScaleIn = "scalein"
	// ScenarioSplit splits 2 partitions into 4, migrating half of each
	// partition's key range to a freshly created partition.
	ScenarioSplit = "split"
	// ScenarioCrash is ScenarioSplit with one replica crashing
	// mid-migration (driven through the chaos engine's reconfig event).
	ScenarioCrash = "crash"
)

// Scenarios lists the built-in scenarios.
var Scenarios = []string{ScenarioScaleOut, ScenarioScaleIn, ScenarioSplit, ScenarioCrash}

// Options configure one reconfiguration run.
type Options struct {
	Scenario string
	Seed     int64

	Keys         int
	Clients      int
	OpsPerClient int // Clients*OpsPerClient must stay within lincheck's 64-op bound

	OpTimeout    sim.Duration
	FenceTimeout sim.Duration
	Horizon      sim.Duration
	// ReconfigAt is the virtual instant the change is initiated; the
	// workload is tuned so client operations straddle it.
	ReconfigAt sim.Duration
	// CrashAt is when ScenarioCrash kills p0/r2 (defaults just after
	// ReconfigAt, landing mid-migration).
	CrashAt sim.Duration

	Obs *obs.Observer
	// Persist, when non-nil, attaches the durable checkpointing layer and
	// wires it as the manager's JoinerSeeder: joiners bring up from a
	// donor's checkpoint plus a delta transfer instead of the full state.
	Persist *persist.Options
}

// DefaultOptions sizes a scenario for the linearizability checker.
func DefaultOptions(scenario string, seed int64) Options {
	o := Options{
		Scenario:     scenario,
		Seed:         seed,
		Keys:         8,
		Clients:      3,
		OpsPerClient: 14,
		OpTimeout:    200 * sim.Millisecond,
		FenceTimeout: 100 * sim.Millisecond,
		Horizon:      3 * sim.Second,
		ReconfigAt:   5 * sim.Millisecond,
	}
	if scenario == ScenarioSplit || scenario == ScenarioCrash {
		o.Keys = 16
	}
	if scenario == ScenarioCrash {
		o.CrashAt = o.ReconfigAt + 200*sim.Microsecond
	}
	return o
}

// Report is the outcome of one reconfiguration run. Every field derives
// from virtual-clock state, so the same seed and options produce a
// byte-identical JSON encoding across runs.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	PartitionsBefore int `json:"partitions_before"`
	PartitionsAfter  int `json:"partitions_after"`
	ReplicasBefore   int `json:"replicas_before"`
	ReplicasAfter    int `json:"replicas_after"`

	EpochBefore    uint64 `json:"epoch_before"`
	EpochAfter     uint64 `json:"epoch_after"`
	Committed      bool   `json:"committed"`
	MovedObjects   int    `json:"moved_objects"`
	FencedReplicas int    `json:"fenced_replicas"`
	EpochRefreshes int    `json:"epoch_refreshes"`
	Crashes        int    `json:"crashes"`

	Ops       int `json:"ops"`
	FailedOps int `json:"failed_ops"`

	// CkptRecoveries counts replica bring-ups that restored a durable
	// checkpoint before their delta transfer (only with Options.Persist).
	CkptRecoveries uint64 `json:"checkpoint_recoveries,omitempty"`

	// Checked is false when some operations timed out (indeterminate
	// effects cannot be expressed to the checker); Linearizable is only
	// meaningful when Checked.
	Checked      bool `json:"checked"`
	Linearizable bool `json:"linearizable"`

	Err string `json:"error,omitempty"`
}

// scenarioLayout returns the initial topology and the change a scenario
// applies.
func scenarioLayout(o Options) (groups [][]rdma.NodeID, routes []Range, ch Change, maxParts, maxGroup int, err error) {
	half := store.OID(o.Keys / 2)
	routes = []Range{
		{Lo: 0, Hi: half - 1, Part: 0},
		{Lo: half, Hi: store.OID(o.Keys) - 1, Part: 1},
	}
	layout := func(parts, reps int) [][]rdma.NodeID {
		out := make([][]rdma.NodeID, parts)
		id := rdma.NodeID(1)
		for g := range out {
			for r := 0; r < reps; r++ {
				out[g] = append(out[g], id)
				id++
			}
		}
		return out
	}
	switch o.Scenario {
	case ScenarioScaleOut:
		groups = layout(2, 3)
		ch = Change{AddReplicas: []AddReplica{
			{Part: 0, Node: 101}, {Part: 0, Node: 102},
			{Part: 1, Node: 103}, {Part: 1, Node: 104},
		}}
		maxParts, maxGroup = 2, 5
	case ScenarioScaleIn:
		groups = layout(2, 5)
		ch = Change{RemoveReplicas: []RemoveReplicas{{Part: 0, Count: 2}, {Part: 1, Count: 2}}}
		maxParts, maxGroup = 2, 5
	case ScenarioSplit, ScenarioCrash:
		groups = layout(2, 3)
		quarter := store.OID(o.Keys / 4)
		ch = Change{
			AddPartitions: [][]rdma.NodeID{{201, 202, 203}, {204, 205, 206}},
			Moves: []Move{
				{Lo: half - quarter, Hi: half - 1, To: 2},
				{Lo: store.OID(o.Keys) - quarter, Hi: store.OID(o.Keys) - 1, To: 3},
			},
		}
		maxParts, maxGroup = 4, 3
	default:
		err = fmt.Errorf("reconfig: unknown scenario %q (have %v)", o.Scenario, Scenarios)
	}
	return
}

// Run executes one seeded reconfiguration scenario: concurrent clients
// drive the workload through epoch-aware routers while the manager applies
// the scenario's change mid-run; the full client history is recorded with
// virtual-time intervals and checked for linearizability. The workload's
// OIDs are plain key indices, so ownership is decided purely by the
// Configuration's routing table — the thing reconfiguration changes out
// from under the clients.
func Run(o Options) (*Report, error) {
	hist, err := kvapp.NewHistory("reconfig", o.Clients, o.OpsPerClient)
	if err != nil {
		return nil, err
	}
	groups, routes, change, maxParts, maxGroup, err := scenarioLayout(o)
	if err != nil {
		return nil, err
	}
	initial := &Configuration{Epoch: 1, Groups: groups, Routes: routes}

	s := sim.NewScheduler()
	defer s.Close()
	cfg := core.DefaultConfig(multicast.DefaultConfig(groups))
	cfg.StoreCapacity = kvapp.SlotCapacity(o.Keys, 8)
	cfg.MaxPartitions = maxParts
	cfg.MaxGroupSize = maxGroup
	apps := kvapp.New(initial, 8)
	d, err := core.NewDeployment(s, cfg, apps, initial)
	if err != nil {
		return nil, err
	}
	if err := kvapp.Populate(d, initial, kvapp.Keys(o.Keys), 8); err != nil {
		return nil, err
	}
	d.Fabric.SetFaultSeed(o.Seed)
	d.Observe(o.Obs)
	var seeder JoinerSeeder
	if o.Persist != nil {
		pl := persist.Attach(d, o.Persist)
		pl.Observe(o.Obs)
		seeder = pl
	}
	mgr := NewManager(d, initial, ManagerOptions{Apps: apps, FenceTimeout: o.FenceTimeout, Obs: o.Obs, Seeder: seeder})
	d.Start()

	rep := &Report{
		Scenario:         o.Scenario,
		Seed:             o.Seed,
		PartitionsBefore: len(groups),
		EpochBefore:      initial.Epoch,
	}
	for _, g := range groups {
		rep.ReplicasBefore += len(g)
	}

	// The change is initiated through the chaos engine's reconfig event,
	// so fault and reconfiguration schedules compose; ScenarioCrash adds a
	// crash landing mid-migration.
	events := []chaos.Event{{At: o.ReconfigAt, Kind: chaos.EvReconfig}}
	if o.Scenario == ScenarioCrash {
		events = append(events, chaos.Event{At: o.CrashAt, Kind: chaos.EvCrash, Part: 0, Rank: 2})
	}
	eng := chaos.Install(d, chaos.Schedule{Seed: o.Seed, Profile: "reconfig-" + o.Scenario, Events: events}, o.Obs)
	trigger := sim.NewCond(s)
	fired := false
	eng.Reconfig = func(chaos.Event) {
		fired = true
		trigger.Broadcast()
	}
	var result *Result
	var execErr error
	s.Spawn("reconfig-driver", func(p *sim.Proc) {
		trigger.WaitUntil(p, func() bool { return fired })
		result, execErr = mgr.Execute(p, change)
	})

	routers := make([]*ClientRouter, o.Clients)
	for ci := 0; ci < o.Clients; ci++ {
		ci := ci
		cr := NewClientRouter(d.NewClient(), initial)
		routers[ci] = cr
		rng := rand.New(rand.NewSource(o.Seed*1000 + int64(ci)))
		s.Spawn(fmt.Sprintf("reconfig-client%d", ci), func(p *sim.Proc) {
			for i := 0; i < o.OpsPerClient; i++ {
				req := &kvapp.Req{Add: uint64(rng.Intn(100))}
				for j := 0; j < rng.Intn(3); j++ {
					req.Reads = append(req.Reads, store.OID(rng.Intn(o.Keys)))
				}
				for j := 0; j < 1+rng.Intn(2); j++ {
					req.Writes = append(req.Writes, store.OID(rng.Intn(o.Keys)))
				}
				if hist.Do(p, ci, req, func() (uint64, bool) {
					resp, ok := cr.SubmitTimeout(p, req.OIDs(), req.Encode(), o.OpTimeout)
					return kvapp.DecodeVal(resp), ok
				}) {
					p.Sleep(sim.Duration(rng.Intn(2000)) * sim.Microsecond)
				}
			}
		})
	}

	if err := s.RunUntil(sim.Time(o.Horizon)); err != nil {
		return nil, err
	}
	eng.Close()

	rep.Ops, rep.FailedOps = hist.Ops, hist.Failed
	rep.PartitionsAfter = d.Partitions()
	for g := 0; g < d.Partitions(); g++ {
		rep.ReplicasAfter += len(d.Replicas[g])
		for _, r := range d.Replicas[g] {
			rep.CkptRecoveries += r.CheckpointRecoveries()
		}
	}
	rep.EpochAfter = mgr.Current().Epoch
	rep.Crashes = eng.Crashes
	if result != nil {
		rep.Committed = result.Committed
		rep.MovedObjects = result.Moved
		rep.FencedReplicas = result.Fenced
	}
	for _, cr := range routers {
		rep.EpochRefreshes += cr.Refreshes
	}
	switch {
	case execErr != nil:
		rep.Err = execErr.Error()
		return rep, nil
	case result == nil:
		rep.Err = "reconfiguration still in flight at the horizon"
		return rep, nil
	}
	rep.Checked, rep.Linearizable, rep.Err = hist.Verdict()
	return rep, nil
}
