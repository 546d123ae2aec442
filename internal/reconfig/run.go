package reconfig

import (
	"fmt"
	"math/rand"
	"sort"

	"heron/internal/chaos"
	"heron/internal/core"
	"heron/internal/lincheck"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/persist"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// The verification workload: the same read-sum-write register machine the
// chaos harness checks, but with plain key-index OIDs (no partition bits)
// so that ownership is decided purely by the Configuration's routing table
// — the thing reconfiguration changes out from under the clients.

type rkvApp struct{}

func newRKVApp(core.PartitionID, int) core.Application { return &rkvApp{} }

type rkvReq struct {
	reads  []store.OID
	writes []store.OID
	add    uint64
}

func encodeRKVReq(r *rkvReq) []byte {
	w := wire.NewWriter(16 + 8*(len(r.reads)+len(r.writes)))
	w.U32(uint32(len(r.reads)))
	for _, oid := range r.reads {
		w.U64(uint64(oid))
	}
	w.U32(uint32(len(r.writes)))
	for _, oid := range r.writes {
		w.U64(uint64(oid))
	}
	w.U64(r.add)
	return w.Finish()
}

func decodeRKVReq(b []byte) *rkvReq {
	r := wire.NewReader(b)
	req := &rkvReq{}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		req.reads = append(req.reads, store.OID(r.U64()))
	}
	n = int(r.U32())
	for i := 0; i < n; i++ {
		req.writes = append(req.writes, store.OID(r.U64()))
	}
	req.add = r.U64()
	return req
}

func (a *rkvApp) ReadSet(req *core.Request) []store.OID {
	return decodeRKVReq(req.Payload).reads
}

func (a *rkvApp) Execute(ctx *core.ExecContext) core.Outcome {
	req := decodeRKVReq(ctx.Req.Payload)
	sum := req.add
	for _, oid := range req.reads {
		sum += decodeRKVVal(ctx.Values[oid])
	}
	out := core.Outcome{Response: encodeRKVVal(sum)}
	for _, oid := range req.writes {
		out.Writes = append(out.Writes, core.Write{OID: oid, Val: encodeRKVVal(sum)})
	}
	return out
}

func encodeRKVVal(v uint64) []byte {
	w := wire.NewWriter(8)
	w.U64(v)
	return w.Finish()
}

func decodeRKVVal(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return wire.NewReader(b).U64()
}

// rkvModel is the sequential specification for the checker. Routing is
// invisible here: linearizability of the history IS the "exactly one
// authoritative home per object" property — a request that observed a
// stale home would return a sum no sequential order explains.
func rkvModel() lincheck.Model {
	type state = map[store.OID]uint64
	clone := func(s state) state {
		c := make(state, len(s))
		for k, v := range s {
			c[k] = v
		}
		return c
	}
	return lincheck.Model{
		Init: func() any { return state{} },
		Step: func(st any, input any) (any, any) {
			s := st.(state)
			req := input.(*rkvReq)
			sum := req.add
			for _, oid := range req.reads {
				sum += s[oid]
			}
			c := clone(s)
			for _, oid := range req.writes {
				c[oid] = sum
			}
			return c, sum
		},
		Hash: func(st any) string {
			s := st.(state)
			keys := make([]store.OID, 0, len(s))
			for k := range s {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			out := ""
			for _, k := range keys {
				out += fmt.Sprintf("%d=%d;", k, s[k])
			}
			return out
		},
		EqualOutput: func(observed, model any) bool {
			return observed.(uint64) == model.(uint64)
		},
	}
}

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
// virtual-time intervals and checked for linearizability.
func Run(o Options) (*Report, error) {
	if n := o.Clients * o.OpsPerClient; n > 64 {
		return nil, fmt.Errorf("reconfig: %d operations exceed the checker's 64-op bound", n)
	}
	groups, routes, change, maxParts, maxGroup, err := scenarioLayout(o)
	if err != nil {
		return nil, err
	}
	initial := &Configuration{Epoch: 1, Groups: groups, Routes: routes}

	s := sim.NewScheduler()
	defer s.Close()
	cfg := core.DefaultConfig(multicast.DefaultConfig(groups))
	cfg.StoreCapacity = o.Keys*store.SlotSize(8) + 1<<12
	cfg.MaxPartitions = maxParts
	cfg.MaxGroupSize = maxGroup
	d, err := core.NewDeployment(s, cfg, newRKVApp, initial)
	if err != nil {
		return nil, err
	}
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		for k := 0; k < o.Keys; k++ {
			oid := store.OID(k)
			if initial.PartitionOf(oid) != part {
				continue
			}
			if err := rep.Store().Register(oid, 8); err != nil {
				return err
			}
			if err := rep.Store().Init(oid, encodeRKVVal(0)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
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
	mgr := NewManager(d, initial, ManagerOptions{Apps: newRKVApp, FenceTimeout: o.FenceTimeout, Obs: o.Obs, Seeder: seeder})
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

	var history []lincheck.Operation
	// Client procs run in virtual time: appends never race.
	routers := make([]*ClientRouter, o.Clients)
	for ci := 0; ci < o.Clients; ci++ {
		ci := ci
		cr := NewClientRouter(d.NewClient(), initial)
		routers[ci] = cr
		rng := rand.New(rand.NewSource(o.Seed*1000 + int64(ci)))
		s.Spawn(fmt.Sprintf("reconfig-client%d", ci), func(p *sim.Proc) {
			for i := 0; i < o.OpsPerClient; i++ {
				req := &rkvReq{add: uint64(rng.Intn(100))}
				for j := 0; j < rng.Intn(3); j++ {
					req.reads = append(req.reads, store.OID(rng.Intn(o.Keys)))
				}
				for j := 0; j < 1+rng.Intn(2); j++ {
					req.writes = append(req.writes, store.OID(rng.Intn(o.Keys)))
				}
				oids := append(append([]store.OID(nil), req.reads...), req.writes...)
				call := int64(p.Now())
				resp, ok := cr.SubmitTimeout(p, oids, encodeRKVReq(req), o.OpTimeout)
				rep.Ops++
				if !ok {
					rep.FailedOps++
					continue
				}
				history = append(history, lincheck.Operation{
					ClientID: ci,
					Input:    req,
					Output:   decodeRKVVal(resp),
					Call:     call,
					Return:   int64(p.Now()),
				})
				p.Sleep(sim.Duration(rng.Intn(2000)) * sim.Microsecond)
			}
		})
	}

	if err := s.RunUntil(sim.Time(o.Horizon)); err != nil {
		return nil, err
	}
	eng.Close()

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
	if pending := o.Clients*o.OpsPerClient - rep.Ops; pending > 0 {
		rep.Err = fmt.Sprintf("%d operations still in flight at the horizon", pending)
		return rep, nil
	}
	if rep.FailedOps > 0 {
		rep.Err = fmt.Sprintf("%d of %d operations timed out (degraded, unchecked)", rep.FailedOps, rep.Ops)
		return rep, nil
	}
	ok, cerr := lincheck.Check(rkvModel(), history)
	if cerr != nil {
		rep.Err = cerr.Error()
		return rep, nil
	}
	rep.Checked = true
	rep.Linearizable = ok
	return rep, nil
}
