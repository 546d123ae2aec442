package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"heron/internal/core"
	"heron/internal/kvapp"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rebalance"
	"heron/internal/reconfig"
	"heron/internal/sim"
	"heron/internal/store"
)

// Rebalance benchmark: does the closed-loop controller actually recover
// the tail? A closed-loop client population drives a two-partition
// deployment whose hotspot shifts (or erupts) mid-run; the same seeded
// workload runs once with the controller off and once with it on, and
// the per-interval p99 series shows whether splitting the hot range
// brought the tail back down — and how long that took.

// Rebalance bench scenarios.
const (
	// BenchHotShift parks 90% of the load on partition 0's head keys,
	// then shifts the hotspot to partition 1's head at ShiftAt. With the
	// controller on, the first hotspot is shed during the pre-shift
	// phase and the second one after the shift — the benchmark scores
	// the second recovery.
	BenchHotShift = "hotshift"
	// BenchFlash runs uniform load until ShiftAt, when a flash crowd
	// concentrates 80% of submissions on four keys of partition 0.
	BenchFlash = "flash"
)

// RebalanceScenarios lists the benchmark scenarios.
var RebalanceScenarios = []string{BenchHotShift, BenchFlash}

// The rebalance bench's fixed workload.
const (
	rebalKeys = 64
	// rebalExecCost is the modeled per-request execution CPU: the serial
	// resource that makes a hot partition queue.
	rebalExecCost = 2 * sim.Microsecond
	// rebalThink is the mean closed-loop client think time.
	rebalThink        = 20 * sim.Microsecond
	rebalOpTimeout    = 20 * sim.Millisecond
	rebalFenceTimeout = 10 * sim.Millisecond
)

// RebalanceOptions configure one off/on benchmark pair.
type RebalanceOptions struct {
	Scenario string
	Seed     int64

	Clients int

	Window  sim.Duration // measurement window; clients stop at the end
	ShiftAt sim.Duration // hotspot shift instant
	// Interval buckets completions for the per-interval p99 series.
	Interval sim.Duration

	Obs *obs.Observer
}

// DefaultRebalanceOptions sizes a scenario so one run finishes in
// seconds of wall clock.
func DefaultRebalanceOptions(scenario string, seed int64) RebalanceOptions {
	return RebalanceOptions{
		Scenario: scenario,
		Seed:     seed,
		Clients:  32,
		Window:   40 * sim.Millisecond,
		ShiftAt:  16 * sim.Millisecond,
		Interval: 2 * sim.Millisecond,
	}
}

// benchRebalancePolicy is the controller policy the benchmark runs
// under: shed a partition 30% above the mean onto one below 85% of it,
// at most 8 changes, and never beyond two partitions (moves and splits
// only: no spare nodes here). The cadence, hysteresis and cooldown are
// the rebalancer's own: decide every millisecond, act after two hot
// ticks, at most one change per 3ms.
func benchRebalancePolicy() rebalance.Policy {
	return rebalance.Policy{HotRatio: 1.3, ColdRatio: 0.85, MinRate: 1000, MaxChanges: 8, MaxPartitions: 2}
}

// RebalanceRunStats is the outcome of one run (controller off or on).
// Every field derives from virtual-clock state: same seed, same bytes.
type RebalanceRunStats struct {
	Rebalance bool  `json:"rebalance"`
	Ops       int   `json:"ops"`
	FailedOps int   `json:"failed_ops"`
	MeanNS    int64 `json:"mean_ns"`
	P99NS     int64 `json:"p99_ns"`

	// PreShiftP99NS is the p99 over the settled half of the pre-shift
	// phase (the recovery threshold derives from it); TailP99NS the p99
	// over the final quarter of the window — where the shift either got
	// absorbed or didn't.
	PreShiftP99NS int64 `json:"pre_shift_p99_ns"`
	TailP99NS     int64 `json:"tail_p99_ns"`
	// RecoveryNS is the virtual time from the shift until the start of
	// two consecutive intervals whose p99 is back within 1.5x of the
	// pre-shift p99 (-1 = never recovered inside the window).
	RecoveryNS int64 `json:"recovery_ns"`

	IntervalP99NS []int64 `json:"interval_p99_ns"`
	IntervalOps   []int   `json:"interval_ops"`

	ChangesApplied int                     `json:"changes_applied"`
	ChangesAborted int                     `json:"changes_aborted"`
	Decisions      []rebalance.Decision    `json:"decisions,omitempty"`
	Mig            reconfig.MigrationStats `json:"migration"`
	EpochAfter     uint64                  `json:"epoch_after"`
	Errors         []string                `json:"errors,omitempty"`
}

// RebalanceResult pairs the controller-off and controller-on runs of
// one seeded scenario.
type RebalanceResult struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Keys     int    `json:"keys"`
	Clients  int    `json:"clients"`

	WindowNS   int64 `json:"window_ns"`
	ShiftNS    int64 `json:"shift_ns"`
	IntervalNS int64 `json:"interval_ns"`

	Off RebalanceRunStats `json:"off"`
	On  RebalanceRunStats `json:"on"`

	// Improved is the CI gate: the controller committed at least one
	// change and the on-run's tail p99 beats the off-run's.
	Improved bool `json:"improved"`
}

// rebalApp executes blind single-key writes costing rebalExecCost; the
// payload is the 8-byte target OID. HeatKey is the OID itself, as the
// planner's split boundaries require (core.HeatKeyer).
type rebalApp struct{}

func (a rebalApp) ReadSet(req *core.Request) []store.OID { return nil }

func (a rebalApp) Execute(ctx *core.ExecContext) core.Outcome {
	oid := store.OID(binary.LittleEndian.Uint64(ctx.Req.Payload[:8]))
	return core.Outcome{
		Response: []byte{1},
		Writes:   []core.Write{{OID: oid, Val: ctx.Req.Payload[:8]}},
		CPU:      rebalExecCost,
	}
}

func (a rebalApp) HeatKey(req *core.Request) uint64 {
	return binary.LittleEndian.Uint64(req.Payload[:8])
}

// pickRebalanceKey draws one key for a scenario phase.
func pickRebalanceKey(scenario string, shifted bool, rng *rand.Rand, keys int) store.OID {
	half := keys / 2
	switch scenario {
	case BenchFlash:
		if shifted && rng.Intn(100) < 80 {
			return store.OID(rng.Intn(4))
		}
		return store.OID(rng.Intn(keys))
	default: // BenchHotShift
		head := 0
		if shifted {
			head = half
		}
		if rng.Intn(100) < 90 {
			return store.OID(head + rng.Intn(4))
		}
		return store.OID(rng.Intn(keys))
	}
}

// RunRebalance executes the off/on pair for one seeded scenario.
func RunRebalance(o RebalanceOptions) (*RebalanceResult, error) {
	known := false
	for _, sc := range RebalanceScenarios {
		known = known || sc == o.Scenario
	}
	if !known {
		return nil, fmt.Errorf("rebalance bench: unknown scenario %q (have %v)", o.Scenario, RebalanceScenarios)
	}
	if o.Interval <= 0 || o.Window <= 0 || o.ShiftAt <= 0 || o.ShiftAt >= o.Window {
		return nil, fmt.Errorf("rebalance bench: need 0 < shift < window and a positive interval")
	}

	res := &RebalanceResult{
		Scenario:   o.Scenario,
		Seed:       o.Seed,
		Keys:       rebalKeys,
		Clients:    o.Clients,
		WindowNS:   int64(o.Window),
		ShiftNS:    int64(o.ShiftAt),
		IntervalNS: int64(o.Interval),
	}
	off, err := runRebalanceOnce(o, false)
	if err != nil {
		return nil, err
	}
	on, err := runRebalanceOnce(o, true)
	if err != nil {
		return nil, err
	}
	res.Off, res.On = *off, *on
	res.Improved = on.ChangesApplied > 0 && on.TailP99NS > 0 &&
		off.TailP99NS > 0 && on.TailP99NS < off.TailP99NS
	return res, nil
}

// runRebalanceOnce runs the seeded workload with the controller off or
// on and scores the latency series.
func runRebalanceOnce(o RebalanceOptions, on bool) (*RebalanceRunStats, error) {
	const maxParts, groupSize = 2, 3
	groups := multicast.Layout(2, groupSize)
	initial := reconfig.Halves(groups, rebalKeys)
	newApp := func(core.PartitionID, int) core.Application { return rebalApp{} }

	s := sim.NewScheduler()
	defer releaseMemory()
	defer s.Close()
	cfg := core.DefaultConfig(multicast.DefaultConfig(groups))
	cfg.StoreCapacity = kvapp.SlotCapacity(rebalKeys, 8)
	cfg.MaxPartitions = maxParts
	cfg.MaxGroupSize = groupSize
	d, err := core.NewDeployment(s, cfg, newApp, initial)
	if err != nil {
		return nil, err
	}
	if err := kvapp.Populate(d, initial, kvapp.Keys(rebalKeys), 8); err != nil {
		return nil, err
	}
	d.Fabric.SetFaultSeed(o.Seed)

	// Both runs carry the full reconfiguration plane (the manager installs
	// the replicas' epochs, so epoch-tagged submissions clear fencing);
	// only the on-run attaches the controller.
	stats := &RebalanceRunStats{Rebalance: on}
	obsv := o.Obs
	if on && obsv.Heat() == nil {
		obsv = obs.WithHeat(obsv, obs.NewHeat(maxParts, 250*sim.Microsecond, 8))
	}
	d.Observe(obsv)
	mgr := reconfig.NewManager(d, initial, reconfig.ManagerOptions{
		Apps: newApp, FenceTimeout: rebalFenceTimeout, Obs: obsv,
	})
	var ctl *rebalance.Controller
	if on {
		ctl = rebalance.New(mgr, obsv.Heat(), benchRebalancePolicy())
		ctl.Observe(obsv)
		ctl.Until = sim.Time(o.Window)
	}
	d.Start()
	if ctl != nil {
		ctl.Start(s)
	}

	// Completion-time latency buckets: the per-interval p99 series the
	// recovery score reads off.
	intervals := int(o.Window / o.Interval)
	recs := make([]*LatencyRecorder, intervals)
	for i := range recs {
		recs[i] = &LatencyRecorder{}
	}
	overall := &LatencyRecorder{}

	horizon := sim.Time(o.Window)
	for ci := 0; ci < o.Clients; ci++ {
		ci := ci
		cr := reconfig.NewClientRouter(d.NewClient(), initial)
		rng := rand.New(rand.NewSource(o.Seed*1000 + int64(ci)))
		s.Spawn(fmt.Sprintf("rb-client%d", ci), func(p *sim.Proc) {
			payload := make([]byte, 8)
			for p.Now() < horizon {
				key := pickRebalanceKey(o.Scenario, p.Now() >= sim.Time(o.ShiftAt), rng, rebalKeys)
				binary.LittleEndian.PutUint64(payload, uint64(key))
				call := p.Now()
				_, ok := cr.SubmitTimeout(p, []store.OID{key}, payload, rebalOpTimeout)
				stats.Ops++
				if !ok {
					stats.FailedOps++
					continue
				}
				done := p.Now()
				lat := sim.Duration(done - call)
				overall.Add(lat)
				idx := int(done / sim.Time(o.Interval))
				if idx >= intervals {
					idx = intervals - 1
				}
				recs[idx].Add(lat)
				p.Sleep(sim.Duration(1+rng.Int63n(2*int64(rebalThink))) * sim.Nanosecond)
			}
		})
	}

	if err := s.RunUntil(horizon + sim.Time(5*sim.Millisecond)); err != nil {
		return nil, err
	}

	if overall.Count() > 0 {
		stats.MeanNS = int64(overall.Mean())
		stats.P99NS = int64(overall.Percentile(99))
	}
	stats.IntervalP99NS = make([]int64, intervals)
	stats.IntervalOps = make([]int, intervals)
	for i, r := range recs {
		stats.IntervalOps[i] = r.Count()
		if r.Count() > 0 {
			stats.IntervalP99NS[i] = int64(r.Percentile(99))
		}
	}

	// Pre-shift baseline: the settled second half of the pre-shift phase
	// (with the controller on, the first shed has landed by then).
	shiftIdx := int(o.ShiftAt / o.Interval)
	stats.PreShiftP99NS = mergedP99(recs[shiftIdx/2 : shiftIdx])
	stats.TailP99NS = mergedP99(recs[intervals-intervals/4:])

	// Recovery: two consecutive post-shift intervals back within 1.5x of
	// the pre-shift p99.
	stats.RecoveryNS = -1
	if thr := stats.PreShiftP99NS + stats.PreShiftP99NS/2; thr > 0 {
		for i := shiftIdx; i < intervals-1; i++ {
			if intervalRecovered(recs[i], stats.IntervalP99NS[i], thr) &&
				intervalRecovered(recs[i+1], stats.IntervalP99NS[i+1], thr) {
				stats.RecoveryNS = int64(i)*int64(o.Interval) - int64(o.ShiftAt)
				if stats.RecoveryNS < 0 {
					stats.RecoveryNS = 0
				}
				break
			}
		}
	}

	stats.EpochAfter = mgr.Current().Epoch
	stats.Mig = mgr.TotalMig
	if ctl != nil {
		stats.ChangesApplied = ctl.Applied
		stats.ChangesAborted = ctl.Aborted
		stats.Decisions = ctl.ActingLog()
		stats.Errors = ctl.Errors
	}
	return stats, nil
}

// mergedP99 merges interval recorders and returns their p99 (0 when
// empty).
func mergedP99(recs []*LatencyRecorder) int64 {
	m := &LatencyRecorder{}
	for _, r := range recs {
		for _, s := range r.Samples() {
			m.Add(s)
		}
	}
	if m.Count() == 0 {
		return 0
	}
	return int64(m.Percentile(99))
}

// intervalRecovered reports whether one interval counts as recovered.
func intervalRecovered(r *LatencyRecorder, p99, thr int64) bool {
	return r.Count() > 0 && p99 <= thr
}

// RebalanceSweep is the `heron-bench rebalance` payload: the off/on
// benchmark pairs plus the linearizability verification runs (including
// the mid-rebalance crash scenarios).
type RebalanceSweep struct {
	Bench  []*RebalanceResult  `json:"bench,omitempty"`
	Verify []*rebalance.Report `json:"verify,omitempty"`
}

// RunRebalanceSweep runs the benchmark pairs and verification scenarios.
// scenario filters to one benchmark scenario (hotshift, flash) or one
// verification scenario (skew, scaleout, feedercrash, donorcrash);
// empty runs everything.
func RunRebalanceSweep(scenario string, seed int64, o *obs.Observer) (*RebalanceSweep, error) {
	benchScenarios := RebalanceScenarios
	verifyScenarios := rebalance.Scenarios
	if scenario != "" {
		benchScenarios, verifyScenarios = nil, nil
		for _, sc := range RebalanceScenarios {
			if sc == scenario {
				benchScenarios = []string{sc}
			}
		}
		for _, sc := range rebalance.Scenarios {
			if sc == scenario {
				verifyScenarios = []string{sc}
			}
		}
		if len(benchScenarios) == 0 && len(verifyScenarios) == 0 {
			return nil, fmt.Errorf("rebalance: unknown scenario %q (bench %v, verify %v)",
				scenario, RebalanceScenarios, rebalance.Scenarios)
		}
	}
	sweep := &RebalanceSweep{}
	for _, sc := range benchScenarios {
		opts := DefaultRebalanceOptions(sc, seed)
		opts.Obs = o
		res, err := RunRebalance(opts)
		if err != nil {
			return nil, err
		}
		sweep.Bench = append(sweep.Bench, res)
	}
	for _, sc := range verifyScenarios {
		rep, err := rebalance.Run(rebalance.Options{Scenario: sc, Seed: seed, Obs: o})
		if err != nil {
			return nil, err
		}
		sweep.Verify = append(sweep.Verify, rep)
	}
	return sweep, nil
}

// verifySafe reports whether one verification run counts as safe: a
// checked-linearizable history, or a cleanly degraded one (timed-out
// operations under injected faults) — never a violation.
func verifySafe(r *rebalance.Report) bool {
	if r.Checked {
		return r.Linearizable
	}
	return r.FailedOps > 0
}

// Gate is the CI pass condition: every benchmark pair improved the tail
// and recovered against a frozen off leg (no change applied), neither leg
// reported controller errors, every verification run is safe, and the
// fault-free verification scenarios actually rebalanced under a checked
// history.
func (r *RebalanceSweep) Gate() bool {
	for _, b := range r.Bench {
		if !b.Improved || b.On.RecoveryNS < 0 || b.Off.ChangesApplied != 0 ||
			len(b.On.Errors) > 0 || len(b.Off.Errors) > 0 {
			return false
		}
	}
	for _, v := range r.Verify {
		if !verifySafe(v) {
			return false
		}
		if v.Scenario == rebalance.ScenarioSkew || v.Scenario == rebalance.ScenarioScaleOut {
			if !v.Checked || v.ChangesApplied == 0 {
				return false
			}
		}
	}
	return true
}

// Format renders the sweep.
func (r *RebalanceSweep) Format() string {
	var b strings.Builder
	for _, res := range r.Bench {
		b.WriteString(res.Format())
	}
	if len(r.Verify) > 0 {
		fmt.Fprintf(&b, "verification (lincheck under live rebalancing):\n")
		fmt.Fprintf(&b, "%-14s %6s %6s %8s %8s %8s %8s  %s\n",
			"scenario", "parts", "epoch", "changes", "crashes", "ops", "failed", "verdict")
		for _, v := range r.Verify {
			fmt.Fprintf(&b, "%-14s %2d->%-3d %2d->%-3d %8d %8d %8d %8d  %s\n",
				v.Scenario, v.PartitionsBefore, v.PartitionsAfter,
				v.EpochBefore, v.EpochAfter,
				v.ChangesApplied, v.Crashes, v.Ops, v.FailedOps, verdict(v.Checked, v.Linearizable))
		}
	}
	fmt.Fprintf(&b, "gate (tails improved, histories safe): %v\n", r.Gate())
	return b.String()
}

// Format renders the off/on comparison as a table.
func (r *RebalanceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rebalance bench: %s (seed %d, %d keys, %d clients, shift @ %s, window %s)\n",
		r.Scenario, r.Seed, r.Keys, r.Clients,
		fmtDur(sim.Duration(r.ShiftNS)), fmtDur(sim.Duration(r.WindowNS)))
	fmt.Fprintf(&b, "%-16s %8s %7s %10s %14s %10s %10s %8s\n",
		"controller", "ops", "failed", "p99", "pre-shift p99", "tail p99", "recovery", "changes")
	row := func(name string, st *RebalanceRunStats) {
		rec := "-"
		if st.RecoveryNS >= 0 {
			rec = fmtDur(sim.Duration(st.RecoveryNS))
		}
		fmt.Fprintf(&b, "%-16s %8d %7d %10s %14s %10s %10s %8d\n",
			name, st.Ops, st.FailedOps,
			fmtDur(sim.Duration(st.P99NS)), fmtDur(sim.Duration(st.PreShiftP99NS)),
			fmtDur(sim.Duration(st.TailP99NS)), rec, st.ChangesApplied)
	}
	row("off", &r.Off)
	row("on", &r.On)
	if r.Off.TailP99NS > 0 && r.On.TailP99NS > 0 {
		fmt.Fprintf(&b, "tail p99 ratio off/on: %.2fx (improved=%v)\n",
			float64(r.Off.TailP99NS)/float64(r.On.TailP99NS), r.Improved)
	}
	for _, d := range r.On.Decisions {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
