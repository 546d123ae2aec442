package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/rebalance"
	"heron/internal/sim"
)

// Open-loop workload engine.
//
// Closed-loop clients (harness.go) cannot model overload: each client
// waits for its previous request, so the offered load collapses to match
// the system's capacity. The open-loop engine models a large client
// population — hundreds of thousands — whose submission times do not
// depend on the system's responses. Clients are NOT simulated as
// processes; their aggregate arrival process is generated as a chain of
// scheduled events (superposed Poisson or heavy-tailed renewal arrivals,
// optionally shaped over time), and a small number of pump processes per
// group post the submissions into the replicas' rings. Backlog in a pump
// is precisely the open-loop queue the population would form at an
// overloaded front end.

// OpenLoopOptions configure an open-loop run.
type OpenLoopOptions struct {
	Groups   int
	Replicas int
	// Domains must be 1 (0 reads as 1); it stays because benchmark/workloads.go passes it to NewDomainCluster.
	Domains int
	// Clients is the modeled client population (not simulated processes).
	Clients int
	// RatePerClient is each client's mean submission rate in msgs/sec;
	// the aggregate offered load is Clients * RatePerClient.
	RatePerClient float64
	// PumpsPerGroup is the number of submission pump processes (and client
	// nodes) collocated with each group.
	PumpsPerGroup int
	// PayloadBytes pads every message to this size (min 24: the
	// measurement header carries submit time, client, home group, key).
	PayloadBytes int
	// KeySpace and ZipfS shape the key popularity distribution; a key's
	// home group is key mod Groups. ZipfS must be > 1 (1.07 matches YCSB).
	KeySpace int
	ZipfS    float64
	// MultiGroupPct is the percentage of submissions addressed to two
	// groups (home plus one other).
	MultiGroupPct int
	// Mix selects the operation mix: "" or "update" keeps every
	// submission an update (the historical behavior), "ycsb-b" is the
	// read-skewed 95/5 read/update mix, "ycsb-c" is read-only. Reads are
	// single-object and therefore always single-group; only updates can
	// be multi-group. The op kind rides the measurement header, so sinks
	// attribute reads and updates separately.
	Mix string
	// Arrival is the interarrival law of the aggregate process per pump:
	// "poisson" (exponential) or "pareto" (heavy-tailed, alpha=1.5,
	// bursty).
	Arrival string
	// Shape modulates the rate over the run: "steady", "diurnal" (a slow
	// sinusoidal ramp), or "flash" (a 5x crowd in a 10%-of-window spike).
	Shape  string
	Warmup sim.Duration
	Window sim.Duration
	Seed   int64

	// Obs optionally attaches the observability layer.
	Obs *obs.Observer
	// FlightDir, when non-empty, auto-dumps the flight ring there as a
	// Perfetto trace if the run's maximum latency is a tail outlier
	// (> 8x p99.9) — the open-loop analogue of a post-mortem trigger.
	FlightDir string

	// Rebalance arms the advisory shadow planner: the run's per-group
	// heat series is replayed through the rebalance policy after the
	// run, and the acting decisions it would have issued land in
	// the result. The open-loop cluster has no reconfiguration plane, so
	// nothing is executed — the flag answers "would the controller have
	// acted on this workload, and where would it have cut".
	Rebalance bool
	// RebalanceTick is the shadow decision cadence (default 1ms).
	RebalanceTick sim.Duration
}

// DefaultOpenLoopOptions returns a 100k-client configuration that a
// laptop-class machine sustains in seconds.
func DefaultOpenLoopOptions() OpenLoopOptions {
	return OpenLoopOptions{
		Groups:        4,
		Replicas:      3,
		Domains:       1,
		Clients:       100_000,
		RatePerClient: 10,
		PumpsPerGroup: 2,
		PayloadBytes:  64,
		KeySpace:      1 << 20,
		ZipfS:         1.07,
		MultiGroupPct: 10,
		Arrival:       "poisson",
		Shape:         "steady",
		Warmup:        5 * sim.Millisecond,
		Window:        20 * sim.Millisecond,
		Seed:          1,
	}
}

// OpenLoopResult is the outcome of one open-loop run. It contains no
// wall-clock fields: two runs of the same options must serialize to
// byte-identical JSON (replay determinism).
type OpenLoopResult struct {
	Groups, Replicas int
	Clients          int
	OfferedRate      float64 // aggregate msgs/sec
	Arrival, Shape   string

	// Mix echoes the operation mix; Reads/Updates split Delivered by op
	// kind (both zero split on the historical update-only mix).
	Mix string `json:",omitempty"`

	Submitted  int    // arrivals generated inside the window
	Delivered  int    // window submissions delivered at their home group
	Reads      int    `json:",omitempty"` // delivered read operations
	Updates    int    `json:",omitempty"` // delivered update operations
	Backlogged int    // arrivals still queued in pumps at the horizon
	MaxBacklog int    // peak pump queue length (open-loop overload signal)
	Events     uint64 // simulation events executed
	VirtualNS  int64  // virtual time simulated

	ThroughputMsgS float64
	MeanNS         int64
	P50NS          int64
	P99NS          int64
	P999NS         int64
	MaxNS          int64

	// FlightDump is the basename of the latency-outlier flight trace, when
	// one was written (FlightDir set and max > 8x p99.9).
	FlightDump string `json:",omitempty"`

	// RebalancePlan is the shadow planner's acting decisions (Rebalance
	// set); empty and omitted otherwise, so the off path serializes
	// exactly as before.
	RebalancePlan []rebalance.Decision `json:",omitempty"`
}

// arrival is one generated submission.
type arrival struct {
	at     sim.Time
	client uint32
	key    uint64
	dual   bool // multicast to two groups
	read   bool // read operation (mix-dependent; never dual)
}

// openPump is one submission pump: a client node plus its arrival queue.
type openPump struct {
	cl    *multicast.Client
	queue *sim.Chan[arrival]
	rng   *rand.Rand
	zipf  *rand.Zipf
	group int
	// generator state
	opts    *OpenLoopOptions
	rate    float64 // aggregate msgs/ns at peak for this pump
	horizon sim.Time
	maxQ    int
	gen     int // arrivals generated in window
}

// interarrival draws the next gap of the pump's aggregate process, in ns.
func (pu *openPump) interarrival() sim.Time {
	mean := 1 / pu.rate // ns between arrivals at peak rate
	switch pu.opts.Arrival {
	case "pareto":
		// Pareto with alpha = 1.5, scaled so the mean matches: heavy
		// tails produce the bursts a memoryless process never shows.
		const alpha = 1.5
		xm := mean * (alpha - 1) / alpha
		g := xm / math.Pow(pu.rng.Float64(), 1/alpha)
		if g > 1000*mean {
			g = 1000 * mean // clip the unbounded tail to keep horizons finite
		}
		return sim.Time(g) + 1
	default: // poisson
		return sim.Time(pu.rng.ExpFloat64()*mean) + 1
	}
}

// mixRead draws whether the next submission is a read under the
// configured mix. The default update-only mix consumes no randomness, so
// historical arrival streams stay bit-identical.
func (pu *openPump) mixRead() bool {
	switch pu.opts.Mix {
	case "ycsb-b":
		return pu.rng.Intn(100) < 95
	case "ycsb-c":
		return true
	default:
		return false
	}
}

// shapeAccept thins the peak-rate arrival stream down to the shaped rate
// at time t (thinning keeps the draws deterministic and cheap).
func (pu *openPump) shapeAccept(t sim.Time) bool {
	w := float64(pu.opts.Warmup)
	span := float64(pu.opts.Window)
	x := (float64(t) - w) / span // 0..1 inside the window
	var frac float64
	switch pu.opts.Shape {
	case "diurnal":
		// Half-sine between 40% and 100% of peak across the window.
		frac = 0.4 + 0.6*math.Sin(math.Pi*math.Min(math.Max(x, 0), 1))
		if frac > 1 {
			frac = 1
		}
	case "flash":
		// Baseline 20% of peak with a full-rate flash crowd in
		// [40%, 50%) of the window.
		frac = 0.2
		if x >= 0.4 && x < 0.5 {
			frac = 1
		}
	default:
		return true
	}
	return pu.rng.Float64() < frac
}

// schedule generates the next arrival event; the chain sustains itself
// until the horizon.
func (pu *openPump) schedule(s *sim.Scheduler, at sim.Time) {
	if at >= pu.horizon {
		return
	}
	s.At(at, func() {
		next := at + pu.interarrival()
		if pu.shapeAccept(at) {
			a := arrival{
				at:     at,
				client: uint32(pu.rng.Intn(pu.opts.Clients)),
				key:    pu.zipf.Uint64(),
				read:   pu.mixRead(),
			}
			a.dual = !a.read && pu.rng.Intn(100) < pu.opts.MultiGroupPct
			pu.queue.Send(a)
			if q := pu.queue.Len(); q > pu.maxQ {
				pu.maxQ = q
			}
			if at >= sim.Time(pu.opts.Warmup) {
				pu.gen++
			}
		}
		pu.schedule(s, next)
	})
}

// openLoopHeader is the measurement header size: submit time [0:8],
// modeled client [8:12], home group [12:14], key [14:22], op kind [22]
// (0 update, 1 read).
const openLoopHeader = 23

// encodeOpenLoop packs the measurement header into a payload: submit
// time, modeled client, home group, the accessed key (the sink feeds it
// into the home partition's heat sketch), and the op kind.
func encodeOpenLoop(buf []byte, at sim.Time, client uint32, home uint16, key uint64, read bool) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(at))
	binary.LittleEndian.PutUint32(buf[8:12], client)
	binary.LittleEndian.PutUint16(buf[12:14], home)
	binary.LittleEndian.PutUint64(buf[14:22], key)
	buf[22] = 0
	if read {
		buf[22] = 1
	}
}

// RunOpenLoop executes one open-loop measurement.
func RunOpenLoop(opts OpenLoopOptions) (*OpenLoopResult, error) {
	if opts.Groups < 1 || opts.Replicas < 1 || opts.Clients < 1 {
		return nil, fmt.Errorf("openloop: bad topology %d groups x %d replicas, %d clients",
			opts.Groups, opts.Replicas, opts.Clients)
	}
	if opts.PumpsPerGroup < 1 {
		opts.PumpsPerGroup = 1
	}
	if opts.PayloadBytes < openLoopHeader+2 {
		opts.PayloadBytes = openLoopHeader + 2
	}
	if opts.ZipfS <= 1 {
		opts.ZipfS = 1.07
	}
	switch opts.Arrival {
	case "", "poisson", "pareto":
	default:
		return nil, fmt.Errorf("openloop: unknown arrival law %q", opts.Arrival)
	}
	switch opts.Shape {
	case "", "steady", "diurnal", "flash":
	default:
		return nil, fmt.Errorf("openloop: unknown shape %q", opts.Shape)
	}
	switch opts.Mix {
	case "", "update", "ycsb-b", "ycsb-c":
	default:
		return nil, fmt.Errorf("openloop: unknown mix %q (have update, ycsb-b, ycsb-c)", opts.Mix)
	}

	dc, err := multicast.NewDomainCluster(opts.Groups, opts.Replicas, max(opts.Domains, 1), opts.PumpsPerGroup, rdma.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := dc.Sched
	defer releaseMemory()
	defer s.Close()
	// The outlier dump needs an armed ring; graft one on when the caller
	// asked for dumps but supplied no recorder (recording is passive and
	// never perturbs the simulation).
	if opts.FlightDir != "" && opts.Obs.Flight() == nil {
		opts.Obs = obs.WithFlight(opts.Obs, obs.NewFlightRecorder(4096))
	}
	// The shadow planner replays the heat series, so the feed must be
	// armed even when the caller supplied no collector.
	if opts.Rebalance && opts.Obs.Heat() == nil {
		opts.Obs = obs.WithHeat(opts.Obs, obs.NewHeat(opts.Groups, 250*sim.Microsecond, 8))
	}
	dc.Observe(opts.Obs)
	res := &OpenLoopResult{
		Groups:      opts.Groups,
		Replicas:    opts.Replicas,
		Clients:     opts.Clients,
		OfferedRate: float64(opts.Clients) * opts.RatePerClient,
		Arrival:     orDefault(opts.Arrival, "poisson"),
		Shape:       orDefault(opts.Shape, "steady"),
		Mix:         opts.Mix,
	}
	horizon := sim.Time(opts.Warmup) + sim.Time(opts.Window)

	// Home-group latency sinks at every group's rank 0.
	cp := opts.Obs.CritPath()
	lats := make([]*LatencyRecorder, opts.Groups)
	delivered := make([]int, opts.Groups)
	readsAt := make([]int, opts.Groups)
	for g := 0; g < opts.Groups; g++ {
		g := g
		lats[g] = &LatencyRecorder{}
		pr := dc.Procs[g][0]
		heat := opts.Obs.HeatPartition(g)
		s.Spawn(fmt.Sprintf("ol-sink-g%d", g), func(p *sim.Proc) {
			for {
				d, ok := pr.Deliveries().Recv(p)
				if !ok {
					return
				}
				if len(d.Payload) < openLoopHeader {
					continue
				}
				at := sim.Time(binary.LittleEndian.Uint64(d.Payload[0:8]))
				home := int(binary.LittleEndian.Uint16(d.Payload[12:14]))
				key := binary.LittleEndian.Uint64(d.Payload[14:22])
				if home != g || at < sim.Time(opts.Warmup) || at >= horizon {
					continue // counted at its home group, inside the window only
				}
				delivered[g]++
				if d.Payload[22] == 1 {
					readsAt[g]++
				}
				lats[g].Add(sim.Duration(p.Now() - at))
				id := obs.ReqID{Node: uint64(d.ID.Node), Seq: d.ID.Seq}
				cp.Mark(id, obs.SegDelivered, p.Now())
				cp.Mark(id, obs.SegComplete, p.Now())
				heat.RecordExec(p.Now(), sim.Duration(p.Now()-at))
				heat.Touch(key)
			}
		})
	}

	// Pumps: the modeled population is split evenly over all pumps; each
	// pump generates its share of the aggregate arrival process and posts
	// submissions in arrival order.
	nPumps := opts.Groups * opts.PumpsPerGroup
	peakRate := res.OfferedRate / 1e9 / float64(nPumps) // msgs per ns per pump
	if peakRate <= 0 {
		return nil, fmt.Errorf("openloop: non-positive offered rate")
	}
	pumps := make([]*openPump, 0, nPumps)
	for g := 0; g < opts.Groups; g++ {
		for i := 0; i < opts.PumpsPerGroup; i++ {
			rng := rand.New(rand.NewSource(opts.Seed + int64(g*opts.PumpsPerGroup+i)*7919))
			pu := &openPump{
				cl:      dc.NewClient(g, i),
				queue:   sim.NewChan[arrival](s),
				rng:     rng,
				zipf:    rand.NewZipf(rng, opts.ZipfS, 1, uint64(opts.KeySpace-1)),
				group:   g,
				opts:    &opts,
				rate:    peakRate,
				horizon: horizon,
			}
			pumps = append(pumps, pu)
			pu.schedule(s, pu.interarrival())
			g := g
			heat := opts.Obs.HeatPartition(g)
			s.Spawn(fmt.Sprintf("ol-pump-g%d-%d", g, i), func(p *sim.Proc) {
				payload := make([]byte, opts.PayloadBytes)
				for {
					a, ok := pu.queue.Recv(p)
					if !ok {
						return
					}
					heat.RecordQueue(p.Now(), pu.queue.Len()+1)
					home := int(a.key) % opts.Groups
					dst := []multicast.GroupID{multicast.GroupID(home)}
					if a.dual && opts.Groups > 1 {
						other := (home + 1 + int(a.key>>32)%(opts.Groups-1)) % opts.Groups
						dst = append(dst, multicast.GroupID(other))
					}
					encodeOpenLoop(payload, a.at, a.client, uint16(home), a.key, a.read)
					t0 := p.Now()
					mid := pu.cl.Multicast(p, dst, payload)
					id := obs.ReqID{Node: uint64(mid.Node), Seq: mid.Seq}
					cp.Mark(id, obs.SegSubmit, a.at)
					cp.Record(id, obs.SegPumpWait, a.at, t0)
					// sent = posting begins: the synthesized ordering
					// segment then covers posting + network + ordering
					// with no uncovered gap.
					cp.Mark(id, obs.SegSent, t0)
				}
			})
		}
	}

	// Run to the horizon plus a drain tail so in-flight messages land.
	if err := s.RunUntil(horizon + sim.Time(10*sim.Millisecond)); err != nil {
		return nil, err
	}

	merged := &LatencyRecorder{}
	for g := 0; g < opts.Groups; g++ {
		res.Delivered += delivered[g]
		res.Reads += readsAt[g]
		for _, sample := range lats[g].Samples() {
			merged.Add(sample)
		}
	}
	if opts.Mix == "ycsb-b" || opts.Mix == "ycsb-c" {
		res.Updates = res.Delivered - res.Reads
	}
	for _, pu := range pumps {
		res.Submitted += pu.gen
		if pu.maxQ > res.MaxBacklog {
			res.MaxBacklog = pu.maxQ
		}
		res.Backlogged += pu.queue.Len()
	}
	res.Events = s.EventCount()
	res.VirtualNS = int64(s.Now())
	res.ThroughputMsgS = Throughput(res.Delivered, opts.Window)
	if merged.Count() > 0 {
		res.MeanNS = int64(merged.Mean())
		res.P50NS = int64(merged.Percentile(50))
		res.P99NS = int64(merged.Percentile(99))
		res.P999NS = int64(merged.Percentile(99.9))
		res.MaxNS = int64(merged.Max())
	}
	// Fire the tail-outlier flight dump (a no-op when unobserved).
	if fr := opts.Obs.Flight(); fr != nil && opts.FlightDir != "" && res.P999NS > 0 && res.MaxNS > 8*res.P999NS {
		name := fmt.Sprintf("flight-openloop-%d-outlier.json", opts.Seed)
		fr.Record(s.Now(), obs.FltOutlier, 0, uint64(res.MaxNS), uint64(res.P999NS))
		if _, derr := fr.DumpFile(opts.FlightDir, name, "latency-outlier"); derr == nil {
			res.FlightDump = name
		}
	}
	if opts.Rebalance {
		tick := opts.RebalanceTick
		if tick <= 0 {
			tick = 1 * sim.Millisecond
		}
		res.RebalancePlan = shadowRebalance(opts.Obs.Heat().Report(horizon), tick, horizon)
	}
	return res, nil
}

// shadowRebalance replays a finished run's heat series through the
// rebalance planner's advisory mode, tick by tick, exactly as a live
// subscription would have delivered it: each tick scores the cadence
// samples whose interval closed since the previous tick, plus the
// final sketch. The run has finished by the time this runs, and the
// series is deterministic, so the plan is too.
func shadowRebalance(rep *obs.HeatReport, tick sim.Duration, horizon sim.Time) []rebalance.Decision {
	pol := rebalance.DefaultPolicy()
	pol.Tick = tick
	pl := &rebalance.Planner{Pol: pol}
	cursor := make([]int, len(rep.Partitions))
	for t := sim.Time(tick); t <= horizon+sim.Time(tick); t += sim.Time(tick) {
		win := &obs.HeatReport{CadenceNS: rep.CadenceNS}
		for i, p := range rep.Partitions {
			pr := obs.PartitionHeatReport{Partition: p.Partition, TopKeys: p.TopKeys}
			for cursor[i] < len(p.Samples) &&
				sim.Time(p.Samples[cursor[i]].AtNS+rep.CadenceNS) <= t {
				pr.Samples = append(pr.Samples, p.Samples[cursor[i]])
				cursor[i]++
			}
			win.Partitions = append(win.Partitions, pr)
		}
		pl.ShadowStep(t, rebalance.Score(win))
	}
	return pl.ActingLog()
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Format renders the result as a table.
func (r *OpenLoopResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Open-loop workload: %d clients @ %.0f msg/s aggregate (%s arrivals, %s shape)\n",
		r.Clients, r.OfferedRate, r.Arrival, r.Shape)
	if r.Mix != "" && r.Mix != "update" {
		fmt.Fprintf(&b, "mix: %s (%d reads / %d updates delivered)\n", r.Mix, r.Reads, r.Updates)
	}
	fmt.Fprintf(&b, "topology: %d groups x %d replicas\n", r.Groups, r.Replicas)
	fmt.Fprintf(&b, "%-12s %-12s %-12s %-12s %-12s\n", "submitted", "delivered", "backlog", "max_backlog", "events")
	fmt.Fprintf(&b, "%-12d %-12d %-12d %-12d %-12d\n", r.Submitted, r.Delivered, r.Backlogged, r.MaxBacklog, r.Events)
	fmt.Fprintf(&b, "throughput: %.0f msg/s\n", r.ThroughputMsgS)
	fmt.Fprintf(&b, "latency: mean %s  p50 %s  p99 %s  p99.9 %s  max %s\n",
		fmtDur(sim.Duration(r.MeanNS)), fmtDur(sim.Duration(r.P50NS)),
		fmtDur(sim.Duration(r.P99NS)), fmtDur(sim.Duration(r.P999NS)),
		fmtDur(sim.Duration(r.MaxNS)))
	if r.FlightDump != "" {
		fmt.Fprintf(&b, "flight dump: %s (max > 8x p99.9)\n", r.FlightDump)
	}
	if len(r.RebalancePlan) > 0 {
		fmt.Fprintf(&b, "shadow rebalance plan (%d acting decisions, advisory):\n", len(r.RebalancePlan))
		for _, d := range r.RebalancePlan {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	return b.String()
}
