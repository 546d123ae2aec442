package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
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
// scheduled events (superposed Poisson arrivals at a steady rate), and a
// small number of pump processes per group post the submissions into the
// replicas' rings. Backlog in a pump is precisely the open-loop queue the
// population would form at an overloaded front end.

// openLoopKeySpace is the number of distinct keys submissions draw from.
const openLoopKeySpace = 1 << 20

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
	// ZipfS shapes the key popularity distribution over
	// openLoopKeySpace keys; a key's home group is key mod Groups. ZipfS
	// must be > 1 (1.07 matches YCSB).
	ZipfS float64
	// MultiGroupPct is the percentage of submissions addressed to two
	// groups (home plus one other).
	MultiGroupPct int
	Warmup        sim.Duration
	Window        sim.Duration
	Seed          int64

	// Obs optionally attaches the observability layer.
	Obs *obs.Observer
	// FlightDir, when non-empty, auto-dumps the flight ring there as a
	// Perfetto trace if the run's maximum latency is a tail outlier
	// (> 8x p99.9) — the open-loop analogue of a post-mortem trigger.
	FlightDir string
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
		ZipfS:         1.07,
		MultiGroupPct: 10,
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

	Submitted  int    // arrivals generated inside the window
	Delivered  int    // window submissions delivered at their home group
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
}

// arrival is one generated submission.
type arrival struct {
	at     sim.Time
	client uint32
	key    uint64
	dual   bool // multicast to two groups
}

// openPump is one submission pump: a client node plus its arrival queue.
type openPump struct {
	cl    *multicast.Client
	queue *sim.Chan[arrival]
	rng   *rand.Rand
	zipf  *rand.Zipf
	group int
	// generator state
	s        *sim.Scheduler
	arriveFn func() // arrive, bound once
	opts     *OpenLoopOptions
	rate     float64 // aggregate msgs/ns for this pump
	horizon  sim.Time
	maxQ     int
	gen      int // arrivals generated in window
}

// interarrival draws the next gap of the pump's Poisson arrival process,
// in ns.
func (pu *openPump) interarrival() sim.Time {
	mean := 1 / pu.rate // ns between arrivals
	return sim.Time(pu.rng.ExpFloat64()*mean) + 1
}

// start arms the pump's first arrival on s.
func (pu *openPump) start(s *sim.Scheduler) {
	pu.s = s
	pu.arriveFn = pu.arrive
	pu.schedule(pu.interarrival())
}

// schedule arms the pump's next arrival at at; the chain sustains itself
// until the horizon.
func (pu *openPump) schedule(at sim.Time) {
	if at < pu.horizon {
		pu.s.At(at, pu.arriveFn)
	}
}

// arrive generates the arrival due now and arms the next one. It runs as
// a scheduler event through arriveFn, bound once, so an arrival allocates
// no closure; its time is the event's, which schedule never clamps (each
// arrival lies at least 1 ns after the one that armed it).
func (pu *openPump) arrive() {
	at := pu.s.Now()
	next := at + pu.interarrival()
	a := arrival{
		at:     at,
		client: uint32(pu.rng.Intn(pu.opts.Clients)),
		key:    pu.zipf.Uint64(),
		dual:   pu.rng.Intn(100) < pu.opts.MultiGroupPct,
	}
	pu.queue.Send(a)
	if q := pu.queue.Len(); q > pu.maxQ {
		pu.maxQ = q
	}
	if at >= sim.Time(pu.opts.Warmup) {
		pu.gen++
	}
	pu.schedule(next)
}

// openLoopHeader is the measurement header size: submit time [0:8],
// modeled client [8:12], home group [12:14], key [14:22].
const openLoopHeader = 22

// encodeOpenLoop packs the measurement header into a payload: submit
// time, modeled client, home group, and the accessed key (the sink feeds
// it into the home partition's heat sketch).
func encodeOpenLoop(buf []byte, at sim.Time, client uint32, home uint16, key uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(at))
	binary.LittleEndian.PutUint32(buf[8:12], client)
	binary.LittleEndian.PutUint16(buf[12:14], home)
	binary.LittleEndian.PutUint64(buf[14:22], key)
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
	dc.Observe(opts.Obs)
	res := &OpenLoopResult{
		Groups:      opts.Groups,
		Replicas:    opts.Replicas,
		Clients:     opts.Clients,
		OfferedRate: float64(opts.Clients) * opts.RatePerClient,
	}
	horizon := sim.Time(opts.Warmup) + sim.Time(opts.Window)

	// Home-group latency sinks at every group's rank 0.
	cp := opts.Obs.CritPath()
	lats := make([]*LatencyRecorder, opts.Groups)
	delivered := make([]int, opts.Groups)
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
	rate := res.OfferedRate / 1e9 / float64(nPumps) // msgs per ns per pump
	if rate <= 0 {
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
				zipf:    rand.NewZipf(rng, opts.ZipfS, 1, uint64(openLoopKeySpace-1)),
				group:   g,
				opts:    &opts,
				rate:    rate,
				horizon: horizon,
			}
			pumps = append(pumps, pu)
			pu.start(s)
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
					encodeOpenLoop(payload, a.at, a.client, uint16(home), a.key)
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
		for _, sample := range lats[g].Samples() {
			merged.Add(sample)
		}
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
	return res, nil
}

// Format renders the result as a table.
func (r *OpenLoopResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Open-loop workload: %d clients @ %.0f msg/s aggregate (poisson arrivals, steady shape)\n",
		r.Clients, r.OfferedRate)
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
	return b.String()
}
