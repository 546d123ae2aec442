package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"heron/internal/core"
	"heron/internal/kvapp"
	"heron/internal/lease"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// Lease benchmark: how much latency does the lease fast path actually
// save? A seeded read-skewed closed-loop workload runs twice over the
// same deployment shape — leases off (every read is an ordered
// multicast round) and leases on (reads probe the partition's lease
// holder and fall back to the ordered path on decline) — and the
// result compares the measured read latencies.
//
// The CI gate holds the fast path to what a lease promises, in absolute
// terms: a local read is one round trip to the holder (two ring writes
// and a handler, ~3 us on the default fabric), so its mean and p99 must
// stay under LeaseGateLocalMean and LeaseGateLocalP99, nearly every read
// must take that path (LeaseGateHitRate), and its mean must undercut the
// ordered read's by at least LeaseGateMargin — one fabric WRITE, the hop
// an ordered read cannot avoid (client to leader to a second member) and
// a lease saves. The margin is a difference, not a ratio: the ratio is
// taken against a baseline that every ordering improvement shrinks (4.93x
// before PR 13's one-doorbell ring, 3.03x after it, 1.83x once followers
// commit on receipt), and a floor on it would have to be re-based each
// time; however fast ordering gets, it keeps that hop.
const (
	LeaseGateLocalMean = 4 * sim.Microsecond
	LeaseGateLocalP99  = 6 * sim.Microsecond
	LeaseGateHitRate   = 0.9
)

// LeaseGateMargin is how far below the ordered-read mean the local-read
// mean must stay.
const LeaseGateMargin = rdma.WriteBase

// The lease bench clients' mean think time and per-operation timeout.
const (
	leaseThink     = 20 * sim.Microsecond
	leaseOpTimeout = 10 * sim.Millisecond
)

// LeaseBenchOptions configure one off/on benchmark pair.
type LeaseBenchOptions struct {
	Partitions int
	Replicas   int
	Keys       int // per partition
	Clients    int
	// ReadPct is the read share of the mix in percent (the read-skewed
	// default is 95, YCSB-B's ratio).
	ReadPct int

	Warmup sim.Duration
	Window sim.Duration
	Seed   int64

	// ObsOff and ObsOn observe the leases-off and the leases-on leg. The
	// legs are two simulations, each starting at virtual time zero and
	// numbering its requests from one, so they cannot share an observer.
	ObsOff, ObsOn *obs.Observer
}

// DefaultLeaseBenchOptions sizes a pair so one run finishes in seconds
// of wall clock.
func DefaultLeaseBenchOptions(seed int64) LeaseBenchOptions {
	return LeaseBenchOptions{
		Partitions: 2,
		Replicas:   3,
		Keys:       64,
		Clients:    24,
		ReadPct:    95,
		Warmup:     2 * sim.Millisecond,
		Window:     20 * sim.Millisecond,
		Seed:       seed,
	}
}

// LeaseRunStats is the outcome of one run (leases off or on). Every
// field derives from virtual-clock state: same seed, same bytes.
type LeaseRunStats struct {
	Leases    bool `json:"leases"`
	Ops       int  `json:"ops"`
	FailedOps int  `json:"failed_ops"`
	Reads     int  `json:"reads"`
	Updates   int  `json:"updates"`

	// LocalReads / FallbackReads split the on-run's reads by path; the
	// off-run leaves both zero (all its reads are ordered).
	LocalReads    uint64 `json:"local_reads,omitempty"`
	FallbackReads uint64 `json:"fallback_reads,omitempty"`
	Grants        uint64 `json:"grants,omitempty"`
	Revokes       uint64 `json:"revokes,omitempty"`

	// Read latencies: the off-run's are ordered rounds; the on-run's
	// cover only reads served locally by a holder (fallbacks are counted
	// above but scored apart, so the comparison is path vs path).
	ReadMeanNS int64 `json:"read_mean_ns"`
	ReadP50NS  int64 `json:"read_p50_ns"`
	ReadP99NS  int64 `json:"read_p99_ns"`
	// FallbackMeanNS is the on-run's ordered-fallback read mean (0 when
	// every read hit the fast path).
	FallbackMeanNS int64 `json:"fallback_mean_ns,omitempty"`

	UpdateMeanNS int64 `json:"update_mean_ns"`
	UpdateP99NS  int64 `json:"update_p99_ns"`

	// The latency of every operation completed after the warm-up: reads
	// by either path and updates.
	AllP50NS  int64 `json:"all_p50_ns"`
	AllP99NS  int64 `json:"all_p99_ns"`
	AllP999NS int64 `json:"all_p999_ns"`
}

// LeaseResult pairs the leases-off and leases-on runs of one seeded
// read-skewed workload.
type LeaseResult struct {
	Partitions int   `json:"partitions"`
	Replicas   int   `json:"replicas"`
	Keys       int   `json:"keys"`
	Clients    int   `json:"clients"`
	ReadPct    int   `json:"read_pct"`
	Seed       int64 `json:"seed"`
	WindowNS   int64 `json:"window_ns"`

	Off LeaseRunStats `json:"off"`
	On  LeaseRunStats `json:"on"`

	// HitRate is the share of the on-run's reads a holder served locally.
	HitRate float64 `json:"hit_rate"`
	// Speedup is the ordered-read mean over the local-read mean: reported,
	// not gated (see LeaseGateMargin).
	Speedup float64 `json:"speedup"`
}

// Gate is the CI pass condition: the on-run's local reads met the
// absolute latency bounds, nearly all reads were local, and the fast
// path kept its margin under the ordered path.
func (r *LeaseResult) Gate() bool {
	return r.On.ReadMeanNS > 0 && r.On.ReadMeanNS <= int64(LeaseGateLocalMean) &&
		r.On.ReadP99NS <= int64(LeaseGateLocalP99) &&
		r.HitRate >= LeaseGateHitRate &&
		r.MarginNS() >= int64(LeaseGateMargin)
}

// MarginNS is how far the local-read mean lies under the ordered-read
// mean, in nanoseconds.
func (r *LeaseResult) MarginNS() int64 { return r.Off.ReadMeanNS - r.On.ReadMeanNS }

// leaseBenchApp is the register application: payload
// [op u8][oid u64][val u64]; op 0 reads the object, op 1 writes val.
type leaseBenchApp struct{}

func (leaseBenchApp) ReadSet(req *core.Request) []store.OID {
	r := wire.NewReader(req.Payload)
	if r.U8() == 0 {
		return []store.OID{store.OID(r.U64())}
	}
	return nil
}

func (leaseBenchApp) Execute(ctx *core.ExecContext) core.Outcome {
	r := wire.NewReader(ctx.Req.Payload)
	op, oid, val := r.U8(), store.OID(r.U64()), r.U64()
	if op == 0 {
		return core.Outcome{Response: append([]byte(nil), ctx.Values[oid]...)}
	}
	w := wire.NewWriter(8)
	w.U64(val)
	v := w.Finish()
	return core.Outcome{Response: v, Writes: []core.Write{{OID: oid, Val: v}}}
}

func encodeLeaseBenchOp(op uint8, oid store.OID, val uint64) []byte {
	w := wire.NewWriter(17)
	w.U8(op)
	w.U64(uint64(oid))
	w.U64(val)
	return w.Finish()
}

// RunLeaseBench executes the off/on pair.
func RunLeaseBench(o LeaseBenchOptions) (*LeaseResult, error) {
	if o.Partitions < 1 || o.Replicas < 2 || o.Keys < 1 || o.Clients < 1 {
		return nil, fmt.Errorf("lease bench: need >=1 partition, >=2 replicas, >=1 key and client")
	}
	if o.ReadPct < 1 || o.ReadPct > 100 {
		return nil, fmt.Errorf("lease bench: read pct %d outside [1, 100]", o.ReadPct)
	}
	res := &LeaseResult{
		Partitions: o.Partitions,
		Replicas:   o.Replicas,
		Keys:       o.Keys,
		Clients:    o.Clients,
		ReadPct:    o.ReadPct,
		Seed:       o.Seed,
		WindowNS:   int64(o.Window),
	}
	off, err := runLeaseBenchOnce(o, false)
	if err != nil {
		return nil, err
	}
	on, err := runLeaseBenchOnce(o, true)
	if err != nil {
		return nil, err
	}
	res.Off, res.On = *off, *on
	if reads := on.LocalReads + on.FallbackReads; reads > 0 {
		res.HitRate = float64(on.LocalReads) / float64(reads)
	}
	if off.ReadMeanNS > 0 && on.ReadMeanNS > 0 {
		res.Speedup = float64(off.ReadMeanNS) / float64(on.ReadMeanNS)
	}
	return res, nil
}

// runLeaseBenchOnce runs the seeded workload with leases off or on.
func runLeaseBenchOnce(o LeaseBenchOptions, on bool) (*LeaseRunStats, error) {
	s := sim.NewScheduler()
	defer releaseMemory()
	defer s.Close()
	layout := Layout(o.Partitions, o.Replicas)
	cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
	cfg.StoreCapacity = kvapp.SlotCapacity(o.Keys, 8)
	newApp := func(core.PartitionID, int) core.Application { return leaseBenchApp{} }
	d, err := core.NewDeployment(s, cfg, newApp, kvapp.Partitioner)
	if err != nil {
		return nil, err
	}
	if err := kvapp.Populate(d, kvapp.Partitioner, kvapp.PartitionKeys(o.Partitions, o.Keys), 8); err != nil {
		return nil, err
	}
	ob := o.ObsOff
	if on {
		ob = o.ObsOn
	}
	d.Observe(ob)
	d.Start()

	warmupEnd := sim.Time(o.Warmup)
	measureEnd := warmupEnd + sim.Time(o.Window)

	var mgr *lease.Manager
	if on {
		mgr = lease.Attach(d, lease.Options{Until: measureEnd})
		mgr.Start()
	}

	stats := &LeaseRunStats{Leases: on}
	var allLat, readLat, fallbackLat, updateLat LatencyRecorder
	readers := make([]*lease.ReadClient, 0, o.Clients)

	for ci := 0; ci < o.Clients; ci++ {
		cl := d.NewClient()
		var rc *lease.ReadClient
		if mgr != nil {
			rc = lease.NewReadClient(cl, mgr)
			readers = append(readers, rc)
		}
		rng := rand.New(rand.NewSource(o.Seed*7919 + int64(ci)))
		s.Spawn(fmt.Sprintf("lease-client%d", ci), func(p *sim.Proc) {
			for p.Now() < measureEnd {
				part := core.PartitionID(rng.Intn(o.Partitions))
				oid := kvapp.OID(part, uint32(rng.Intn(o.Keys)))
				isRead := rng.Intn(100) < o.ReadPct
				t0 := p.Now()
				ok, local := true, false
				switch {
				case !isRead:
					_, ok = cl.SubmitTimeout(p, []core.PartitionID{part}, encodeLeaseBenchOp(1, oid, uint64(t0)), leaseOpTimeout)
				case rc != nil:
					if _, local = rc.TryLocal(p, part, oid); !local {
						_, ok = cl.SubmitTimeout(p, []core.PartitionID{part}, encodeLeaseBenchOp(0, oid, 0), leaseOpTimeout)
					}
				default:
					_, ok = cl.SubmitTimeout(p, []core.PartitionID{part}, encodeLeaseBenchOp(0, oid, 0), leaseOpTimeout)
				}
				stats.Ops++
				if !ok {
					stats.FailedOps++
					continue
				}
				if t0 >= warmupEnd {
					lat := sim.Duration(p.Now() - t0)
					allLat.Add(lat)
					switch {
					case !isRead:
						stats.Updates++
						updateLat.Add(lat)
					case local || rc == nil:
						stats.Reads++
						readLat.Add(lat)
					default:
						stats.Reads++
						fallbackLat.Add(lat)
					}
				}
				p.Sleep(sim.Duration(1+rng.Int63n(2*int64(leaseThink))) * sim.Nanosecond)
			}
		})
	}
	if err := s.RunUntil(measureEnd + sim.Time(5*sim.Millisecond)); err != nil {
		return nil, err
	}

	if readLat.Count() > 0 {
		stats.ReadMeanNS = int64(readLat.Mean())
		stats.ReadP50NS = int64(readLat.Percentile(50))
		stats.ReadP99NS = int64(readLat.Percentile(99))
	}
	if fallbackLat.Count() > 0 {
		stats.FallbackMeanNS = int64(fallbackLat.Mean())
	}
	if updateLat.Count() > 0 {
		stats.UpdateMeanNS = int64(updateLat.Mean())
		stats.UpdateP99NS = int64(updateLat.Percentile(99))
	}
	if allLat.Count() > 0 {
		stats.AllP50NS = int64(allLat.Percentile(50))
		stats.AllP99NS = int64(allLat.Percentile(99))
		stats.AllP999NS = int64(allLat.Percentile(99.9))
	}
	for _, rc := range readers {
		stats.LocalReads += rc.Local
		stats.FallbackReads += rc.Fallback
	}
	if mgr != nil {
		stats.Grants = mgr.Grants
		stats.Revokes = mgr.Revokes
	}
	return stats, nil
}

// Format renders the off/on comparison as a table.
func (r *LeaseResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lease bench: seed %d, %dx%d deployment, %d keys/part, %d clients, %d%% reads, window %s\n",
		r.Seed, r.Partitions, r.Replicas, r.Keys, r.Clients, r.ReadPct,
		fmtDur(sim.Duration(r.WindowNS)))
	fmt.Fprintf(&b, "%-10s %8s %7s %8s %8s %8s %10s %10s %10s\n",
		"leases", "ops", "failed", "reads", "local", "fallbk", "read-mean", "read-p99", "upd-mean")
	row := func(name string, st *LeaseRunStats) {
		fmt.Fprintf(&b, "%-10s %8d %7d %8d %8d %8d %10s %10s %10s\n",
			name, st.Ops, st.FailedOps, st.Reads, st.LocalReads, st.FallbackReads,
			fmtDur(sim.Duration(st.ReadMeanNS)), fmtDur(sim.Duration(st.ReadP99NS)),
			fmtDur(sim.Duration(st.UpdateMeanNS)))
	}
	row("off", &r.Off)
	row("on", &r.On)
	fmt.Fprintf(&b, "local read mean %s (<= %s), p99 %s (<= %s), hit rate %.1f%% (>= %.0f%%), %d ns under the ordered path (>= %d ns; %.2fx): gate %v\n",
		fmtDur(sim.Duration(r.On.ReadMeanNS)), fmtDur(LeaseGateLocalMean),
		fmtDur(sim.Duration(r.On.ReadP99NS)), fmtDur(LeaseGateLocalP99),
		100*r.HitRate, 100*LeaseGateHitRate,
		r.MarginNS(), int64(LeaseGateMargin), r.Speedup, r.Gate())
	return b.String()
}
