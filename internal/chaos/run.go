package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"heron/internal/core"
	"heron/internal/kvapp"
	"heron/internal/lease"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/persist"
	"heron/internal/sim"
	"heron/internal/store"
)

// Options configure one chaos run: the deployment topology, the client
// workload that generates the concurrent history, and the fault schedule
// executed against it.
type Options struct {
	Partitions int
	Replicas   int
	Keys       int // objects per partition
	// ValBytes pads written values to this size (default 8 — the bare
	// sum). Store-size sweeps scale the durable footprint with it.
	ValBytes int

	Clients      int
	OpsPerClient int // Clients*OpsPerClient must stay within lincheck's 64-op bound
	// Horizon bounds the run in virtual time: it ends earlier, once the
	// workload is done and the deployment has settled (see Run), and a
	// run that never settles ends here with its unfinished operations
	// still in flight.
	Horizon sim.Duration

	Schedule Schedule
	// Obs optionally attaches the observability layer to the deployment
	// and the chaos engine.
	Obs *obs.Observer
	// Persist, when non-nil, attaches the durable checkpointing layer:
	// crashed replicas recover from their own checkpoint plus a delta
	// transfer instead of a full state transfer.
	Persist *persist.Options
	// FlightDir, when non-empty, enables flight-recorder auto-dumps: the
	// always-armed ring is written there as a Perfetto trace on every
	// injected crash, on a linearizability violation, and on a simulation
	// error (e.g. deadlock). Dump filenames derive from the schedule's
	// profile and seed, so reports stay deterministic.
	FlightDir string
}

// opTimeout bounds each operation; a timed-out operation fails cleanly
// at the client and marks the run unchecked (a maybe-executed operation
// cannot be expressed to the checker).
const opTimeout = 100 * sim.Millisecond

// DefaultOptions returns a topology and workload sized for the checker:
// 2 partitions of 3 replicas, 3 clients issuing 14 operations each
// (42 ops, within the 64-op bound).
func DefaultOptions() Options {
	return Options{
		Partitions:   2,
		Replicas:     3,
		Keys:         3,
		Clients:      3,
		OpsPerClient: 14,
		Horizon:      3 * sim.Second,
	}
}

// Report is the outcome of one chaos run. Every field derives from
// virtual-clock state, so the same seed and options produce a
// byte-identical JSON encoding across runs.
type Report struct {
	Seed    int64  `json:"seed"`
	Profile string `json:"profile"`
	Events  int    `json:"events"`

	Ops       int `json:"ops"`
	FailedOps int `json:"failed_ops"`

	// Checked is false when the history could not be submitted to the
	// checker (some operations timed out, leaving their effects
	// indeterminate); Linearizable is only meaningful when Checked.
	Checked      bool `json:"checked"`
	Linearizable bool `json:"linearizable"`

	Crashes        int    `json:"crashes"`
	Recoveries     int    `json:"recoveries"`
	Partitions     int    `json:"partitions"`
	Heals          int    `json:"heals"`
	StateTransfers uint64 `json:"state_transfers"`

	// Durability metrics (populated when Options.Persist is set; transfer
	// byte counters are also reported for checkpoint-free runs so the two
	// recovery paths can be compared).
	Checkpoints        uint64 `json:"checkpoints,omitempty"`
	CheckpointBytes    uint64 `json:"checkpoint_bytes,omitempty"`
	CkptRecoveries     uint64 `json:"checkpoint_recoveries,omitempty"`
	DeltaTransferBytes uint64 `json:"delta_transfer_bytes,omitempty"`
	FullTransferBytes  uint64 `json:"full_transfer_bytes,omitempty"`
	RecoveryNS         int64  `json:"recovery_ns,omitempty"`
	TruncatedEntries   uint64 `json:"truncated_log_entries,omitempty"`

	// Write-path metrics: DirtyBytes is the logical volume that changed
	// between checkpoints, WrittenBytes the physical volume the flushes
	// and compactions wrote for it — their ratio is write amplification.
	// FlushFaults/CompactionFaults count flushes and compactions a
	// mid-operation crash aborted.
	DirtyBytes         uint64 `json:"dirty_bytes,omitempty"`
	WrittenBytes       uint64 `json:"written_bytes,omitempty"`
	Compactions        uint64 `json:"lsm_compactions,omitempty"`
	CompactionBytesIn  uint64 `json:"lsm_compaction_bytes_in,omitempty"`
	CompactionBytesOut uint64 `json:"lsm_compaction_bytes_out,omitempty"`
	CacheHits          uint64 `json:"lsm_cache_hits,omitempty"`
	CacheMisses        uint64 `json:"lsm_cache_misses,omitempty"`
	BloomNegatives     uint64 `json:"lsm_bloom_negatives,omitempty"`
	FlushFaults        uint64 `json:"flush_faults,omitempty"`
	CompactionFaults   uint64 `json:"compaction_faults,omitempty"`

	// Lease metrics (populated when the run attaches a lease manager):
	// reads answered locally by a holder, reads that fell back to the
	// ordered path, and grant/revoke commands submitted.
	LocalReads    uint64 `json:"local_reads,omitempty"`
	FallbackReads uint64 `json:"fallback_reads,omitempty"`
	LeaseGrants   uint64 `json:"lease_grants,omitempty"`
	LeaseRevokes  uint64 `json:"lease_revokes,omitempty"`

	// FlightDumps lists the basenames of flight-recorder traces written
	// during the run (empty unless Options.FlightDir is set and a trigger
	// fired).
	FlightDumps []string `json:"flight_dumps,omitempty"`

	Err string `json:"error,omitempty"`
}

// Run executes one seeded chaos schedule against a fresh deployment:
// concurrent clients drive the kv workload while the engine fires the
// schedule's faults; the full client history is recorded with
// virtual-time intervals and checked for linearizability. Liveness is
// asserted structurally: every operation either completes or fails by
// its timeout, so the run always terminates within the horizon.
//
// The run stops at the first millisecond boundary (kvapp.Run.Drive)
// where the workload is done and nothing the report counts can change
// any more: every event has fired, the lease grant loop has passed its
// Until, the deployment has settled (core.Deployment.Settled) and the
// persistence layer is idle (persist.Layer.Idle). The report is then
// what the horizon would have shown.
func Run(opt Options) (*Report, error) {
	// The flight recorder is always armed, whether or not the caller
	// observes the run: the ring costs a few KB and is the only record of
	// what led up to a violation or deadlock.
	obsv := opt.Obs
	if obsv.Flight() == nil {
		obsv = obs.WithFlight(obsv, obs.NewFlightRecorder(4096))
	}
	run, err := kvapp.Deploy(kvapp.Spec{
		Harness: "chaos", Clients: opt.Clients, OpsPerClient: opt.OpsPerClient,
		Groups: multicast.Layout(opt.Partitions, opt.Replicas),
		Owner:  kvapp.Partitioner, StoreKeys: opt.Keys, ValBytes: opt.ValBytes,
		OIDs: kvapp.PartitionKeys(opt.Partitions, opt.Keys),
		Seed: opt.Schedule.Seed, Obs: obsv,
	})
	if err != nil {
		return nil, err
	}
	defer run.Close()
	d, hist := run.D, run.Hist
	var pl *persist.Layer
	if opt.Persist != nil {
		pl = persist.Attach(d, opt.Persist)
		pl.Observe(obsv)
	}
	d.Start()
	// The leasecrash profile is pointless without leases: attach the
	// manager with default timing (the schedule generator aimed its
	// crashes at those instants), and stop granting once the workload and
	// fault window are long over, so the run can settle. A share of the
	// operations then become single-object reads that probe the lease
	// holder; all of them enter the checked history, so a stale local read
	// fails linearizability.
	var mgr *lease.Manager
	if opt.Schedule.Profile == "leasecrash" {
		mgr = lease.Attach(d, lease.Options{Until: sim.Time(60 * sim.Millisecond)})
		mgr.Start()
	}
	eng := Install(d, opt.Schedule, obsv)

	rep := &Report{
		Seed:    opt.Schedule.Seed,
		Profile: opt.Schedule.Profile,
		Events:  len(opt.Schedule.Events),
	}
	// dump snapshots the flight ring into FlightDir; filenames carry the
	// profile, seed, dump ordinal and reason, so the report's dump list is
	// byte-identical across same-seed runs.
	dump := func(reason string) {
		if opt.FlightDir == "" {
			return
		}
		name := fmt.Sprintf("flight-%s-%d-%d-%s.json",
			opt.Schedule.Profile, opt.Schedule.Seed, len(rep.FlightDumps), reason)
		if _, derr := obsv.Flight().DumpFile(opt.FlightDir, name, reason); derr == nil {
			rep.FlightDumps = append(rep.FlightDumps, name)
		}
	}
	eng.OnCrash = func(Event) { dump("crash") }
	var readers []*lease.ReadClient
	think := func(rng *rand.Rand) sim.Duration { return sim.Duration(rng.Intn(300)) * sim.Microsecond }
	settled := func() bool {
		return eng.Fired() && (mgr == nil || mgr.Stopped()) && d.Settled() && (pl == nil || pl.Idle())
	}
	err = run.Drive(opt.Horizon, settled, think, func(int) kvapp.Op {
		cl := d.NewClient()
		var rc *lease.ReadClient
		if mgr != nil {
			rc = lease.NewReadClient(cl, mgr)
			readers = append(readers, rc)
		}
		return func(p *sim.Proc, rng *rand.Rand) (*kvapp.Req, func() (uint64, bool)) {
			if rc != nil && rng.Intn(100) < 40 {
				// Single-object read: probe the lease holder for a local
				// answer, fall back to the ordered path. Either way the
				// read joins the checked history.
				part := core.PartitionID(rng.Intn(opt.Partitions))
				req := &kvapp.Req{Reads: []store.OID{kvapp.OID(part, uint32(rng.Intn(opt.Keys)))}}
				return req, func() (uint64, bool) {
					if val, lok := rc.TryLocal(p, part, req.Reads[0]); lok {
						return kvapp.DecodeVal(val), true
					}
					resp, sok := cl.SubmitTimeout(p, []core.PartitionID{part}, req.Encode(), opTimeout)
					return kvapp.DecodeVal(resp[part]), sok
				}
			}
			req := &kvapp.Req{Add: uint64(rng.Intn(100))}
			dstSet := map[core.PartitionID]bool{}
			for j := 0; j < rng.Intn(3); j++ {
				part := core.PartitionID(rng.Intn(opt.Partitions))
				dstSet[part] = true
				req.Reads = append(req.Reads, kvapp.OID(part, uint32(rng.Intn(opt.Keys))))
			}
			for j := 0; j < 1+rng.Intn(2); j++ {
				part := core.PartitionID(rng.Intn(opt.Partitions))
				dstSet[part] = true
				req.Writes = append(req.Writes, kvapp.OID(part, uint32(rng.Intn(opt.Keys))))
			}
			var dst []core.PartitionID
			for part := range dstSet {
				dst = append(dst, part)
			}
			sort.Slice(dst, func(a, b int) bool { return dst[a] < dst[b] })
			return req, func() (uint64, bool) {
				resp, ok := cl.SubmitTimeout(p, dst, req.Encode(), opTimeout)
				return kvapp.DecodeVal(resp[dst[0]]), ok
			}
		}
	})
	if err != nil {
		// Deadlocks and other simulation errors are exactly the moments
		// the ring exists for: dump before surfacing the error.
		dump("sim-error")
		return nil, err
	}
	eng.Close()

	rep.Ops, rep.FailedOps = hist.Ops, hist.Failed
	rep.Crashes = eng.Crashes
	rep.Recoveries = eng.Recoveries
	rep.Partitions = eng.Partitions
	rep.Heals = eng.Heals
	for g := 0; g < d.Partitions(); g++ {
		for r := 0; r < opt.Replicas; r++ {
			rp := d.Replica(core.PartitionID(g), r)
			rep.StateTransfers += rp.StateTransfers()
			rep.CkptRecoveries += rp.CheckpointRecoveries()
			rep.DeltaTransferBytes += rp.DeltaBytesOut()
			rep.FullTransferBytes += rp.FullBytesOut()
			rep.RecoveryNS += int64(rp.RecoveryTime())
			rep.TruncatedEntries += d.MCProcs[g][r].Truncated()
		}
	}
	if pl != nil {
		ls := pl.Stats()
		rep.Checkpoints = ls.Checkpoints
		rep.CheckpointBytes = ls.CheckpointBytes
		rep.DirtyBytes = ls.DirtyBytes
		rep.WrittenBytes = ls.WrittenBytes
		rep.Compactions = ls.Compactions
		rep.CompactionBytesIn = ls.CompactionBytesIn
		rep.CompactionBytesOut = ls.CompactionBytesOut
		rep.CacheHits = ls.CacheHits
		rep.CacheMisses = ls.CacheMisses
		rep.BloomNegatives = ls.BloomNegatives
		rep.FlushFaults = ls.FlushAborts
		rep.CompactionFaults = ls.CompactionAborts
	}
	if mgr != nil {
		rep.LeaseGrants = mgr.Grants
		rep.LeaseRevokes = mgr.Revokes
		for _, rc := range readers {
			rep.LocalReads += rc.Local
			rep.FallbackReads += rc.Fallback
		}
	}
	if len(eng.Errors) > 0 {
		rep.Err = eng.Errors[0]
		return rep, nil
	}
	rep.Checked, rep.Linearizable, rep.Err = hist.Verdict()
	if rep.Checked && !rep.Linearizable {
		dump("lincheck-violation")
	}
	return rep, nil
}
