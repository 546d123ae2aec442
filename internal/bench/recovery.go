package bench

import (
	"fmt"
	"strings"

	"heron/internal/chaos"
	"heron/internal/lsm"
	"heron/internal/obs"
	"heron/internal/persist"
	"heron/internal/sim"
	"heron/internal/store"
)

// Crash-recovery benchmark: the same seeded durable crash→recover
// schedule runs once with the checkpointing layer attached and once
// without, across store sizes. The checkpoint leg reports what the
// log-structured layer wrote (write amplification: physical flush and
// compaction volume over the logically dirty volume), how many of the
// schedule's aimed crashes caught a flush or compaction in flight, and,
// for both legs, what recovery shipped over the fabric and how long it
// took. A deterministic read-path microbench drives a tree directly over
// the NVMe cost model: cold gets, cached re-gets, and absent-key probes
// that the bloom filters must screen.

// recoveryKeys are the per-partition store sizes swept; the size-bound
// parts of the gate are judged at the largest.
var recoveryKeys = []int{16, 64, 256}

// recoveryValBytes pads workload values so the durable footprint is
// dominated by data, not slot headers.
const recoveryValBytes = 256

// maxWriteAmp bounds the checkpoint leg's write amplification at the
// largest store size. An incremental flush writes each dirty byte once,
// compressed, and leveled compaction rewrites a bounded share of it; the
// LSM measures 0.90–1.01 on seeds 1–3, while a full-store snapshot per
// interval never measured below 2.63.
const maxWriteAmp = 2.0

// RecoveryOptions configure one sweep.
type RecoveryOptions struct {
	Seeds    int    // schedules per store size; schedule i uses Seed+i
	Seed     int64  // base seed
	Keys     []int  // per-partition store sizes (default recoveryKeys)
	ValBytes int    // value padding (default recoveryValBytes)
	Preset   string // LSM compression preset (default snappy-class)
	Obs      *obs.Observer
}

// DefaultRecoveryOptions sizes the sweep to finish in seconds.
func DefaultRecoveryOptions(seed int64) RecoveryOptions {
	return RecoveryOptions{Seeds: 2, Seed: seed, Keys: recoveryKeys, ValBytes: recoveryValBytes}
}

// RecoveryRow compares the two recovery paths for one (seed, store size)
// pair and reports the checkpoint leg's write path.
type RecoveryRow struct {
	Seed int64 `json:"seed"`
	Keys int   `json:"keys"`

	Recoveries     int    `json:"recoveries"`
	CkptRecoveries uint64 `json:"checkpoint_recoveries"`

	// Checkpoint leg's write path.
	Checkpoints      uint64  `json:"checkpoints"`
	DirtyBytes       uint64  `json:"dirty_bytes"`
	WrittenBytes     uint64  `json:"written_bytes"`
	WriteAmp         float64 `json:"write_amp"`
	Compactions      uint64  `json:"compactions"`
	FlushFaults      uint64  `json:"flush_faults"`
	CompactionFaults uint64  `json:"compaction_faults"`

	// Transfer bytes shipped by responders during recovery, per leg.
	CkptTransferBytes uint64 `json:"ckpt_transfer_bytes"`
	FullTransferBytes uint64 `json:"full_transfer_bytes"`

	// Summed per-replica recovery latency (virtual ns), per leg.
	CkptRecoveryNS int64 `json:"ckpt_recovery_ns"`
	FullRecoveryNS int64 `json:"full_recovery_ns"`

	CkptLinearizable bool `json:"ckpt_linearizable"`
	FullLinearizable bool `json:"full_linearizable"`
}

// LSMReadBench is the tree-level read microbench: a compacted tree over
// the NVMe cost model, probed with cold reads, hot re-reads, and absent
// keys.
type LSMReadBench struct {
	Keys    int `json:"keys"`
	Lookups int `json:"lookups"`
	Absent  int `json:"absent_lookups"`

	PresentNS int64 `json:"present_ns"` // both get waves
	AbsentNS  int64 `json:"absent_ns"`

	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	BloomNegatives uint64  `json:"bloom_negatives"`
}

// RecoveryResult is the full sweep plus the read microbench. Everything
// derives from virtual state, so the same options produce byte-identical
// JSON.
type RecoveryResult struct {
	Preset   string         `json:"preset"`
	ValBytes int            `json:"val_bytes"`
	Rows     []*RecoveryRow `json:"rows"`
	Read     *LSMReadBench  `json:"read_bench"`
}

// Gate is the acceptance check. On every row both legs are checked and
// linearizable, recoveries went through the checkpoint path, and that
// path shipped strictly fewer transfer bytes than the checkpoint-free
// baseline. At the largest store size the checkpoint leg's write
// amplification stays under maxWriteAmp, and a checkpoint recovery costs
// at most its two cold reads (manifest, then the batched run list) over
// the fabric-only path. The read microbench must show the bloom filters
// screening absent keys and the cache absorbing re-reads.
func (r *RecoveryResult) Gate() bool {
	if len(r.Rows) == 0 || r.Read == nil {
		return false
	}
	largest := 0
	for _, row := range r.Rows {
		largest = max(largest, row.Keys)
	}
	coldReads := 2 * persist.ReadLatency
	for _, row := range r.Rows {
		if !row.CkptLinearizable || !row.FullLinearizable || row.CkptRecoveries == 0 {
			return false
		}
		if row.CkptTransferBytes >= row.FullTransferBytes {
			return false
		}
		if row.Keys < largest {
			continue
		}
		if row.WriteAmp >= maxWriteAmp {
			return false
		}
		if row.CkptRecoveryNS-row.FullRecoveryNS > int64(row.CkptRecoveries)*int64(coldReads) {
			return false
		}
	}
	// Bloom filters must screen the great majority of absent probes
	// (default 10 bits/key targets ~1% FPR), and re-reads must hit.
	if r.Read.BloomNegatives < uint64(r.Read.Absent*9/10) {
		return false
	}
	return r.Read.CacheHits > 0 && r.Read.CacheHitRate > 0.3
}

// Format renders the sweep as tables.
func (r *RecoveryResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint vs full transfer (preset=%s, %d-byte values)\n", r.Preset, r.ValBytes)
	fmt.Fprintf(&b, "%-6s %-6s %8s %8s %9s %6s %6s %6s %10s %10s %12s %12s\n",
		"seed", "keys", "recovers", "ckpt-rec", "written", "amp", "comps", "faults",
		"xfer-ckpt", "xfer-full", "rec-ckpt-us", "rec-full-us")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %-6d %8d %8d %9d %6.2f %6d %6s %10d %10d %12.1f %12.1f\n",
			row.Seed, row.Keys, row.Recoveries, row.CkptRecoveries,
			row.WrittenBytes, row.WriteAmp, row.Compactions,
			fmt.Sprintf("%d/%d", row.FlushFaults, row.CompactionFaults),
			row.CkptTransferBytes, row.FullTransferBytes,
			float64(row.CkptRecoveryNS)/1e3, float64(row.FullRecoveryNS)/1e3)
	}
	if r.Read != nil {
		fmt.Fprintf(&b, "\nread path (%d keys, %d lookups + %d absent)\n",
			r.Read.Keys, r.Read.Lookups, r.Read.Absent)
		fmt.Fprintf(&b, "present %.1fus  absent %.1fus  cache %d/%d (%.0f%%)  bloom-negative %d\n",
			float64(r.Read.PresentNS)/1e3, float64(r.Read.AbsentNS)/1e3,
			r.Read.CacheHits, r.Read.CacheHits+r.Read.CacheMisses,
			100*r.Read.CacheHitRate, r.Read.BloomNegatives)
	}
	return b.String()
}

// runDurableOnce runs one durable schedule at the given store width, with
// or without the checkpointing layer.
func runDurableOnce(o RecoveryOptions, seed int64, keys int, withCkpt bool) (*chaos.Report, error) {
	opt := chaos.DefaultOptions()
	opt.Keys = keys
	opt.ValBytes = o.ValBytes
	sc, err := chaos.Generate("durable", seed, opt.Partitions, opt.Replicas)
	if err != nil {
		return nil, err
	}
	opt.Schedule = sc
	opt.Obs = o.Obs
	if withCkpt {
		opt.Persist = &persist.Options{LSM: lsm.Config{Preset: o.Preset}}
	}
	rep, err := chaos.Run(opt)
	if err != nil {
		return nil, err
	}
	if rep.Err != "" {
		return nil, fmt.Errorf("seed %d keys %d (ckpt=%v): %s", seed, keys, withCkpt, rep.Err)
	}
	return rep, nil
}

// writeAmp guards the division (a schedule with zero dirty bytes would
// be a broken workload; surface it as +Inf-free zero).
func writeAmp(written, dirty uint64) float64 {
	if dirty == 0 {
		return 0
	}
	return float64(written) / float64(dirty)
}

// RunRecovery sweeps seeded crash→recover schedules across store sizes,
// running each schedule with checkpoints on and off, then runs the read
// microbench.
func RunRecovery(o RecoveryOptions) (*RecoveryResult, error) {
	if o.Seeds <= 0 {
		return nil, fmt.Errorf("bench: recovery needs at least one seed, got %d", o.Seeds)
	}
	if len(o.Keys) == 0 {
		o.Keys = recoveryKeys
	}
	if o.ValBytes == 0 {
		o.ValBytes = recoveryValBytes
	}
	codec, err := lsm.CodecFor(o.Preset)
	if err != nil {
		return nil, err
	}
	res := &RecoveryResult{Preset: codec.Name, ValBytes: o.ValBytes}
	for i := 0; i < o.Seeds; i++ {
		seed := o.Seed + int64(i)
		for _, keys := range o.Keys {
			ck, err := runDurableOnce(o, seed, keys, true)
			if err != nil {
				return nil, err
			}
			full, err := runDurableOnce(o, seed, keys, false)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, &RecoveryRow{
				Seed:              seed,
				Keys:              keys,
				Recoveries:        ck.Recoveries,
				CkptRecoveries:    ck.CkptRecoveries,
				Checkpoints:       ck.Checkpoints,
				DirtyBytes:        ck.DirtyBytes,
				WrittenBytes:      ck.WrittenBytes,
				WriteAmp:          writeAmp(ck.WrittenBytes, ck.DirtyBytes),
				Compactions:       ck.Compactions,
				FlushFaults:       ck.FlushFaults,
				CompactionFaults:  ck.CompactionFaults,
				CkptTransferBytes: ck.DeltaTransferBytes + ck.FullTransferBytes,
				FullTransferBytes: full.DeltaTransferBytes + full.FullTransferBytes,
				CkptRecoveryNS:    ck.RecoveryNS,
				FullRecoveryNS:    full.RecoveryNS,
				CkptLinearizable:  ck.Checked && ck.Linearizable,
				FullLinearizable:  full.Checked && full.Linearizable,
			})
			releaseMemory()
		}
	}
	read, err := runLSMReadBench(o)
	if err != nil {
		return nil, err
	}
	res.Read = read
	return res, nil
}

// runLSMReadBench builds a compacted tree directly over the NVMe cost
// model and measures the three read regimes. Fully deterministic: fixed
// key set, fixed probe order, virtual clock only.
func runLSMReadBench(o RecoveryOptions) (*LSMReadBench, error) {
	const keys = 512
	const absent = 256
	cfg := lsm.Config{Preset: o.Preset}
	rb := &LSMReadBench{Keys: keys, Lookups: 2 * keys, Absent: absent}

	s := sim.NewScheduler()
	var benchErr error
	s.Spawn("lsm-read-bench", func(p *sim.Proc) {
		disk := persist.NewDisk(persist.DiskConfig{})
		tr, err := lsm.NewTree(persist.LSMDevice(disk), cfg)
		if err != nil {
			benchErr = err
			return
		}
		// Load in flush-sized batches, compacting whenever due, so the
		// final tree has the leveled shape a live replica would.
		// Present keys are the even OIDs; the absent probes are the odd
		// OIDs between them, inside every run's [MinOID, MaxOID] span, so
		// an absent lookup reaches the bloom filters instead of being
		// screened by the key-range check.
		var tmp uint64
		const batches = 2 * lsm.DefaultL0Trigger
		for b := 0; b < batches; b++ {
			mt := lsm.NewMemtable()
			for i := b; i < keys; i += batches {
				tmp++
				val := make([]byte, o.ValBytes)
				val[0] = byte(i)
				mt.Insert(store.OID(2*i), tmp, val)
			}
			if _, ok := tr.Flush(p, mt, tmp, nil, nil, nil); !ok {
				benchErr = fmt.Errorf("bench flush failed")
				return
			}
			for tr.NeedsCompaction() {
				if _, ok := tr.CompactOnce(p, nil); !ok {
					break
				}
			}
		}
		// Drop flush-warmed cache state: the read waves start cold.
		tr.Cache().DropAll()

		t0 := p.Now()
		for wave := 0; wave < 2; wave++ {
			for i := 0; i < keys; i++ {
				if _, ok := tr.Get(p, store.OID(2*i)); !ok {
					benchErr = fmt.Errorf("present key %d missing", 2*i)
					return
				}
			}
		}
		rb.PresentNS = int64(p.Now() - t0)
		t0 = p.Now()
		for i := 0; i < absent; i++ {
			if _, ok := tr.Get(p, store.OID(2*i+1)); ok {
				benchErr = fmt.Errorf("absent key %d present", 2*i+1)
				return
			}
		}
		rb.AbsentNS = int64(p.Now() - t0)
		st := tr.Stats()
		rb.CacheHits, rb.CacheMisses = st.CacheHits, st.CacheMisses
		rb.BloomNegatives = st.BloomNegatives
		if tot := rb.CacheHits + rb.CacheMisses; tot > 0 {
			rb.CacheHitRate = float64(rb.CacheHits) / float64(tot)
		}
	})
	if err := s.Run(); err != nil {
		return nil, err
	}
	if benchErr != nil {
		return nil, benchErr
	}
	return rb, nil
}
