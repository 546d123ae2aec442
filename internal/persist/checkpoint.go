package persist

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/lsm"
	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/store"
)

// CkptStats aggregates one checkpointer's lifetime activity.
type CkptStats struct {
	Checkpoints     uint64 // manifests swapped
	CheckpointBytes uint64 // flushed run bytes written through the medium
	DirtyBytes      uint64 // record bytes actually new since the last checkpoint
	Aborted         uint64 // flushes abandoned because the replica crashed
	Restores        uint64 // successful checkpoint restores
	RestoreBytes    uint64 // bytes read back during restores
}

// Checkpointer keeps one replica's store durable in an lsm.Tree on its
// simulated persistent medium and implements core.RecoverySource so the
// replica's recovery starts from the newest durable manifest.
//
// Each interval it flushes the slots dirtied since the last manifest
// (per the update log) as one L0 run, and leveled compaction runs as its
// own background proc. The capture is copy-on-write
// (store.BeginSnapshot): execution never stalls while runs stream
// through the disk's modeled bandwidth. The manifest is swapped only
// after the run is fully synced, so a crash at any point leaves either
// the previous checkpoint or the new one — never a torn mix.
type Checkpointer struct {
	layer   *Layer
	part    core.PartitionID
	rank    int
	members int // partition size at attach, for the stagger offset
	rep     *core.Replica
	disk    *Disk
	tree    *lsm.Tree

	lastTmp uint64   // snapTmp of the newest manifested checkpoint
	history []uint64 // snapTmps of recent checkpoints, for log retention
	// running counts the flushes and compactions in flight: the tree
	// installs new runs before the manifest write's sleep, so it shows no
	// pending work while one is still running.
	running int

	stats CkptStats

	track      *obs.Track
	cCount     *obs.Counter
	cBytes     *obs.Counter
	cRestores  *obs.Counter
	cRestBytes *obs.Counter
	cFlushIn   *obs.Counter
	cFlushOut  *obs.Counter
	cComps     *obs.Counter
	cCompIn    *obs.Counter
	cCompOut   *obs.Counter
	cHits      *obs.Counter
	cMisses    *obs.Counter
	cBloomNeg  *obs.Counter
	flight     *obs.FlightRecorder

	// prev snapshots tree stats so cache/bloom counters advance by diff
	// (those accumulate inside the tree across flush, compaction, and
	// lookup paths alike).
	prev lsm.Stats
}

// Stats returns lifetime activity counters.
func (c *Checkpointer) Stats() CkptStats { return c.stats }

// observe resolves the checkpointer's instruments against an observer.
func (c *Checkpointer) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	c.track = o.Track(fmt.Sprintf("node%d", c.rep.NodeID()), "persist", c.layer.dep.Sched)
	c.cCount = o.Counter("persist/checkpoints")
	c.cBytes = o.Counter("persist/checkpoint_bytes")
	c.cRestores = o.Counter("persist/restores")
	c.cRestBytes = o.Counter("persist/restore_bytes")
	c.flight = o.Flight()
	c.cFlushIn = o.Counter("lsm/flush_bytes_in")
	c.cFlushOut = o.Counter("lsm/flush_bytes_out")
	c.cComps = o.Counter("lsm/compactions")
	c.cCompIn = o.Counter("lsm/compaction_bytes_in")
	c.cCompOut = o.Counter("lsm/compaction_bytes_out")
	c.cHits = o.Counter("lsm/cache_hits")
	c.cMisses = o.Counter("lsm/cache_misses")
	c.cBloomNeg = o.Counter("lsm/bloom_negatives")
}

// syncCacheCounters advances the cache/bloom observability counters by
// the tree-stat delta since the last sync.
func (c *Checkpointer) syncCacheCounters() {
	st := c.tree.Stats()
	c.cHits.Add(st.CacheHits - c.prev.CacheHits)
	c.cMisses.Add(st.CacheMisses - c.prev.CacheMisses)
	c.cBloomNeg.Add(st.BloomNegatives - c.prev.BloomNegatives)
	c.prev = st
}

// StaggerOffset spreads the flush instants of a partition's members
// evenly across one DefaultInterval, so the group's durable truncation
// floor advances smoothly instead of in lockstep. Exported because the
// chaos durable profile mirrors this arithmetic to aim crashes at exact
// mid-flush virtual instants.
func StaggerOffset(rank, members int) sim.Duration {
	if members <= 0 {
		return 0
	}
	return DefaultInterval * sim.Duration(rank%members) / sim.Duration(members)
}

// run is the capture loop: one checkpoint attempt per interval, on an
// absolute staggered schedule — tick k fires at exactly
// base + StaggerOffset + k*DefaultInterval regardless of how long captures
// take, so flush instants are predictable virtual times (the chaos
// engine depends on this to land crashes mid-flush).
func (c *Checkpointer) run(p *sim.Proc) {
	base := int64(p.Now()) + int64(StaggerOffset(c.rank, c.members))
	for k := int64(1); ; k++ {
		next := sim.Time(base + k*int64(DefaultInterval))
		if d := sim.Duration(next - p.Now()); d > 0 {
			p.Sleep(d)
		}
		c.capture(p)
	}
}

// capture runs one incremental flush, or returns without side effects
// when the replica cannot be captured (crashed, recovering, or no
// progress since the last checkpoint). The dirty slot set since the last
// manifest (per the update log) is materialized under a copy-on-write
// snapshot into a memtable and flushed as one L0 run. When the log
// cannot prove coverage — first checkpoint ever, or the floor raise
// recovery performs — the flush falls back to the full object set.
func (c *Checkpointer) capture(p *sim.Proc) {
	if c.rep.Crashed() || c.rep.Recovering() {
		return
	}
	snapTmp := uint64(c.rep.LastExecuted())
	if snapTmp == 0 || snapTmp == c.lastTmp {
		return
	}
	st := c.rep.Store()
	sp := c.track.BeginAsync("persist", "memtable_flush").Arg("snap_tmp", snapTmp)
	defer sp.End()
	c.running++
	defer func() { c.running-- }()

	full := c.lastTmp == 0 || !st.Log().Covers(c.lastTmp+1)
	var dirty []store.OID
	if full {
		dirty = st.Objects()
		sp.Arg("full", true)
	} else {
		dirty = st.Log().ObjectsBetween(c.lastTmp+1, snapTmp)
	}

	st.BeginSnapshot(snapTmp)

	// Aux is captured in the same virtual instant as BeginSnapshot (it
	// is not protected by the store's copy-on-write).
	var aux []byte
	if syncer, ok := c.rep.App().(core.AuxSyncer); ok {
		aux = syncer.SnapshotAux(0, snapTmp)
	}

	// Build the memtable from the snapshot-visible dirty versions. An
	// object whose versions are both newer than snapTmp (an in-flight
	// write raced the snapshot open) is skipped: it was by definition
	// updated after snapTmp, so the post-restore delta transfer re-ships
	// its slot, and the next interval's dirty set contains it again.
	mt := lsm.NewMemtable()
	for _, oid := range dirty {
		raw, ok := st.SnapshotSlot(oid)
		if !ok {
			continue
		}
		max, _ := st.SlotMax(oid)
		va, vb, err := store.DecodeSlot(raw, max)
		if err != nil {
			continue
		}
		v, ok := store.ChooseVersion(va, vb, snapTmp+1)
		if !ok || v.Tmp == 0 {
			continue
		}
		if !full && v.Tmp <= c.lastTmp {
			// Already durable in an earlier run.
			continue
		}
		mt.Insert(oid, v.Tmp, v.Val)
	}
	st.EndSnapshot()

	c.stats.DirtyBytes += uint64(mt.RawBytes())
	res, ok := c.tree.Flush(p, mt, snapTmp, aux, nil, c.rep.Crashed)
	if !ok {
		c.stats.Aborted++
		sp.Arg("aborted", true)
		return
	}

	c.lastTmp = snapTmp
	c.history = append(c.history, snapTmp)
	c.stats.Checkpoints++
	c.stats.CheckpointBytes += res.BytesOut
	c.cCount.Inc()
	c.cBytes.Add(res.BytesOut)
	c.cFlushIn.Add(res.BytesIn)
	c.cFlushOut.Add(res.BytesOut)
	c.syncCacheCounters()
	c.flight.Record(p.Now(), obs.FltCheckpoint, uint32(c.rep.NodeID()), snapTmp, res.BytesOut)
	sp.Arg("bytes", res.BytesOut).Arg("records", res.Records)

	if c.rep.Crashed() {
		// The manifest landed but the replica died during the swap:
		// leave log truncation to the next successful flush.
		return
	}

	// Bound the update log to the retention window and tell the ordering
	// layer this member's durable floor moved (the group log prefix at or
	// below snapTmp is now reclaimable here).
	if n := len(c.history); n > logRetention {
		c.rep.Store().Log().Truncate(c.history[n-1-logRetention])
		c.history = c.history[n-logRetention-1:]
	}
	if mc := c.layer.dep.MCProcs[c.part][c.rank]; mc != nil {
		mc.SetDurableTmp(multicastTs(snapTmp))
	}
}

// idle reports whether the checkpointer has nothing due or in flight:
// no flush or compaction runs, and a live replica's newest checkpoint
// covers its last executed request and needs no compaction.
func (c *Checkpointer) idle() bool {
	if c.running > 0 {
		return false
	}
	if c.rep.Crashed() || c.rep.Recovering() {
		return true
	}
	last := uint64(c.rep.LastExecuted())
	return (last == 0 || last == c.lastTmp) && !c.tree.NeedsCompaction()
}

// compactLoop is the background compaction proc: absolute ticks offset
// half an interval from the member's flush instants, so flush and
// compaction I/O interleave instead of colliding, and the chaos engine
// can aim crashes mid-compaction at exact virtual times.
func (c *Checkpointer) compactLoop(p *sim.Proc) {
	base := int64(p.Now()) + int64(StaggerOffset(c.rank, c.members)) + int64(DefaultInterval/2)
	for k := int64(1); ; k++ {
		next := sim.Time(base + k*int64(DefaultInterval))
		if d := sim.Duration(next - p.Now()); d > 0 {
			p.Sleep(d)
		}
		if c.rep.Crashed() || c.rep.Recovering() {
			continue
		}
		if !c.tree.NeedsCompaction() {
			continue
		}
		sp := c.track.BeginAsync("persist", "compaction")
		c.running++
		res, ok := c.tree.CompactOnce(p, c.rep.Crashed)
		c.running--
		if ok {
			c.cComps.Inc()
			c.cCompIn.Add(res.BytesIn)
			c.cCompOut.Add(res.BytesOut)
			c.flight.Record(p.Now(), obs.FltCompaction, uint32(c.rep.NodeID()), res.BytesIn, res.BytesOut)
			sp.Arg("bytes_in", res.BytesIn).Arg("bytes_out", res.BytesOut).
				Arg("input_runs", res.InputRuns).Arg("dst_level", res.DstLevel)
		} else {
			sp.Arg("aborted", true)
		}
		sp.End()
		c.syncCacheCounters()
	}
}

// Restore implements core.RecoverySource: load the newest durable
// manifest's run set from this checkpointer's disk into r (normally its
// own replica; a reconfiguration joiner borrows a donor's checkpointer),
// merging newest-version-per-object across runs, and return the covered
// timestamp. The run set comes from the in-memory tree, which is not
// always the durable manifest: lsm.Tree.Flush and CompactOnce install
// their new runs before writeManifest, and Disk.WriteManifest replaces
// the manifest only after its sleep, so a restore inside that window
// reads runs the manifest does not yet name (ROADMAP item 6). The
// manifest read is charged all the same.
func (c *Checkpointer) Restore(p *sim.Proc, r *core.Replica) (uint64, bool) {
	man := c.disk.ReadManifest(p)
	if man == nil || c.tree.ManifestSeq() == 0 {
		return 0, false
	}
	snapTmp := c.tree.SnapTmp()
	sp := c.track.BeginAsync("persist", "checkpoint_restore").Arg("snap_tmp", snapTmp)
	defer sp.End()

	before := c.tree.Stats()
	ok := c.tree.ScanAll(p, func(ent lsm.Entry) {
		// Objects absent from the target's layout (a joiner with a
		// narrower partition) are simply skipped.
		_ = r.Store().RestoreVersion(ent.OID, ent.Val, ent.Tmp)
	})
	if !ok {
		return 0, false
	}
	if aux := c.tree.Aux(); len(aux) > 0 {
		if syncer, ok := r.App().(core.AuxSyncer); ok {
			syncer.ApplyAux(aux)
		}
	}
	read := c.tree.Stats().RestoreBytes - before.RestoreBytes
	c.stats.Restores++
	c.stats.RestoreBytes += read
	c.cRestores.Inc()
	c.cRestBytes.Add(read)
	sp.Arg("bytes", read)
	return snapTmp, true
}
