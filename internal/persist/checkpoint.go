package persist

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// flushChunk is the in-memory record batch size streamed to the segment
// in one Append; crash checks run between flushes so an aborted
// checkpoint charges only the bytes it actually wrote.
const flushChunk = 64 << 10

// CkptStats aggregates one checkpointer's lifetime activity.
type CkptStats struct {
	Checkpoints     uint64 // manifests swapped
	CheckpointBytes uint64 // record + aux bytes written through the medium
	DirtyBytes      uint64 // record bytes actually new since the last checkpoint
	Aborted         uint64 // captures abandoned because the replica crashed
	Restores        uint64 // successful checkpoint restores
	RestoreBytes    uint64 // bytes read back during restores
}

// Checkpointer periodically writes one replica's store through its
// simulated persistent medium and implements core.RecoverySource so the
// replica's recovery starts from the newest durable checkpoint.
//
// The capture is copy-on-write (store.BeginSnapshot): execution never
// stalls while records stream through the disk's modeled bandwidth. A
// manifest is swapped only after the segment is fully synced, so a crash
// at any point leaves either the previous checkpoint or the new one —
// never a torn mix.
type Checkpointer struct {
	layer   *Layer
	part    core.PartitionID
	rank    int
	members int // partition size at attach, for the stagger offset
	rep     *core.Replica
	disk    *Disk

	// eng, when non-nil, replaces the flat capture/restore with the
	// log-structured engine (Options.Engine).
	eng *lsmEngine

	seq     uint64   // last successfully manifested checkpoint sequence
	lastTmp uint64   // snapTmp of that checkpoint
	history []uint64 // snapTmps of recent checkpoints, for log retention

	// extra is the deployment-level control state carried by this
	// checkpointer (set on the designated replica only, see
	// Options.Extra).
	extra ExtraState

	stats CkptStats

	track      *obs.Track
	cCount     *obs.Counter
	cBytes     *obs.Counter
	cRestores  *obs.Counter
	cRestBytes *obs.Counter
	flight     *obs.FlightRecorder
}

// Disk returns the replica's simulated persistent medium.
func (c *Checkpointer) Disk() *Disk { return c.disk }

// Stats returns lifetime activity counters.
func (c *Checkpointer) Stats() CkptStats { return c.stats }

// LastTmp returns the snapshot timestamp of the newest durable
// checkpoint (0 before the first).
func (c *Checkpointer) LastTmp() uint64 { return c.lastTmp }

// observe resolves the checkpointer's instruments against an observer.
func (c *Checkpointer) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	proc := fmt.Sprintf("node%d", c.rep.NodeID())
	c.track = o.Track(proc, "persist", c.layer.dep.Sched)
	c.cCount = o.Counter("persist/checkpoints")
	c.cBytes = o.Counter("persist/checkpoint_bytes")
	c.cRestores = o.Counter("persist/restores")
	c.cRestBytes = o.Counter("persist/restore_bytes")
	c.flight = o.Flight()
	if c.eng != nil {
		c.eng.observe(o)
	}
}

// StaggerOffset spreads the flush instants of a partition's members
// evenly across one interval, so the group's durable truncation floor
// advances smoothly instead of in lockstep. Exported because the chaos
// durable profile mirrors this arithmetic to aim crashes at exact
// mid-flush virtual instants.
func StaggerOffset(interval sim.Duration, rank, members int) sim.Duration {
	if members <= 0 {
		return 0
	}
	return interval * sim.Duration(rank%members) / sim.Duration(members)
}

// run is the capture loop: one checkpoint attempt per interval, on an
// absolute staggered schedule — tick k fires at exactly
// base + StaggerOffset + k*Interval regardless of how long captures
// take, so flush instants are predictable virtual times (the chaos
// engine depends on this to land crashes mid-flush).
func (c *Checkpointer) run(p *sim.Proc) {
	interval := c.layer.opt.Interval
	base := int64(p.Now()) + int64(StaggerOffset(interval, c.rank, c.members))
	for k := int64(1); ; k++ {
		next := sim.Time(base + k*int64(interval))
		if d := sim.Duration(next - p.Now()); d > 0 {
			p.Sleep(d)
		}
		c.capture(p)
	}
}

// capture dispatches one checkpoint attempt to the configured engine.
func (c *Checkpointer) capture(p *sim.Proc) {
	if c.eng != nil {
		c.eng.capture(p)
		return
	}
	c.captureFlat(p)
}

// advanceFloor performs the post-swap bookkeeping shared by both
// engines: bound the update log to the retention window and tell the
// ordering layer this member's durable floor moved (the group log
// prefix at or below snapTmp is now reclaimable here).
func (c *Checkpointer) advanceFloor(snapTmp uint64) {
	if n := len(c.history); n > c.layer.opt.LogRetention {
		c.rep.Store().Log().Truncate(c.history[n-1-c.layer.opt.LogRetention])
		c.history = c.history[n-c.layer.opt.LogRetention-1:]
	}
	if mc := c.layer.dep.MCProcs[c.part][c.rank]; mc != nil {
		mc.SetDurableTmp(multicastTs(snapTmp))
	}
}

// captureFlat writes one flat full-store checkpoint (the PR 5 engine,
// kept selectable for A/B benchmarking against the LSM path), or
// returns without side effects when the replica cannot be captured
// (crashed, recovering, or no progress since the last checkpoint).
func (c *Checkpointer) captureFlat(p *sim.Proc) {
	if c.rep.Crashed() || c.rep.Recovering() {
		return
	}
	snapTmp := uint64(c.rep.LastExecuted())
	if snapTmp == 0 || snapTmp == c.lastTmp {
		return
	}
	st := c.rep.Store()
	sp := c.track.BeginAsync("persist", "checkpoint_write").Arg("snap_tmp", snapTmp)
	defer sp.End()

	st.BeginSnapshot(snapTmp)
	defer st.EndSnapshot()

	// The auxiliary snapshot is captured in the same virtual instant as
	// BeginSnapshot (it is not protected by the store's copy-on-write).
	var aux []byte
	if syncer, ok := c.rep.App().(core.AuxSyncer); ok {
		aux = syncer.SnapshotAux(0, snapTmp)
	}

	name := fmt.Sprintf("ckpt-%d", c.seq+1)
	seg := c.disk.CreateSegment(name)
	abort := func() {
		c.disk.RemoveSegment(name)
		c.stats.Aborted++
		sp.Arg("aborted", true)
	}

	// Stream snapshot-visible versions in flushChunk batches. An object
	// whose versions are both newer than snapTmp (a concurrent in-flight
	// write raced the snapshot open) is skipped: by definition it was
	// updated after snapTmp, so the post-restore delta transfer re-ships
	// its whole slot anyway.
	var records uint64
	pend := make([]byte, 0, flushChunk+4096)
	for _, oid := range st.Objects() {
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
		if v.Tmp > c.lastTmp {
			// Dirty since the last checkpoint — the incremental volume an
			// LSM flush would write, kept here so flat-vs-LSM write
			// amplification compares like with like.
			c.stats.DirtyBytes += uint64(20 + len(v.Val))
		}
		w := wire.NewWriter(len(v.Val) + 24)
		w.U64(uint64(oid))
		w.U64(v.Tmp)
		w.Bytes(v.Val)
		pend = append(pend, w.Finish()...)
		records++
		if len(pend) >= flushChunk {
			seg.Append(p, pend)
			pend = pend[:0]
			if c.rep.Crashed() {
				abort()
				return
			}
		}
	}
	st.EndSnapshot()

	var extra []byte
	if c.extra != nil {
		extra = c.extra.SnapshotExtra()
	}
	aw := wire.NewWriter(len(aux) + len(extra) + 16)
	aw.Bytes(aux)
	aw.Bytes(extra)
	pend = append(pend, aw.Finish()...)
	seg.Append(p, pend)
	if c.rep.Crashed() {
		abort()
		return
	}
	seg.Sync(p)
	if c.rep.Crashed() {
		abort()
		return
	}

	// Atomic manifest swap: from here the checkpoint is the one recovery
	// loads. A crash during the swap is modeled as the swap completing
	// (the segment it names is already fully durable, so either outcome
	// is crash-consistent).
	mw := wire.NewWriter(64)
	mw.U64(c.seq + 1)
	mw.U64(snapTmp)
	mw.String(name)
	mw.U64(records)
	c.disk.WriteManifest(p, mw.Finish())

	c.seq++
	c.lastTmp = snapTmp
	c.history = append(c.history, snapTmp)
	written := uint64(seg.Size())
	c.stats.Checkpoints++
	c.stats.CheckpointBytes += written
	c.cCount.Inc()
	c.cBytes.Add(written)
	c.flight.Record(p.Now(), obs.FltCheckpoint, uint32(c.rep.NodeID()), snapTmp, written)
	sp.Arg("bytes", written).Arg("records", records)

	if c.rep.Crashed() {
		// The manifest landed but the replica died during the swap: leave
		// log truncation and segment GC to the next successful capture.
		return
	}

	c.advanceFloor(snapTmp)

	// GC old segments only after the swap; the manifest never references
	// a removed segment.
	if c.seq > uint64(c.layer.opt.KeepSegments) {
		c.disk.RemoveSegment(fmt.Sprintf("ckpt-%d", c.seq-uint64(c.layer.opt.KeepSegments)))
	}
}

// Restore implements core.RecoverySource: load the newest durable
// checkpoint from this checkpointer's disk into r (normally its own
// replica; a reconfiguration joiner borrows a donor's checkpointer). It
// charges the modeled read cost and returns the covered timestamp.
func (c *Checkpointer) Restore(p *sim.Proc, r *core.Replica) (uint64, bool) {
	if c.eng != nil {
		return c.eng.restore(p, r)
	}
	return c.restoreFlat(p, r)
}

// restoreFlat loads the newest flat checkpoint.
func (c *Checkpointer) restoreFlat(p *sim.Proc, r *core.Replica) (uint64, bool) {
	man := c.disk.ReadManifest(p)
	if man == nil {
		return 0, false
	}
	mr := wire.NewReader(man)
	mr.U64() // seq
	snapTmp := mr.U64()
	name := mr.String()
	records := mr.U64()
	if mr.Err() != nil {
		return 0, false
	}
	seg := c.disk.Segment(name)
	if seg == nil {
		return 0, false
	}
	sp := c.track.BeginAsync("persist", "checkpoint_restore").Arg("snap_tmp", snapTmp)
	defer sp.End()
	data := seg.ReadAll(p)
	dr := wire.NewReader(data)
	for i := uint64(0); i < records; i++ {
		oid := dr.U64()
		tmp := dr.U64()
		val := dr.Bytes()
		if dr.Err() != nil {
			return 0, false
		}
		// Objects absent from the target's layout (a joiner with a
		// narrower partition) are simply skipped.
		_ = r.Store().RestoreVersion(store.OID(oid), val, tmp)
	}
	aux := dr.Bytes()
	extra := dr.Bytes()
	if dr.Err() != nil {
		return 0, false
	}
	if len(aux) > 0 {
		if syncer, ok := r.App().(core.AuxSyncer); ok {
			syncer.ApplyAux(aux)
		}
	}
	// Deployment-level extra state is re-installed only when the carrier
	// replica itself restores — a donor restore into a joiner must not
	// clobber the live controller's state.
	if c.extra != nil && len(extra) > 0 && r == c.rep {
		c.extra.RestoreExtra(extra)
	}
	c.stats.Restores++
	c.stats.RestoreBytes += uint64(len(data))
	c.cRestores.Inc()
	c.cRestBytes.Add(uint64(len(data)))
	sp.Arg("bytes", len(data))
	return snapTmp, true
}
