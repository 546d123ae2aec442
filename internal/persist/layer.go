package persist

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/lsm"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/sim"
)

// multicastTs narrows a store timestamp to the ordering layer's type.
func multicastTs(v uint64) multicast.Timestamp { return multicast.Timestamp(v) }

// DefaultInterval is the default spacing between checkpoint attempts per
// replica — a few thousand requests of progress per checkpoint at
// simulated throughputs. Exported because the chaos durable profile
// mirrors the flush-instant arithmetic.
const DefaultInterval = 400 * sim.Microsecond

// logRetention is how many checkpoint intervals of update-log history
// each replica retains beyond its own newest checkpoint, so it can serve
// delta transfers to peers whose checkpoints are a few intervals stale.
const logRetention = 16

// Options configures the persistence layer.
type Options struct {
	// Interval between checkpoint attempts per replica (default
	// DefaultInterval). Members of a partition are staggered across the
	// interval (see StaggerOffset).
	Interval sim.Duration
	// LSM tunes each replica's log-structured tree (zero fields take lsm
	// defaults).
	LSM lsm.Config
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Interval == 0 {
		o.Interval = DefaultInterval
	}
	return o
}

// LayerStats aggregates the whole deployment's persistence activity.
// WrittenBytes is the physical data-path write volume (flushes plus
// compaction rewrites), DirtyBytes the logical volume that actually
// changed — their ratio is write amplification.
type LayerStats struct {
	Checkpoints     uint64
	CheckpointBytes uint64
	Restores        uint64
	RestoreBytes    uint64

	DirtyBytes   uint64
	WrittenBytes uint64
	FlushAborts  uint64

	Compactions        uint64
	CompactionBytesIn  uint64
	CompactionBytesOut uint64
	CompactionAborts   uint64

	CacheHits      uint64
	CacheMisses    uint64
	BloomNegatives uint64

	CPUTimeNS int64
	IOTimeNS  int64
}

// Layer owns one Disk + Checkpointer per replica and wires them into the
// deployment: each replica gets a RecoverySource, each multicast process
// a durability gate. Attach after core.NewDeployment (and Observe) and
// before Start.
//
// The layer also implements reconfig's JoinerSeeder structurally: a
// joining replica is seeded from a live donor's checkpoint plus a delta
// transfer instead of a full state transfer.
type Layer struct {
	dep  *core.Deployment
	opt  Options
	cps  [][]*Checkpointer
	obsv *obs.Observer
}

// Attach creates the layer over every current replica of d. opt may be
// nil for defaults.
func Attach(d *core.Deployment, opt *Options) *Layer {
	var o Options
	if opt != nil {
		o = *opt
	}
	l := &Layer{dep: d, opt: o.withDefaults()}
	l.cps = make([][]*Checkpointer, len(d.Replicas))
	for part := range d.Replicas {
		l.cps[part] = make([]*Checkpointer, len(d.Replicas[part]))
		for rank := range d.Replicas[part] {
			l.attachOne(core.PartitionID(part), rank)
		}
	}
	return l
}

// attachOne builds the disk + checkpointer for one replica, arms the
// durability gate on its ordering process, installs the recovery source,
// and spawns the capture and compaction loops.
func (l *Layer) attachOne(part core.PartitionID, rank int) *Checkpointer {
	rep := l.dep.Replicas[part][rank]
	disk := NewDisk(DiskConfig{})
	tree, err := lsm.NewTree(deviceAdapter{disk}, l.opt.LSM)
	if err != nil {
		panic(fmt.Sprintf("persist: %v", err))
	}
	c := &Checkpointer{
		layer: l, part: part, rank: rank,
		members: len(l.dep.Replicas[part]),
		rep:     rep, disk: disk, tree: tree,
	}
	l.cps[part][rank] = c
	rep.SetRecoverySource(c)
	if mc := l.dep.MCProcs[part][rank]; mc != nil {
		mc.EnableDurableGate()
	}
	c.observe(l.obsv)
	l.dep.Sched.Spawn(fmt.Sprintf("persist-p%d-r%d", part, rank), c.run)
	l.dep.Sched.Spawn(fmt.Sprintf("lsm-compact-p%d-r%d", part, rank), c.compactLoop)
	return c
}

// Observe attaches observability instruments (spans on per-node persist
// tracks, persist/* counters). Call between Attach and the run.
func (l *Layer) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	l.obsv = o
	for part := range l.cps {
		for _, c := range l.cps[part] {
			if c != nil {
				c.observe(o)
			}
		}
	}
}

// Checkpointer returns one replica's checkpointer (nil if the layer
// never attached one there).
func (l *Layer) Checkpointer(part core.PartitionID, rank int) *Checkpointer {
	if int(part) >= len(l.cps) || rank >= len(l.cps[part]) {
		return nil
	}
	return l.cps[part][rank]
}

// Idle reports whether no checkpointer has a flush or a compaction due
// or in flight: every live replica's newest checkpoint covers its last
// executed request, so the ticks that follow change nothing.
func (l *Layer) Idle() bool {
	for part := range l.cps {
		for _, c := range l.cps[part] {
			if c != nil && !c.idle() {
				return false
			}
		}
	}
	return true
}

// Stats sums every checkpointer's counters.
func (l *Layer) Stats() LayerStats {
	var s LayerStats
	for part := range l.cps {
		for _, c := range l.cps[part] {
			if c == nil {
				continue
			}
			cs := c.Stats()
			s.Checkpoints += cs.Checkpoints
			s.CheckpointBytes += cs.CheckpointBytes
			s.Restores += cs.Restores
			s.RestoreBytes += cs.RestoreBytes
			s.DirtyBytes += cs.DirtyBytes
			s.FlushAborts += cs.Aborted
			ts := c.tree.Stats()
			s.WrittenBytes += ts.WrittenBytes()
			s.Compactions += ts.Compactions
			s.CompactionBytesIn += ts.CompactionBytesIn
			s.CompactionBytesOut += ts.CompactionBytesOut
			s.CompactionAborts += ts.CompactionAborts
			s.CacheHits += ts.CacheHits
			s.CacheMisses += ts.CacheMisses
			s.BloomNegatives += ts.BloomNegatives
			s.CPUTimeNS += ts.CPUTimeNS
			s.IOTimeNS += ts.IOTimeNS
		}
	}
	return s
}

// joinerSource seeds a reconfiguration joiner: restore from the joiner's
// own disk if it ever checkpointed (a rejoining member), otherwise from
// the donor's checkpoint — modeling the donor shipping its newest
// durable snapshot instead of a full state transfer.
type joinerSource struct {
	self  *Checkpointer
	donor *Checkpointer
}

// Restore implements core.RecoverySource.
func (js *joinerSource) Restore(p *sim.Proc, r *core.Replica) (uint64, bool) {
	if js.self != nil {
		if snapTmp, ok := js.self.Restore(p, r); ok {
			return snapTmp, ok
		}
	}
	if js.donor != nil {
		return js.donor.Restore(p, r)
	}
	return 0, false
}

// JoinerSource implements reconfig.JoinerSeeder: called while a joiner at
// (part, rank) is being attached, with fromRank naming a live member to
// borrow a checkpoint from. The joiner also gets its own checkpointer so
// it is durable from then on.
func (l *Layer) JoinerSource(part core.PartitionID, fromRank, rank int) core.RecoverySource {
	for int(part) >= len(l.cps) {
		l.cps = append(l.cps, nil)
	}
	for rank >= len(l.cps[part]) {
		l.cps[part] = append(l.cps[part], nil)
	}
	var donor *Checkpointer
	if fromRank >= 0 && fromRank < len(l.cps[part]) {
		donor = l.cps[part][fromRank]
	}
	self := l.cps[part][rank]
	if self == nil {
		self = l.attachOne(part, rank)
	}
	return &joinerSource{self: self, donor: donor}
}
