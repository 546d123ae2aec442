// Package persist adds a durability layer to a Heron deployment: a
// simulated persistent medium with a calibrated NVMe-class cost model,
// one checkpointer per replica that flushes the slots dirtied since its
// last manifest into an lsm.Tree under a copy-on-write snapshot (with
// leveled compaction in the background) and so bounds the multicast log,
// and a recovery path that reloads the newest local checkpoint and pulls
// only the delta suffix from a live peer instead of the full state.
//
// Everything is charged to virtual time — the medium never stores real
// files. Crash semantics follow a real drive: appended bytes become
// durable only at Sync, the manifest is swapped atomically, and a reader
// observes exactly the synced prefix of a segment.
package persist

import (
	"fmt"

	"heron/internal/lsm"
	"heron/internal/sim"
)

// The cost model of the simulated medium, calibrated to a datacenter
// NVMe SSD: tens of microseconds to make a write durable, multi-GB/s
// streaming bandwidth (DESIGN §10 derives it; DESIGN §1 lists each value
// with its source). Bandwidths are bytes per nanosecond (i.e. GB/s).
const (
	// WriteLatency is the base cost of landing a write in the device
	// (charged once per Sync and per manifest swap, not per Append —
	// appends coalesce in the device write buffer).
	WriteLatency = 16 * sim.Microsecond
	// FsyncLatency is the flush cost making buffered writes durable.
	FsyncLatency = 30 * sim.Microsecond
	// ReadLatency is the first-byte cost of a cold read.
	ReadLatency = 80 * sim.Microsecond
	// WriteBandwidth is the sequential write bandwidth, in bytes/ns.
	WriteBandwidth = 2.2
	// ReadBandwidth is the sequential read bandwidth, in bytes/ns.
	ReadBandwidth = 3.2
)

// DiskConfig is empty: the cost model is the constants above. It exists
// only because benchmark/probes.go calls NewDisk(DiskConfig{}).
type DiskConfig struct{}

// DiskStats aggregates a disk's lifetime activity.
type DiskStats struct {
	AppendedBytes  uint64
	Syncs          uint64
	ReadBytes      uint64
	ManifestWrites uint64
}

// Disk is one replica's simulated persistent medium: a set of named
// append-only segments plus a single atomically-swapped manifest. The
// Disk object deliberately lives outside the Replica so it survives
// Replica.Crash — it models the state that persists across a crash.
type Disk struct {
	segments map[string]*Segment
	manifest []byte
	stats    DiskStats
}

// NewDisk creates an empty medium. Its DiskConfig argument is empty (see
// DiskConfig).
func NewDisk(DiskConfig) *Disk {
	return &Disk{segments: make(map[string]*Segment)}
}

// CreateSegment opens a fresh append-only segment. Creating a name that
// already exists is a caller bug (segment names embed a sequence number).
func (d *Disk) CreateSegment(name string) *Segment {
	if _, ok := d.segments[name]; ok {
		panic(fmt.Sprintf("persist: segment %q already exists", name))
	}
	s := &Segment{disk: d, name: name}
	d.segments[name] = s
	return s
}

// Segment returns the named segment, or nil if it does not exist.
func (d *Disk) Segment(name string) *Segment { return d.segments[name] }

// RemoveSegment deletes a segment (metadata operation, not charged).
func (d *Disk) RemoveSegment(name string) { delete(d.segments, name) }

// Segments returns the number of live segments, for tests and GC checks.
func (d *Disk) Segments() int { return len(d.segments) }

// WriteManifest atomically replaces the manifest. The cost models the
// classic write-new + fsync + rename + fsync-dir sequence: a base write
// latency, the streaming cost of the (small) manifest, and two flushes.
// The swap itself is atomic — a crash mid-write leaves the old manifest.
func (d *Disk) WriteManifest(p *sim.Proc, data []byte) {
	cost := WriteLatency + 2*FsyncLatency +
		sim.Duration(float64(len(data))/WriteBandwidth)
	p.Sleep(cost)
	d.manifest = append([]byte(nil), data...)
	d.stats.ManifestWrites++
}

// Manifest returns the current manifest bytes (nil before the first
// swap). Reading it is part of ReadManifest's charged path; this accessor
// is free for tests.
func (d *Disk) Manifest() []byte { return d.manifest }

// ReadManifest reads the manifest back, charging the first-byte latency.
func (d *Disk) ReadManifest(p *sim.Proc) []byte {
	if d.manifest == nil {
		return nil
	}
	p.Sleep(ReadLatency + sim.Duration(float64(len(d.manifest))/ReadBandwidth))
	return append([]byte(nil), d.manifest...)
}

// Stats returns lifetime activity counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// Segment is an append-only file on the simulated medium. Appends land in
// the device buffer and cost only streaming bandwidth; Sync makes the
// buffered suffix durable. Reads see exactly the durable prefix — bytes
// appended but never synced are lost to a crash.
type Segment struct {
	disk   *Disk
	name   string
	buf    []byte
	synced int
}

// Name returns the segment's name.
func (s *Segment) Name() string { return s.name }

// AppendCharged streams data into the segment's device buffer while
// charging write bandwidth (and counting stats) for charged bytes
// instead of the stored length — the LSM keeps raw bytes in memory but
// charges the modeled compressed on-disk size, so disk stats and write
// amplification reflect the physical volume. charged <= 0 falls back to
// len(data). The bytes are not durable until Sync.
//
// Appending to a segment that was concurrently removed (compaction GC
// racing an in-flight writer) is safe: the write completes into the
// detached object, like writing an unlinked file, and the bytes are
// simply unreachable afterwards.
func (s *Segment) AppendCharged(p *sim.Proc, data []byte, charged int) {
	if len(data) == 0 {
		return
	}
	if charged <= 0 {
		charged = len(data)
	}
	p.Sleep(sim.Duration(float64(charged) / WriteBandwidth))
	s.buf = append(s.buf, data...)
	s.disk.stats.AppendedBytes += uint64(charged)
}

// Sync makes every appended byte durable, charging the write + flush
// latency.
func (s *Segment) Sync(p *sim.Proc) {
	p.Sleep(WriteLatency + FsyncLatency)
	s.synced = len(s.buf)
	s.disk.stats.Syncs++
}

// Size returns the appended length; Durable the synced prefix length.
func (s *Segment) Size() int    { return len(s.buf) }
func (s *Segment) Durable() int { return s.synced }

// ReadAt reads n stored bytes at off, charging first-byte latency plus
// bandwidth over charged bytes (the modeled compressed transfer size;
// charged <= 0 falls back to n). ok=false — with nothing charged — when
// [off, off+n) extends past the durable prefix: bytes appended but never
// synced are lost to a crash, and a reader observes exactly the synced
// prefix.
func (s *Segment) ReadAt(p *sim.Proc, off, n, charged int) ([]byte, bool) {
	if off < 0 || n < 0 || off+n > s.synced {
		return nil, false
	}
	if charged <= 0 {
		charged = n
	}
	p.Sleep(ReadLatency + sim.Duration(float64(charged)/ReadBandwidth))
	s.disk.stats.ReadBytes += uint64(charged)
	return append([]byte(nil), s.buf[off:off+n]...), true
}

// ReadAtQueued is ReadAt for a read issued back-to-back behind another
// on the same queue: the device pipelines it, so only bandwidth is
// charged, no first-byte latency. Recovery streams its known run list
// this way — one latency for the batch, bandwidth for everything.
func (s *Segment) ReadAtQueued(p *sim.Proc, off, n, charged int) ([]byte, bool) {
	if off < 0 || n < 0 || off+n > s.synced {
		return nil, false
	}
	if charged <= 0 {
		charged = n
	}
	p.Sleep(sim.Duration(float64(charged) / ReadBandwidth))
	s.disk.stats.ReadBytes += uint64(charged)
	return append([]byte(nil), s.buf[off:off+n]...), true
}

// deviceAdapter presents a *Disk as an lsm.Device. The indirection only
// exists because Go interfaces are invariant in return types — every
// method is a direct pass-through to the simulated medium.
type deviceAdapter struct{ d *Disk }

func (a deviceAdapter) CreateSegment(name string) lsm.Segment { return a.d.CreateSegment(name) }

func (a deviceAdapter) OpenSegment(name string) (lsm.Segment, bool) {
	s := a.d.Segment(name)
	if s == nil {
		return nil, false
	}
	return s, true
}

func (a deviceAdapter) RemoveSegment(name string)              { a.d.RemoveSegment(name) }
func (a deviceAdapter) WriteManifest(p *sim.Proc, data []byte) { a.d.WriteManifest(p, data) }
func (a deviceAdapter) ReadManifest(p *sim.Proc) []byte        { return a.d.ReadManifest(p) }

// LSMDevice adapts a Disk into an lsm.Device — the benchmark and test
// entry point for driving a tree over the NVMe cost model directly.
func LSMDevice(d *Disk) lsm.Device { return deviceAdapter{d} }
