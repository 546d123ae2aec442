// Package lsm is a log-structured durable store for Heron replicas: a
// memtable fed by the execution path's dirty-slot stream is flushed into
// immutable sorted runs (block-formatted SSTables with an index and a
// bloom filter), background leveled compaction folds runs together, and
// a block cache absorbs repeated reads. Everything is charged to virtual
// time through a calibrated cost model that splits CPU (compression)
// from I/O (the simulated NVMe medium), following the published
// RocksDB-derived analysis in rollingstone's cpu_cost_analysis: the
// write and read paths are I/O-bound, compression CPU overlaps with I/O
// (total_time = max(io_time, cpu_time)), and compression throughput on
// modern cores is multiple GB/s, so the compressed path wins on both
// write amplification and recovery time.
//
// The package is medium-agnostic: it talks to the durable device through
// the Device/Segment interfaces, which internal/persist adapts onto its
// simulated disk. This keeps lsm free of a dependency cycle (persist
// embeds an lsm.Tree per replica checkpointer).
package lsm

import (
	"fmt"

	"heron/internal/sim"
)

// Device is the durable medium a tree lives on: named append-only
// segments plus one atomically-swapped manifest. internal/persist.Disk
// provides the canonical implementation with an NVMe-class cost model.
type Device interface {
	// CreateSegment opens a fresh append-only segment (panics on a
	// duplicate name — run names embed a sequence number).
	CreateSegment(name string) Segment
	// OpenSegment returns an existing segment, ok=false when missing.
	OpenSegment(name string) (Segment, bool)
	// RemoveSegment deletes a segment (free metadata operation). An
	// in-flight writer of the removed segment finishes harmlessly into
	// the detached object, like a POSIX unlink of an open file.
	RemoveSegment(name string)
	// WriteManifest atomically replaces the manifest, charging the
	// write-new + fsync + rename sequence to p.
	WriteManifest(p *sim.Proc, data []byte)
	// ReadManifest reads the manifest back (nil before the first swap),
	// charging the read to p.
	ReadManifest(p *sim.Proc) []byte
}

// Segment is one append-only file of the device. Charged sizes are
// decoupled from stored sizes so the simulation can keep raw bytes in
// memory while charging the modeled compressed footprint.
type Segment interface {
	// AppendCharged streams data into the segment while charging the
	// bandwidth cost (and accounting the device stats) for charged
	// bytes — the modeled on-disk size of a compressed block.
	AppendCharged(p *sim.Proc, data []byte, charged int)
	// Sync makes every appended byte durable.
	Sync(p *sim.Proc)
	// ReadAt reads n stored bytes at off from the durable prefix,
	// charging first-byte latency plus bandwidth over charged bytes.
	// ok=false when [off, off+n) extends past the synced prefix — the
	// signature of a half-synced run left by a crash.
	ReadAt(p *sim.Proc, off, n, charged int) ([]byte, bool)
	// ReadAtQueued is ReadAt for a read issued back-to-back behind
	// another on the same queue — the device pipelines it, so only
	// bandwidth is charged. Recovery streams its run list this way.
	ReadAtQueued(p *sim.Proc, off, n, charged int) ([]byte, bool)
	// Durable returns the synced prefix length.
	Durable() int
}

// Codec is the calibrated CPU half of the cost model: a compression
// preset's throughput (bytes per nanosecond, i.e. GB/s) and its size
// ratio. Calibration follows rollingstone's cpu_cost_analysis.md:
// snappy-class is documented at 500 MB/s on decade-old cores and 2-4x
// that on modern ones, and the AWS bulk-load numbers imply >= 4 GB/s
// effective compression throughput for compression CPU to stay <= 10%
// of I/O time; zstd-class trades roughly 3x the CPU for a visibly
// denser output.
type Codec struct {
	Name string
	// CompressBW / DecompressBW are bytes/ns of raw input; zero means
	// free (the "none" preset).
	CompressBW   float64
	DecompressBW float64
	// Ratio is physical bytes per raw byte for a compressible block.
	Ratio float64
}

// Compression presets.
const (
	PresetNone   = "none"
	PresetSnappy = "snappy" // snappy/LZ4-class: fast, moderate ratio
	PresetZstd   = "zstd"   // zstd-class: denser, ~3x the CPU
)

// codecs is the preset table. Ratios model small binary records (Heron
// slot values), not text.
var codecs = map[string]Codec{
	PresetNone:   {Name: PresetNone, Ratio: 1.0},
	PresetSnappy: {Name: PresetSnappy, CompressBW: 3.0, DecompressBW: 6.0, Ratio: 0.55},
	PresetZstd:   {Name: PresetZstd, CompressBW: 1.1, DecompressBW: 3.2, Ratio: 0.38},
}

// CodecFor resolves a preset name ("" means snappy-class).
func CodecFor(preset string) (Codec, error) {
	if preset == "" {
		preset = PresetSnappy
	}
	c, ok := codecs[preset]
	if !ok {
		return Codec{}, fmt.Errorf("lsm: unknown compression preset %q (have none, snappy, zstd)", preset)
	}
	return c, nil
}

// incompressibleFloor is the block size below which compression is
// skipped: tiny blocks gain nothing and real engines store them raw.
const incompressibleFloor = 64

// PhysSize returns the modeled on-disk size of a raw block.
func (c Codec) PhysSize(raw int) int {
	if raw <= incompressibleFloor || c.Ratio >= 1.0 {
		return raw
	}
	phys := int(float64(raw) * c.Ratio)
	if phys < incompressibleFloor {
		phys = incompressibleFloor
	}
	return phys
}

// CompressCost returns the CPU time to compress raw bytes.
func (c Codec) CompressCost(raw int) sim.Duration {
	if c.CompressBW <= 0 || raw <= incompressibleFloor {
		return 0
	}
	return sim.Duration(float64(raw) / c.CompressBW)
}

// DecompressCost returns the CPU time to decompress a block of raw bytes.
func (c Codec) DecompressCost(raw int) sim.Duration {
	if c.DecompressBW <= 0 || raw <= incompressibleFloor {
		return 0
	}
	return sim.Duration(float64(raw) / c.DecompressBW)
}

// Tuning constants (exported where other layers mirror the arithmetic —
// the chaos durable-profile generator aims crashes at the compaction
// cadence these imply).
const (
	// DefaultBlockBytes is the target raw data-block size.
	DefaultBlockBytes = 4 << 10
	// DefaultBloomBits is bloom filter bits per key (~1% FPR).
	DefaultBloomBits = 10
	// DefaultL0Trigger is the L0 run count that triggers compaction
	// into L1.
	DefaultL0Trigger = 4
	// DefaultLevelBase is the target byte size of L1; level n targets
	// DefaultLevelBase * DefaultLevelGrowth^(n-1).
	DefaultLevelBase = 64 << 10
	// DefaultLevelGrowth is the size ratio between adjacent levels.
	DefaultLevelGrowth = 8
	// DefaultMaxLevels bounds the tree depth (L0..L3).
	DefaultMaxLevels = 4
	// DefaultCacheBytes sizes the block cache.
	DefaultCacheBytes = 256 << 10
	// DefaultCompactionRate caps compaction I/O charging at 1 GB/s so
	// background folding spreads over virtual time instead of landing as
	// one burst — the rate-limited writeback every real engine applies.
	DefaultCompactionRate = 1.0
)

// Config tunes one tree: its codec. Block size, bloom bits, the L0
// trigger, level sizes, depth, cache size and the compaction rate are the
// Default* constants.
type Config struct {
	// Preset selects the compression codec (none, snappy, zstd; ""
	// means snappy-class).
	Preset string
}

// Stats aggregates one tree's lifetime activity. The CPU/IO split is
// the calibrated cost-model decomposition: both are charged to virtual
// time under the pipelined max(io, cpu) model, so IOTimeNS is the time
// the medium was busy and CPUTimeNS the compression work overlapped
// with (or, when CPU-bound, extending past) it.
type Stats struct {
	Flushes       uint64
	FlushBytesIn  uint64 // raw record bytes entering flushes
	FlushBytesOut uint64 // physical bytes written by flushes
	ManifestOnly  uint64 // floor advances without a new run

	Compactions        uint64
	CompactionBytesIn  uint64 // physical bytes of compaction input runs
	CompactionBytesOut uint64 // physical bytes written by compactions

	FlushAborts      uint64 // flushes abandoned because the replica crashed
	CompactionAborts uint64 // compactions abandoned because the replica crashed

	CacheHits      uint64
	CacheMisses    uint64
	BloomNegatives uint64 // point lookups a bloom filter proved absent

	RestoreRuns  uint64 // runs scanned by restores
	RestoreBytes uint64 // physical bytes read by restores

	CPUTimeNS int64 // compression + decompression work
	IOTimeNS  int64 // medium busy time (appends, syncs, reads, manifests)
}

// WrittenBytes is the physical write volume of the data path (flushes
// plus compaction rewrites) — the numerator of write amplification.
func (s Stats) WrittenBytes() uint64 { return s.FlushBytesOut + s.CompactionBytesOut }

// timed measures the virtual time fn charges — the I/O half of the
// pipelined cost model.
func timed(p *sim.Proc, fn func()) sim.Duration {
	t0 := p.Now()
	fn()
	return sim.Duration(p.Now() - t0)
}

// overlap charges the CPU half on top of an already-charged I/O
// duration under the pipelined model total = max(io, cpu): when the
// CPU work exceeds the I/O time it extends the operation by the
// difference, otherwise it hides entirely behind the transfer.
func overlap(p *sim.Proc, st *Stats, cpu, io sim.Duration) {
	if cpu > io {
		p.Sleep(cpu - io)
	}
	st.CPUTimeNS += int64(cpu)
	st.IOTimeNS += int64(io)
}
