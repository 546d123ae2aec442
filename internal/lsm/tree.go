package lsm

import (
	"sort"

	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// manifestMagic versions the manifest encoding.
const manifestMagic uint64 = 0x4845524c534d0001

// Tree is one replica's log-structured store: L0 holds overlapping runs
// in flush order, levels 1..DefaultMaxLevels-1 hold key-disjoint runs
// sorted by MinOID. All mutation happens from the owning replica's sim procs
// (checkpoint flush + background compaction), interleaving only at
// virtual-time sleep points — the same single-writer discipline the rest
// of the replica state uses under the parallel kernel.
//
// Flush and CompactOnce install their new run set before the device
// manifest swap, so while a swap is in flight the in-memory Tree is one
// step ahead of the durable manifest; aborted flushes or compactions
// roll their output segment back. The surviving Tree is the recovery
// image, with no in-memory invalidation after a crash.
type Tree struct {
	dev    Device
	codec  Codec
	cache  *BlockCache
	levels [][]*Run
	// levelBase and compactionRate are DefaultLevelBase and
	// DefaultCompactionRate (tests lower them).
	levelBase      uint64
	compactionRate float64

	manifestSeq uint64
	nextSeq     uint64
	snapTmp     uint64
	aux         []byte
	extra       []byte

	stats Stats
}

// FlushResult reports one flush's volume for instrumentation.
type FlushResult struct {
	BytesIn      uint64 // raw memtable bytes
	BytesOut     uint64 // charged physical bytes (incl. metadata tail)
	Records      uint64
	ManifestOnly bool
}

// CompactResult reports one compaction's volume for instrumentation.
type CompactResult struct {
	BytesIn   uint64 // physical bytes of input runs
	BytesOut  uint64 // physical bytes written
	InputRuns int
	DstLevel  int
}

// NewTree creates an empty tree on dev.
func NewTree(dev Device, cfg Config) (*Tree, error) {
	codec, err := CodecFor(cfg.Preset)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		dev:            dev,
		codec:          codec,
		cache:          NewBlockCache(DefaultCacheBytes),
		levels:         make([][]*Run, DefaultMaxLevels),
		levelBase:      DefaultLevelBase,
		compactionRate: DefaultCompactionRate,
	}
	return t, nil
}

// Accessors for the durable floor and carried blobs.
func (t *Tree) ManifestSeq() uint64 { return t.manifestSeq }
func (t *Tree) SnapTmp() uint64     { return t.snapTmp }
func (t *Tree) Aux() []byte         { return t.aux }
func (t *Tree) Extra() []byte       { return t.extra }
func (t *Tree) Stats() Stats        { return t.stats }
func (t *Tree) Cache() *BlockCache  { return t.cache }

// Runs returns the live run count.
func (t *Tree) Runs() int {
	n := 0
	for _, lvl := range t.levels {
		n += len(lvl)
	}
	return n
}

// encodeManifest serializes the current run set plus carried blobs.
func (t *Tree) encodeManifest() []byte {
	w := wire.NewWriter(256 + 96*t.Runs())
	w.U64(manifestMagic)
	w.U64(t.manifestSeq)
	w.U64(t.snapTmp)
	w.U64(t.nextSeq)
	w.U32(uint32(len(t.levels)))
	for _, lvl := range t.levels {
		w.U32(uint32(len(lvl)))
		for _, r := range lvl {
			w.String(r.Name)
			w.U64(r.Seq)
			w.U64(r.Records)
			w.U64(uint64(r.MinOID))
			w.U64(uint64(r.MaxOID))
			w.U64(r.MinTmp)
			w.U64(r.MaxTmp)
			w.U64(r.RawData)
			w.U64(r.PhysData)
			w.U64(r.Total)
			w.U64(uint64(r.MetaOff))
		}
	}
	w.Bytes(t.aux)
	w.Bytes(t.extra)
	return w.Finish()
}

// DecodeManifest parses manifest bytes into run metadata. Exposed for
// recovery-path tests; LoadTree is the charged entry point.
func DecodeManifest(buf []byte, cfg Config) (*Tree, bool) {
	r := wire.NewReader(buf)
	if r.U64() != manifestMagic {
		return nil, false
	}
	codec, err := CodecFor(cfg.Preset)
	if err != nil {
		return nil, false
	}
	t := &Tree{
		codec:          codec,
		cache:          NewBlockCache(DefaultCacheBytes),
		levelBase:      DefaultLevelBase,
		compactionRate: DefaultCompactionRate,
		manifestSeq:    r.U64(),
		snapTmp:        r.U64(),
		nextSeq:        r.U64(),
	}
	nlevels := int(r.U32())
	if nlevels < DefaultMaxLevels {
		nlevels = DefaultMaxLevels
	}
	t.levels = make([][]*Run, nlevels)
	for i := 0; i < nlevels; i++ {
		if r.Err() != nil {
			return nil, false
		}
		var count int
		if i < nlevels {
			count = int(r.U32())
		}
		for j := 0; j < count; j++ {
			run := &Run{
				Name:     r.String(),
				Seq:      r.U64(),
				Records:  r.U64(),
				MinOID:   store.OID(r.U64()),
				MaxOID:   store.OID(r.U64()),
				MinTmp:   r.U64(),
				MaxTmp:   r.U64(),
				RawData:  r.U64(),
				PhysData: r.U64(),
				Total:    r.U64(),
				MetaOff:  int(r.U64()),
			}
			t.levels[i] = append(t.levels[i], run)
		}
	}
	t.aux = r.Bytes()
	t.extra = r.Bytes()
	if r.Err() != nil {
		return nil, false
	}
	return t, true
}

// LoadTree reads the device manifest (charged) and reconstructs the run
// set. ok=false when no manifest exists or it fails to parse.
func LoadTree(p *sim.Proc, dev Device, cfg Config) (*Tree, bool) {
	buf := dev.ReadManifest(p)
	if buf == nil {
		return nil, false
	}
	t, ok := DecodeManifest(buf, cfg)
	if !ok {
		return nil, false
	}
	t.dev = dev
	return t, true
}

// writeManifest swaps the device manifest to the current state.
func (t *Tree) writeManifest(p *sim.Proc) {
	io := timed(p, func() { t.dev.WriteManifest(p, t.encodeManifest()) })
	t.stats.IOTimeNS += int64(io)
}

// Flush writes the memtable as a new L0 run and swaps the manifest,
// advancing the durable floor to snapTmp and carrying the aux/extra
// blobs. abort is polled at block boundaries (each a virtual-time yield
// point); a crash mid-flush removes the partial segment and leaves the
// tree exactly at the previous manifest. An empty memtable degenerates
// to a manifest-only floor advance (no execution writes happened in the
// interval, so the previous run set already describes snapTmp's state).
func (t *Tree) Flush(p *sim.Proc, mt *Memtable, snapTmp uint64, aux, extra []byte, abort func() bool) (FlushResult, bool) {
	if mt.Len() == 0 {
		t.snapTmp = snapTmp
		t.aux = append([]byte(nil), aux...)
		t.extra = append([]byte(nil), extra...)
		t.manifestSeq++
		t.writeManifest(p)
		t.stats.ManifestOnly++
		return FlushResult{ManifestOnly: true}, true
	}
	seq := t.nextSeq + 1
	b := newBuilder(t.dev, t.codec, t.cache, &t.stats, runName(seq), seq)
	for _, e := range mt.Sorted() {
		if b.add(p, e) && abort != nil && abort() {
			b.abandon()
			t.stats.FlushAborts++
			return FlushResult{}, false
		}
	}
	run := b.finish(p)
	if run == nil || (abort != nil && abort()) {
		if run != nil {
			b.abandon()
		}
		t.stats.FlushAborts++
		return FlushResult{}, false
	}
	// Past this point the flush commits: the manifest swap is atomic
	// (a crash mid-swap leaves the old manifest and an orphaned — but
	// harmless — run segment, which the next successful flush's swap
	// never references).
	t.nextSeq = seq
	t.levels[0] = append(t.levels[0], run)
	t.snapTmp = snapTmp
	t.aux = append([]byte(nil), aux...)
	t.extra = append([]byte(nil), extra...)
	t.manifestSeq++
	t.writeManifest(p)
	res := FlushResult{
		BytesIn:  uint64(mt.RawBytes()),
		BytesOut: run.Total,
		Records:  run.Records,
	}
	t.stats.Flushes++
	t.stats.FlushBytesIn += res.BytesIn
	t.stats.FlushBytesOut += res.BytesOut
	return res, true
}

// levelTarget is the size threshold above which level n spills into n+1.
func (t *Tree) levelTarget(n int) uint64 {
	target := t.levelBase
	for i := 1; i < n; i++ {
		target *= DefaultLevelGrowth
	}
	return target
}

// pick chooses the next compaction: L0 when it has accumulated
// DefaultL0Trigger runs (all of L0 plus every overlapping L1 run merges
// into L1), otherwise the first oversized level spills its oldest run
// into the next level. Returns dst < 0 when nothing needs compacting.
func (t *Tree) pick() (inputs []*Run, srcLevel, dst int) {
	if len(t.levels[0]) >= DefaultL0Trigger {
		inputs = append(inputs, t.levels[0]...)
		lo, hi := inputs[0].MinOID, inputs[0].MaxOID
		for _, r := range inputs[1:] {
			if r.MinOID < lo {
				lo = r.MinOID
			}
			if r.MaxOID > hi {
				hi = r.MaxOID
			}
		}
		inputs = append(inputs, overlapping(t.levels[1], lo, hi)...)
		return inputs, 0, 1
	}
	for n := 1; n < len(t.levels)-1; n++ {
		var size uint64
		for _, r := range t.levels[n] {
			size += r.Total
		}
		if size <= t.levelTarget(n) || len(t.levels[n]) == 0 {
			continue
		}
		// Oldest run first: steady churn rewrites each key range at a
		// bounded cadence.
		src := t.levels[n][0]
		for _, r := range t.levels[n][1:] {
			if r.Seq < src.Seq {
				src = r
			}
		}
		inputs = append(inputs, src)
		inputs = append(inputs, overlapping(t.levels[n+1], src.MinOID, src.MaxOID)...)
		return inputs, n, n + 1
	}
	return nil, 0, -1
}

func overlapping(level []*Run, lo, hi store.OID) []*Run {
	var out []*Run
	for _, r := range level {
		if r.MinOID <= hi && r.MaxOID >= lo {
			out = append(out, r)
		}
	}
	return out
}

// NeedsCompaction reports whether pick would find work.
func (t *Tree) NeedsCompaction() bool {
	_, _, dst := t.pick()
	return dst >= 0
}

// CompactOnce runs a single compaction if one is due. Input blocks are
// read through the block cache (freshly flushed L0 blocks hit; cold
// lower-level blocks miss and charge reads), the merged output keeps
// only the newest version of each object (run Seq breaks tmp ties), and
// writeback is rate-limited to DefaultCompactionRate. Concurrent flushes may
// append new L0 runs during the compaction's sleeps; installation
// removes exactly the consumed inputs, so those survive. ok=false when
// no compaction was due or the abort signal fired (partial output
// removed, inputs untouched).
func (t *Tree) CompactOnce(p *sim.Proc, abort func() bool) (CompactResult, bool) {
	inputs, srcLevel, dst := t.pick()
	if dst < 0 {
		return CompactResult{}, false
	}

	// Merge: newest version per OID wins. Within equal tmp (possible
	// only across a flush/compaction rewrite boundary) the younger run
	// wins.
	best := make(map[store.OID]Entry)
	bestSeq := make(map[store.OID]uint64)
	var inBytes uint64
	for _, in := range inputs {
		if !in.open(p, t.dev, &t.stats, nil) {
			t.stats.CompactionAborts++
			return CompactResult{}, false
		}
		inBytes += in.Total
		for i := range in.handles {
			raw := in.readBlock(p, t.dev, t.codec, t.cache, &t.stats, i)
			if raw == nil {
				t.stats.CompactionAborts++
				return CompactResult{}, false
			}
			br := wire.NewReader(raw)
			for br.Remaining() > 0 {
				e := Entry{OID: store.OID(br.U64()), Tmp: br.U64()}
				e.Val = br.Bytes()
				if br.Err() != nil {
					t.stats.CompactionAborts++
					return CompactResult{}, false
				}
				if old, ok := best[e.OID]; !ok || e.Tmp > old.Tmp ||
					(e.Tmp == old.Tmp && in.Seq > bestSeq[e.OID]) {
					best[e.OID] = e
					bestSeq[e.OID] = in.Seq
				}
			}
			if abort != nil && abort() {
				t.stats.CompactionAborts++
				return CompactResult{}, false
			}
		}
	}
	oids := make([]store.OID, 0, len(best))
	for oid := range best {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })

	seq := t.nextSeq + 1
	b := newBuilder(t.dev, t.codec, t.cache, &t.stats, runName(seq), seq)
	b.rate = t.compactionRate
	for _, oid := range oids {
		if b.add(p, best[oid]) && abort != nil && abort() {
			b.abandon()
			t.stats.CompactionAborts++
			return CompactResult{}, false
		}
	}
	out := b.finish(p)
	if out == nil || (abort != nil && abort()) {
		if out != nil {
			b.abandon()
		}
		t.stats.CompactionAborts++
		return CompactResult{}, false
	}

	// Install: drop exactly the consumed inputs (flushes racing this
	// compaction appended L0 runs we must keep), insert the output
	// sorted by MinOID, swap the manifest, then GC the input segments.
	consumed := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		consumed[in.Name] = true
	}
	for _, n := range []int{srcLevel, dst} {
		kept := t.levels[n][:0]
		for _, r := range t.levels[n] {
			if !consumed[r.Name] {
				kept = append(kept, r)
			}
		}
		t.levels[n] = kept
	}
	t.nextSeq = seq
	t.levels[dst] = append(t.levels[dst], out)
	sort.Slice(t.levels[dst], func(i, j int) bool { return t.levels[dst][i].MinOID < t.levels[dst][j].MinOID })
	t.manifestSeq++
	t.writeManifest(p)
	for _, in := range inputs {
		t.dev.RemoveSegment(in.Name)
		t.cache.DropRun(in.Name)
	}
	res := CompactResult{BytesIn: inBytes, BytesOut: out.Total, InputRuns: len(inputs), DstLevel: dst}
	t.stats.Compactions++
	t.stats.CompactionBytesIn += res.BytesIn
	t.stats.CompactionBytesOut += res.BytesOut
	return res, true
}

// Get performs a point lookup across the tree, newest run first: L0 in
// reverse flush order, then each lower level's (at most one) overlapping
// run. Bloom filters screen runs that cannot contain the key.
func (t *Tree) Get(p *sim.Proc, oid store.OID) (Entry, bool) {
	for i := len(t.levels[0]) - 1; i >= 0; i-- {
		if e, ok := t.levels[0][i].get(p, t.dev, t.codec, t.cache, &t.stats, oid); ok {
			return e, true
		}
	}
	for n := 1; n < len(t.levels); n++ {
		for _, r := range t.levels[n] {
			if e, ok := r.get(p, t.dev, t.codec, t.cache, &t.stats, oid); ok {
				return e, true
			}
		}
	}
	return Entry{}, false
}

// ScanAll streams every run (charged sequential reads with overlapped
// decompression), merges newest-version-per-object, and calls fn in
// ascending OID order — the recovery path's full-materialization read.
// The manifest names every run up front, so the reads are issued as one
// queued batch: first-byte latency is paid once, every later read
// charges bandwidth only. Returns false when any referenced run is
// missing or half-synced.
func (t *Tree) ScanAll(p *sim.Proc, fn func(Entry)) bool {
	best := make(map[store.OID]Entry)
	bestSeq := make(map[store.OID]uint64)
	var paid bool
	for _, lvl := range t.levels {
		for _, r := range lvl {
			t.stats.RestoreRuns++
			t.stats.RestoreBytes += r.Total
			ok := r.scan(p, t.dev, t.codec, &t.stats, func(e Entry) {
				if old, exists := best[e.OID]; !exists || e.Tmp > old.Tmp ||
					(e.Tmp == old.Tmp && r.Seq > bestSeq[e.OID]) {
					best[e.OID] = e
					bestSeq[e.OID] = r.Seq
				}
			}, &paid)
			if !ok {
				return false
			}
		}
	}
	oids := make([]store.OID, 0, len(best))
	for oid := range best {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		fn(best[oid])
	}
	return true
}
