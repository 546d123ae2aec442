package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"heron/internal/sim"
	"heron/internal/store"
)

// memSegment is an in-memory Segment with synced-prefix crash semantics
// and a simple linear cost model (1 ns per charged byte, 1µs per sync)
// so virtual time advances at every append — the interleaving tests rely
// on flushes and compactions actually overlapping.
type memSegment struct {
	data   []byte
	synced int
}

func (s *memSegment) AppendCharged(p *sim.Proc, data []byte, charged int) {
	if charged <= 0 {
		charged = len(data)
	}
	s.data = append(s.data, data...)
	p.Sleep(sim.Duration(charged))
}

func (s *memSegment) Sync(p *sim.Proc) {
	s.synced = len(s.data)
	p.Sleep(sim.Microsecond)
}

func (s *memSegment) ReadAt(p *sim.Proc, off, n, charged int) ([]byte, bool) {
	if off < 0 || n < 0 || off+n > s.synced {
		return nil, false
	}
	if charged <= 0 {
		charged = n
	}
	p.Sleep(sim.Duration(charged))
	return append([]byte(nil), s.data[off:off+n]...), true
}

// ReadAtQueued keeps the same linear cost here — the memSegment model
// has no first-byte latency to elide.
func (s *memSegment) ReadAtQueued(p *sim.Proc, off, n, charged int) ([]byte, bool) {
	return s.ReadAt(p, off, n, charged)
}

func (s *memSegment) Durable() int { return s.synced }

type memDevice struct {
	segs     map[string]*memSegment
	manifest []byte
}

func newMemDevice() *memDevice { return &memDevice{segs: make(map[string]*memSegment)} }

func (d *memDevice) CreateSegment(name string) Segment {
	if _, ok := d.segs[name]; ok {
		panic("duplicate segment " + name)
	}
	s := &memSegment{}
	d.segs[name] = s
	return s
}

func (d *memDevice) OpenSegment(name string) (Segment, bool) {
	s, ok := d.segs[name]
	if !ok {
		return nil, false
	}
	return s, true
}

func (d *memDevice) RemoveSegment(name string) { delete(d.segs, name) }

func (d *memDevice) WriteManifest(p *sim.Proc, data []byte) {
	d.manifest = append([]byte(nil), data...)
	p.Sleep(sim.Microsecond)
}

func (d *memDevice) ReadManifest(p *sim.Proc) []byte {
	if d.manifest == nil {
		return nil
	}
	p.Sleep(sim.Microsecond)
	return append([]byte(nil), d.manifest...)
}

// runSim executes body as one simulated proc and drains the scheduler.
func runSim(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	s := sim.NewScheduler()
	s.Spawn("lsm-test", body)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// val builds a recognizable value for oid at tmp.
func val(oid, tmp uint64) []byte {
	return []byte(fmt.Sprintf("v-%d-%d", oid, tmp))
}

// buildRun flushes ents (must be pre-sorted by OID) through the builder.
func buildRun(t *testing.T, p *sim.Proc, dev Device, codec Codec, ents []Entry, seq uint64) (*Run, *Stats) {
	t.Helper()
	st := &Stats{}
	b := newBuilder(dev, codec, NewBlockCache(DefaultCacheBytes), st, runName(seq), seq)
	for _, e := range ents {
		b.add(p, e)
	}
	run := b.finish(p)
	if run == nil {
		t.Fatal("builder returned nil run")
	}
	return run, st
}

// TestSSTableEncodeDecode drives the block format through build → reopen
// → point-get → scan across value sizes that fill one DefaultBlockBytes
// block, several entries per block, one entry per block, and entries
// several blocks long.
func TestSSTableEncodeDecode(t *testing.T) {
	cases := []struct {
		name     string
		entries  int
		valBytes int
		blocks   int
	}{
		{"single-block", 10, 16, 1},
		{"multi-block", 64, 1200, 20},
		{"block-per-entry", 16, 4700, 16},
		{"large-values", 32, 16000, 32},
		{"one-entry", 1, 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, func(p *sim.Proc) {
				dev := newMemDevice()
				codec, _ := CodecFor(PresetNone)
				var ents []Entry
				for i := 0; i < tc.entries; i++ {
					oid := uint64(i * 7)
					ents = append(ents, Entry{
						OID: store.OID(oid), Tmp: uint64(100 + i),
						Val: bytes.Repeat(val(oid, uint64(100+i)), 1+tc.valBytes/8),
					})
				}
				run, _ := buildRun(t, p, dev, codec, ents, 1)
				if run.Records != uint64(tc.entries) {
					t.Fatalf("records = %d, want %d", run.Records, tc.entries)
				}
				if len(run.handles) != tc.blocks {
					t.Fatalf("blocks = %d, want %d", len(run.handles), tc.blocks)
				}

				// Reopen from manifest-level metadata only: the index and
				// bloom must decode back from the segment tail.
				reopened := &Run{
					Name: run.Name, Seq: run.Seq, Records: run.Records,
					MinOID: run.MinOID, MaxOID: run.MaxOID,
					MinTmp: run.MinTmp, MaxTmp: run.MaxTmp,
					RawData: run.RawData, PhysData: run.PhysData,
					Total: run.Total, MetaOff: run.MetaOff,
				}
				st := &Stats{}
				cache := NewBlockCache(DefaultCacheBytes)
				for _, e := range ents {
					got, ok := reopened.get(p, dev, codec, cache, st, e.OID)
					if !ok || got.Tmp != e.Tmp || !bytes.Equal(got.Val, e.Val) {
						t.Fatalf("get(%d) = (%v, %v), want tmp=%d", e.OID, got, ok, e.Tmp)
					}
				}
				// Absent keys inside the range must miss without error.
				if _, ok := reopened.get(p, dev, codec, cache, st, store.OID(3)); ok {
					t.Fatal("get of absent key reported present")
				}
				var scanned []Entry
				if !reopened.scan(p, dev, codec, st, func(e Entry) { scanned = append(scanned, e) }, nil) {
					t.Fatal("scan failed on a fully-synced run")
				}
				if len(scanned) != len(ents) {
					t.Fatalf("scan yielded %d entries, want %d", len(scanned), len(ents))
				}
				for i, e := range ents {
					if scanned[i].OID != e.OID || scanned[i].Tmp != e.Tmp || !bytes.Equal(scanned[i].Val, e.Val) {
						t.Fatalf("scan[%d] = %+v, want %+v", i, scanned[i], e)
					}
				}
			})
		})
	}
}

// TestSSTableMetaCrossChecks: a run whose manifest metadata disagrees
// with the stored footer must fail to open rather than serve bad data.
func TestSSTableMetaCrossChecks(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		dev := newMemDevice()
		codec, _ := CodecFor(PresetNone)
		ents := []Entry{{OID: 1, Tmp: 5, Val: val(1, 5)}, {OID: 9, Tmp: 6, Val: val(9, 6)}}
		run, _ := buildRun(t, p, dev, codec, ents, 1)
		bad := *run
		bad.handles, bad.bloom = nil, nil
		bad.Records = run.Records + 1 // metadata lies about the record count
		st := &Stats{}
		if _, ok := bad.get(p, dev, codec, NewBlockCache(1<<20), st, 1); ok {
			t.Fatal("run with inconsistent metadata served a read")
		}
	})
}

// TestBloomFilter: zero false negatives, FPR within ~2x of the
// theoretical ~1% at 10 bits/key, and encode/decode roundtrips.
func TestBloomFilter(t *testing.T) {
	const n = 2000
	bf := newBloom(n, DefaultBloomBits)
	for i := 0; i < n; i++ {
		bf.add(oidHash(store.OID(i)))
	}
	for i := 0; i < n; i++ {
		if !bf.mayContain(oidHash(store.OID(i))) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if bf.mayContain(oidHash(store.OID(n + 1 + i))) {
			fp++
		}
	}
	if fpr := float64(fp) / probes; fpr > 0.02 {
		t.Fatalf("false positive rate %.4f exceeds 2%% at %d bits/key", fpr, DefaultBloomBits)
	}

	dec, ok := decodeBloom(bf.encode())
	if !ok || dec.k != bf.k || dec.nbits != bf.nbits || !bytes.Equal(dec.bits, bf.bits) {
		t.Fatal("bloom encode/decode did not roundtrip")
	}
	if _, ok := decodeBloom([]byte{1, 2, 3}); ok {
		t.Fatal("garbage bloom bytes decoded")
	}
}

// TestBlockCacheLRU: byte-capped eviction in recency order, Get
// refreshing recency, and DropRun purging a run's blocks.
func TestBlockCacheLRU(t *testing.T) {
	c := NewBlockCache(100)
	blk := func(n int) []byte { return bytes.Repeat([]byte{0xab}, n) }
	c.Put("a", 0, blk(40))
	c.Put("a", 1, blk(40))
	if _, ok := c.Get("a", 0); !ok { // refresh a/0: now a/1 is LRU
		t.Fatal("a/0 missing")
	}
	c.Put("b", 0, blk(40)) // 120 > 100: evicts a/1
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("LRU victim a/1 survived")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Fatal("recently-used a/0 evicted")
	}
	if c.Used() != 80 || c.Blocks() != 2 {
		t.Fatalf("used=%d blocks=%d, want 80/2", c.Used(), c.Blocks())
	}
	// An oversized block still caches (the cache keeps at least one).
	c.Put("big", 0, blk(500))
	if _, ok := c.Get("big", 0); !ok {
		t.Fatal("oversized block not resident")
	}
	c.DropRun("big")
	if c.Used() != 0 || c.Blocks() != 0 {
		t.Fatalf("after DropRun: used=%d blocks=%d", c.Used(), c.Blocks())
	}
}

// TestMemtableNewestWins: duplicate inserts keep the newest version and
// the byte accounting follows.
func TestMemtableNewestWins(t *testing.T) {
	mt := NewMemtable()
	mt.Insert(7, 10, []byte("old"))
	mt.Insert(7, 12, []byte("newer"))
	mt.Insert(7, 11, []byte("stale")) // older than resident: ignored
	mt.Insert(3, 5, []byte("x"))
	if mt.Len() != 2 {
		t.Fatalf("len = %d, want 2", mt.Len())
	}
	sorted := mt.Sorted()
	if sorted[0].OID != 3 || sorted[1].OID != 7 {
		t.Fatalf("sort order broken: %+v", sorted)
	}
	if sorted[1].Tmp != 12 || string(sorted[1].Val) != "newer" {
		t.Fatalf("newest-wins broken: %+v", sorted[1])
	}
	want := (20 + 5) + (20 + 1)
	if mt.RawBytes() != want {
		t.Fatalf("raw bytes = %d, want %d", mt.RawBytes(), want)
	}
}

// mtOf builds a memtable from (oid, tmp) pairs with generated values.
func mtOf(pairs ...[2]uint64) *Memtable {
	mt := NewMemtable()
	for _, pr := range pairs {
		mt.Insert(store.OID(pr[0]), pr[1], val(pr[0], pr[1]))
	}
	return mt
}

// TestTreeFlushGetScan: flushed versions are visible through Get and
// ScanAll with newest-wins across runs; an empty memtable degenerates to
// a manifest-only floor advance.
func TestTreeFlushGetScan(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		dev := newMemDevice()
		tr, err := NewTree(dev, Config{Preset: PresetNone})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tr.Flush(p, mtOf([2]uint64{1, 10}, [2]uint64{2, 11}), 11, nil, nil, nil); !ok {
			t.Fatal("flush 1 failed")
		}
		if _, ok := tr.Flush(p, mtOf([2]uint64{2, 20}, [2]uint64{3, 21}), 21, nil, nil, nil); !ok {
			t.Fatal("flush 2 failed")
		}
		res, ok := tr.Flush(p, NewMemtable(), 30, []byte("aux"), nil, nil)
		if !ok || !res.ManifestOnly || tr.SnapTmp() != 30 {
			t.Fatalf("manifest-only flush: res=%+v snapTmp=%d", res, tr.SnapTmp())
		}
		if got := tr.Stats(); got.Flushes != 2 || got.ManifestOnly != 1 {
			t.Fatalf("stats = %+v", got)
		}

		for _, want := range []Entry{
			{OID: 1, Tmp: 10}, {OID: 2, Tmp: 20}, {OID: 3, Tmp: 21},
		} {
			e, ok := tr.Get(p, want.OID)
			if !ok || e.Tmp != want.Tmp || !bytes.Equal(e.Val, val(uint64(want.OID), want.Tmp)) {
				t.Fatalf("Get(%d) = (%+v, %v), want tmp=%d", want.OID, e, ok, want.Tmp)
			}
		}
		if _, ok := tr.Get(p, 99); ok {
			t.Fatal("absent key reported present")
		}
		var got []Entry
		if !tr.ScanAll(p, func(e Entry) { got = append(got, e) }) {
			t.Fatal("ScanAll failed")
		}
		if len(got) != 3 || got[0].OID != 1 || got[1].OID != 2 || got[1].Tmp != 20 || got[2].OID != 3 {
			t.Fatalf("ScanAll = %+v", got)
		}
	})
}

// TestTreeCompaction: L0 reaching the trigger folds into one L1 run with
// newest-wins contents, and an oversized L1 later spills into L2.
func TestTreeCompaction(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		dev := newMemDevice()
		tr, err := NewTree(dev, Config{Preset: PresetNone})
		if err != nil {
			t.Fatal(err)
		}
		// Tiny L1 target so the second compaction spills to L2.
		tr.levelBase = 256
		var tmp uint64
		fill := func() {
			for i := 0; i < DefaultL0Trigger; i++ {
				tmp += 10
				mt := mtOf([2]uint64{uint64(i), tmp}, [2]uint64{uint64(i + 1), tmp + 1}, [2]uint64{100 + tmp, tmp})
				if _, ok := tr.Flush(p, mt, tmp+1, nil, nil, nil); !ok {
					t.Fatal("flush failed")
				}
			}
		}
		fill()
		if !tr.NeedsCompaction() {
			t.Fatal("L0 at trigger but NeedsCompaction is false")
		}
		res, ok := tr.CompactOnce(p, nil)
		if !ok || res.DstLevel != 1 || res.InputRuns != DefaultL0Trigger {
			t.Fatalf("compaction 1: res=%+v ok=%v", res, ok)
		}
		if len(tr.levels[0]) != 0 || len(tr.levels[1]) != 1 {
			t.Fatalf("levels after L0 fold: L0=%d L1=%d", len(tr.levels[0]), len(tr.levels[1]))
		}
		// Newest-wins: object 1 was written at tmp 11 (run 1) and tmp 20
		// (run 2); the fold must keep 20.
		if e, ok := tr.Get(p, 1); !ok || e.Tmp != 20 {
			t.Fatalf("Get(1) after compaction = (%+v, %v), want tmp=20", e, ok)
		}
		// Input segments are GC'd; the output segment exists.
		if len(dev.segs) != 1 {
			t.Fatalf("segments after compaction = %d, want 1", len(dev.segs))
		}

		// Refill L0 and fold again; L1 (now oversized vs levelBase=256)
		// spills its oldest run into L2 on a further compaction.
		fill()
		if _, ok := tr.CompactOnce(p, nil); !ok {
			t.Fatal("compaction 2 failed")
		}
		if !tr.NeedsCompaction() {
			t.Fatal("oversized L1 not scheduled")
		}
		res, ok = tr.CompactOnce(p, nil)
		if !ok || res.DstLevel != 2 {
			t.Fatalf("spill compaction: res=%+v ok=%v", res, ok)
		}
		// All live values still resolve to their newest version.
		if e, ok := tr.Get(p, 0); !ok || e.Tmp != tmp-30 {
			t.Fatalf("Get(0) after spill = (%+v, %v), want tmp=%d", e, ok, tmp-30)
		}
	})
}

// TestTreeAbortsLeaveTreeUnchanged: a crash signal during flush or
// compaction abandons the partial output, leaves the run set and the
// manifest exactly as before, and counts the abort.
func TestTreeAbortsLeaveTreeUnchanged(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		dev := newMemDevice()
		tr, err := NewTree(dev, Config{Preset: PresetNone})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < DefaultL0Trigger; i++ {
			if _, ok := tr.Flush(p, mtOf([2]uint64{uint64(i), uint64(10 + i)}), uint64(10+i), nil, nil, nil); !ok {
				t.Fatal("seed flush failed")
			}
		}
		manifestBefore := append([]byte(nil), dev.manifest...)
		segsBefore := len(dev.segs)
		seqBefore := tr.ManifestSeq()

		crashed := func() bool { return true }
		if _, ok := tr.Flush(p, mtOf([2]uint64{50, 99}), 99, nil, nil, crashed); ok {
			t.Fatal("flush survived a crash signal")
		}
		if _, ok := tr.CompactOnce(p, crashed); ok {
			t.Fatal("compaction survived a crash signal")
		}
		st := tr.Stats()
		if st.FlushAborts != 1 || st.CompactionAborts != 1 {
			t.Fatalf("abort counts = %d/%d, want 1/1", st.FlushAborts, st.CompactionAborts)
		}
		if tr.ManifestSeq() != seqBefore || !bytes.Equal(dev.manifest, manifestBefore) {
			t.Fatal("aborted operation moved the manifest")
		}
		if len(dev.segs) != segsBefore {
			t.Fatalf("aborted operation leaked segments: %d, was %d", len(dev.segs), segsBefore)
		}
		if len(tr.levels[0]) != DefaultL0Trigger {
			t.Fatalf("run set changed: L0=%d", len(tr.levels[0]))
		}
		// The tree still works afterwards.
		if _, ok := tr.Flush(p, mtOf([2]uint64{50, 100}), 100, nil, nil, nil); !ok {
			t.Fatal("flush after aborts failed")
		}
		if e, ok := tr.Get(p, 50); !ok || e.Tmp != 100 {
			t.Fatalf("Get(50) = (%+v, %v)", e, ok)
		}
	})
}

// TestHalfSyncedRunDetected: a run whose segment lost its synced suffix
// (crash between append and sync) fails reads instead of serving torn
// data.
func TestHalfSyncedRunDetected(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		dev := newMemDevice()
		tr, err := NewTree(dev, Config{Preset: PresetNone})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tr.Flush(p, mtOf([2]uint64{1, 10}, [2]uint64{2, 11}), 11, nil, nil, nil); !ok {
			t.Fatal("flush failed")
		}
		run := tr.levels[0][0]
		run.handles, run.bloom = nil, nil // force a reopen
		seg := dev.segs[run.Name]
		seg.synced = run.MetaOff / 2 // durable prefix ends mid-data

		if _, ok := tr.Get(p, 1); ok {
			t.Fatal("Get served from a half-synced run")
		}
		if tr.ScanAll(p, func(Entry) {}) {
			t.Fatal("ScanAll succeeded over a half-synced run")
		}
	})
}

// TestManifestRoundtrip: LoadTree reconstructs the exact run set, floor,
// and carried blobs; garbage manifests are rejected.
func TestManifestRoundtrip(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		dev := newMemDevice()
		cfg := Config{Preset: PresetNone}
		tr, err := NewTree(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < DefaultL0Trigger; i++ {
			if _, ok := tr.Flush(p, mtOf([2]uint64{uint64(i), uint64(10 + i)}, [2]uint64{40, uint64(20 + i)}), uint64(20+i), []byte("aux-blob"), []byte("extra-blob"), nil); !ok {
				t.Fatal("flush failed")
			}
		}
		if _, ok := tr.CompactOnce(p, nil); !ok {
			t.Fatal("compaction failed")
		}

		ld, ok := LoadTree(p, dev, cfg)
		if !ok {
			t.Fatal("LoadTree failed")
		}
		if ld.ManifestSeq() != tr.ManifestSeq() || ld.SnapTmp() != tr.SnapTmp() ||
			string(ld.Aux()) != "aux-blob" || string(ld.Extra()) != "extra-blob" {
			t.Fatalf("loaded header mismatch: seq=%d/%d snap=%d/%d aux=%q extra=%q",
				ld.ManifestSeq(), tr.ManifestSeq(), ld.SnapTmp(), tr.SnapTmp(), ld.Aux(), ld.Extra())
		}
		if ld.Runs() != tr.Runs() {
			t.Fatalf("run count %d, want %d", ld.Runs(), tr.Runs())
		}
		for lvl := range tr.levels {
			if len(ld.levels[lvl]) != len(tr.levels[lvl]) {
				t.Fatalf("level %d count mismatch", lvl)
			}
			for i, r := range tr.levels[lvl] {
				lr := ld.levels[lvl][i]
				if lr.Name != r.Name || lr.Seq != r.Seq || lr.Records != r.Records ||
					lr.MinOID != r.MinOID || lr.MaxOID != r.MaxOID ||
					lr.RawData != r.RawData || lr.PhysData != r.PhysData ||
					lr.Total != r.Total || lr.MetaOff != r.MetaOff {
					t.Fatalf("level %d run %d mismatch: %+v vs %+v", lvl, i, lr, r)
				}
			}
		}
		// The loaded tree reads the same data.
		var a, b []Entry
		if !tr.ScanAll(p, func(e Entry) { a = append(a, e) }) ||
			!ld.ScanAll(p, func(e Entry) { b = append(b, e) }) {
			t.Fatal("scan failed")
		}
		if len(a) != len(b) {
			t.Fatalf("scan lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].OID != b[i].OID || a[i].Tmp != b[i].Tmp || !bytes.Equal(a[i].Val, b[i].Val) {
				t.Fatalf("scan[%d] differs: %+v vs %+v", i, a[i], b[i])
			}
		}

		if _, ok := DecodeManifest([]byte("not a manifest at all"), cfg); ok {
			t.Fatal("garbage manifest decoded")
		}
		if _, ok := DecodeManifest(nil, cfg); ok {
			t.Fatal("nil manifest decoded")
		}
	})
}

// TestFlushDuringCompactionSurvives: an L0 run appended while a
// compaction is asleep in its rate-limited writeback must survive the
// compaction's installation.
func TestFlushDuringCompactionSurvives(t *testing.T) {
	s := sim.NewScheduler()
	dev := newMemDevice()
	tr, err := NewTree(dev, Config{Preset: PresetNone})
	if err != nil {
		t.Fatal(err)
	}
	// A very low compaction rate stretches writeback over ~100ns per
	// physical byte, giving the flusher a wide window to land inside.
	tr.compactionRate = 0.01
	var compRes CompactResult
	var compOK bool
	s.Spawn("flusher", func(p *sim.Proc) {
		for i := 0; i < DefaultL0Trigger; i++ {
			if _, ok := tr.Flush(p, mtOf([2]uint64{uint64(i), uint64(10 + i)}), uint64(10+i), nil, nil, nil); !ok {
				t.Error("seed flush failed")
			}
		}
		// The compactor starts at 40µs; by then L0 is full. Land one more
		// flush inside its writeback sleep.
		p.Sleep(45 * sim.Microsecond)
		if _, ok := tr.Flush(p, mtOf([2]uint64{77, 99}), 99, nil, nil, nil); !ok {
			t.Error("racing flush failed")
		}
	})
	s.SpawnAfter(40*sim.Microsecond, "compactor", func(p *sim.Proc) {
		compRes, compOK = tr.CompactOnce(p, nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !compOK || compRes.InputRuns != DefaultL0Trigger {
		t.Fatalf("compaction: res=%+v ok=%v", compRes, compOK)
	}
	// The racing flush's run must still be in L0 alongside the L1 output.
	if len(tr.levels[0]) != 1 || len(tr.levels[1]) != 1 {
		t.Fatalf("levels = L0:%d L1:%d, want 1/1", len(tr.levels[0]), len(tr.levels[1]))
	}
	s2 := sim.NewScheduler()
	s2.Spawn("verify", func(p *sim.Proc) {
		if e, ok := tr.Get(p, 77); !ok || e.Tmp != 99 {
			t.Errorf("racing flush's write lost: (%+v, %v)", e, ok)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCodecCostModel: preset table sanity — physical sizes, the
// incompressible floor, and the pipelined cost split.
func TestCodecCostModel(t *testing.T) {
	cases := []struct {
		preset string
		raw    int
		phys   int
		bw     float64 // expected compress cost = raw/bw ns; 0 means free
	}{
		{PresetNone, 4096, 4096, 0},
		{PresetSnappy, 4096, 2252, 3.0},
		{PresetZstd, 4096, 1556, 1.1},
		{PresetSnappy, 64, 64, 0},    // at the floor: stored raw, no CPU
		{PresetSnappy, 100, 64, 3.0}, // phys clamped to the floor
	}
	for _, tc := range cases {
		c, err := CodecFor(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.PhysSize(tc.raw); got != tc.phys {
			t.Errorf("%s PhysSize(%d) = %d, want %d", tc.preset, tc.raw, got, tc.phys)
		}
		var want sim.Duration
		if tc.bw > 0 {
			want = sim.Duration(float64(tc.raw) / tc.bw)
		}
		if got := c.CompressCost(tc.raw); got != want {
			t.Errorf("%s CompressCost(%d) = %v, want %v", tc.preset, tc.raw, got, want)
		}
	}
	if _, err := CodecFor("brotli"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if c, err := CodecFor(""); err != nil || c.Name != PresetSnappy {
		t.Fatalf("empty preset: %+v, %v", c, err)
	}
}
