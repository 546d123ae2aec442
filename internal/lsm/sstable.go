package lsm

import (
	"fmt"
	"sort"

	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// Entry is one memtable/run record: the newest value of an object at or
// below the flush's snapshot timestamp.
type Entry struct {
	OID store.OID
	Tmp uint64
	Val []byte
}

// entryBytes is the encoded size of an entry in a data block:
// oid u64 + tmp u64 + length-prefixed value.
func entryBytes(e Entry) int { return 20 + len(e.Val) }

// runMagic terminates every SSTable footer.
const runMagic uint64 = 0x4845524f4e4c534d // "HERONLSM"

// footerBytes is the fixed encoded size of the footer (11 u64 fields).
const footerBytes = 11 * 8

// blockHandle locates one data block inside a run. Offsets and raw
// lengths address the stored (raw) byte stream; physLen is the modeled
// compressed size the block was charged at.
type blockHandle struct {
	First   store.OID
	Off     int
	RawLen  int
	PhysLen int
}

// Run is one immutable sorted table. The meta fields are recorded in
// the tree manifest; the open state (index + bloom) is loaded lazily on
// first read and charged as a single tail read.
type Run struct {
	Name     string
	Seq      uint64 // creation sequence; breaks tmp ties newest-wins
	Records  uint64
	MinOID   store.OID
	MaxOID   store.OID
	MinTmp   uint64
	MaxTmp   uint64
	RawData  uint64 // raw bytes of the data region
	PhysData uint64 // charged (compressed) bytes of the data region
	Total    uint64 // charged bytes including index/bloom/footer
	MetaOff  int    // raw offset where the metadata tail starts

	handles []blockHandle
	bloom   *bloomFilter
}

// opened reports whether the index and bloom are resident.
func (r *Run) opened() bool { return r.handles != nil }

// batchRead picks the charged read for one read of a batch: the batch's
// first read pays first-byte latency, every later one is queued behind
// it and pays bandwidth only. paid == nil means a standalone read
// (always full latency).
func batchRead(seg Segment, paid *bool) func(p *sim.Proc, off, n, charged int) ([]byte, bool) {
	if paid == nil || !*paid {
		if paid != nil {
			*paid = true
		}
		return seg.ReadAt
	}
	return seg.ReadAtQueued
}

// open loads the metadata tail (index + bloom + footer) in one charged
// read. Returns false when the segment is missing or half-synced — the
// durable prefix does not cover the footer, the signature of a crash
// between append and sync that the manifest never references (opening
// one indicates corruption).
func (r *Run) open(p *sim.Proc, dev Device, st *Stats, paid *bool) bool {
	if r.opened() {
		return true
	}
	seg, ok := dev.OpenSegment(r.Name)
	if !ok {
		return false
	}
	size := seg.Durable()
	n := size - r.MetaOff
	if n < footerBytes || r.MetaOff < 0 {
		return false
	}
	read := batchRead(seg, paid)
	io := timed(p, func() {
		var tail []byte
		tail, ok = read(p, r.MetaOff, n, n)
		if ok {
			ok = r.decodeMeta(tail)
		}
	})
	st.IOTimeNS += int64(io)
	return ok
}

// decodeMeta parses the metadata tail: index, bloom, footer.
func (r *Run) decodeMeta(tail []byte) bool {
	if len(tail) < footerBytes {
		return false
	}
	fr := wire.NewReader(tail[len(tail)-footerBytes:])
	indexOff := int(fr.U64())
	indexLen := int(fr.U64())
	bloomLen := int(fr.U64())
	records := fr.U64()
	minOID := store.OID(fr.U64())
	maxOID := store.OID(fr.U64())
	fr.U64() // minTmp (authoritative copy lives in the manifest)
	fr.U64() // maxTmp
	rawData := fr.U64()
	fr.U64() // physData
	if fr.U64() != runMagic || fr.Err() != nil {
		return false
	}
	if indexOff != r.MetaOff || records != r.Records || minOID != r.MinOID ||
		maxOID != r.MaxOID || rawData != r.RawData {
		return false
	}
	if indexLen+bloomLen+footerBytes != len(tail) {
		return false
	}
	ir := wire.NewReader(tail[:indexLen])
	nblocks := int(ir.U32())
	handles := make([]blockHandle, 0, nblocks)
	for i := 0; i < nblocks; i++ {
		h := blockHandle{
			First:   store.OID(ir.U64()),
			Off:     int(ir.U64()),
			RawLen:  int(ir.U32()),
			PhysLen: int(ir.U32()),
		}
		handles = append(handles, h)
	}
	if ir.Err() != nil {
		return false
	}
	bf, ok := decodeBloom(tail[indexLen : indexLen+bloomLen])
	if !ok {
		return false
	}
	r.handles = handles
	r.bloom = bf
	return true
}

// readBlock returns the raw bytes of block i, via the cache when
// possible. A miss charges the physical read plus overlapped
// decompression CPU. Returns nil when the segment's durable prefix does
// not cover the block.
func (r *Run) readBlock(p *sim.Proc, dev Device, codec Codec, cache *BlockCache, st *Stats, i int) []byte {
	h := r.handles[i]
	if raw, ok := cache.Get(r.Name, i); ok {
		st.CacheHits++
		return raw
	}
	st.CacheMisses++
	seg, ok := dev.OpenSegment(r.Name)
	if !ok {
		return nil
	}
	var raw []byte
	io := timed(p, func() {
		raw, ok = seg.ReadAt(p, h.Off, h.RawLen, h.PhysLen)
	})
	if !ok {
		st.IOTimeNS += int64(io)
		return nil
	}
	overlap(p, st, codec.DecompressCost(h.RawLen), io)
	cache.Put(r.Name, i, raw)
	return raw
}

// get performs a point lookup inside this run. The bloom filter screens
// absent keys before any I/O.
func (r *Run) get(p *sim.Proc, dev Device, codec Codec, cache *BlockCache, st *Stats, oid store.OID) (Entry, bool) {
	if oid < r.MinOID || oid > r.MaxOID {
		return Entry{}, false
	}
	if !r.open(p, dev, st, nil) {
		return Entry{}, false
	}
	if !r.bloom.mayContain(oidHash(oid)) {
		st.BloomNegatives++
		return Entry{}, false
	}
	// Last block whose first key is <= oid.
	i := sort.Search(len(r.handles), func(j int) bool { return r.handles[j].First > oid }) - 1
	if i < 0 {
		return Entry{}, false
	}
	raw := r.readBlock(p, dev, codec, cache, st, i)
	if raw == nil {
		return Entry{}, false
	}
	br := wire.NewReader(raw)
	for br.Remaining() > 0 {
		got := store.OID(br.U64())
		tmp := br.U64()
		val := br.Bytes()
		if br.Err() != nil {
			return Entry{}, false
		}
		if got == oid {
			return Entry{OID: got, Tmp: tmp, Val: val}, true
		}
		if got > oid {
			break
		}
	}
	return Entry{}, false
}

// scan streams the whole data region in one charged sequential read
// (bypassing the block cache — restores and compaction rate-limited
// paths manage their own charging) and invokes fn per record in key
// order. paid threads the batch's latency state when the caller reads
// several runs back-to-back (recovery). Returns false on a half-synced
// or corrupt run.
func (r *Run) scan(p *sim.Proc, dev Device, codec Codec, st *Stats, fn func(Entry), paid *bool) bool {
	if !r.open(p, dev, st, paid) {
		return false
	}
	seg, ok := dev.OpenSegment(r.Name)
	if !ok {
		return false
	}
	read := batchRead(seg, paid)
	var raw []byte
	io := timed(p, func() {
		raw, ok = read(p, 0, int(r.RawData), int(r.PhysData))
	})
	if !ok {
		st.IOTimeNS += int64(io)
		return false
	}
	overlap(p, st, codec.DecompressCost(int(r.RawData)), io)
	br := wire.NewReader(raw)
	for br.Remaining() > 0 {
		e := Entry{OID: store.OID(br.U64()), Tmp: br.U64()}
		e.Val = br.Bytes()
		if br.Err() != nil {
			return false
		}
		fn(e)
	}
	return true
}

// builder writes one sorted run block by block. The caller feeds
// entries in strictly ascending OID order and checks its abort signal
// between blocks (each block boundary is a virtual-time yield point).
type builder struct {
	dev     Device
	codec   Codec
	cache   *BlockCache
	st      *Stats
	name    string
	seq     uint64
	seg     Segment
	blk     *wire.Writer
	blkN    int
	first   store.OID
	handles []blockHandle
	hashes  []uint64
	run     *Run
	off     int
	phys    int
	// rate, when > 0, caps charged throughput (bytes/ns) by topping up
	// virtual time after each block — the compaction writeback limiter.
	rate float64
}

func newBuilder(dev Device, codec Codec, cache *BlockCache, st *Stats, name string, seq uint64) *builder {
	return &builder{
		dev: dev, codec: codec, cache: cache, st: st,
		name: name, seq: seq,
		seg: dev.CreateSegment(name),
		blk: wire.NewWriter(DefaultBlockBytes + 256),
		run: &Run{Name: name, Seq: seq},
	}
}

// add appends one entry; returns true when it closed a block (an abort
// checkpoint for the caller).
func (b *builder) add(p *sim.Proc, e Entry) bool {
	if b.run.Records == 0 {
		b.run.MinOID, b.run.MinTmp, b.run.MaxTmp = e.OID, e.Tmp, e.Tmp
	}
	if e.Tmp < b.run.MinTmp {
		b.run.MinTmp = e.Tmp
	}
	if e.Tmp > b.run.MaxTmp {
		b.run.MaxTmp = e.Tmp
	}
	b.run.MaxOID = e.OID
	if b.blkN == 0 {
		b.first = e.OID
	}
	b.blk.U64(uint64(e.OID))
	b.blk.U64(e.Tmp)
	b.blk.Bytes(e.Val)
	b.blkN++
	b.run.Records++
	b.hashes = append(b.hashes, oidHash(e.OID))
	if b.blk.Len() >= DefaultBlockBytes {
		b.flushBlock(p)
		return true
	}
	return false
}

// flushBlock writes the current block: the raw bytes are stored, the
// modeled compressed size is charged, and compression CPU overlaps the
// transfer under the max(io, cpu) model.
func (b *builder) flushBlock(p *sim.Proc) {
	if b.blkN == 0 {
		return
	}
	raw := b.blk.Finish()
	phys := b.codec.PhysSize(len(raw))
	io := timed(p, func() { b.seg.AppendCharged(p, raw, phys) })
	overlap(p, b.st, b.codec.CompressCost(len(raw)), io)
	if b.rate > 0 {
		floor := sim.Duration(float64(phys) / b.rate)
		if spent := maxDur(io, b.codec.CompressCost(len(raw))); spent < floor {
			p.Sleep(floor - spent)
		}
	}
	if b.cache != nil {
		b.cache.Put(b.name, len(b.handles), raw)
	}
	b.handles = append(b.handles, blockHandle{First: b.first, Off: b.off, RawLen: len(raw), PhysLen: phys})
	b.off += len(raw)
	b.phys += phys
	b.blk = wire.NewWriter(DefaultBlockBytes + 256)
	b.blkN = 0
}

func maxDur(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}

// abandon removes the partially-written segment (crash cleanup).
func (b *builder) abandon() {
	b.dev.RemoveSegment(b.name)
	if b.cache != nil {
		b.cache.DropRun(b.name)
	}
}

// finish seals the run: metadata tail (index + bloom + footer, charged
// uncompressed) followed by a sync. The caller still owns the abort
// check between finish and manifest installation.
func (b *builder) finish(p *sim.Proc) *Run {
	b.flushBlock(p)
	if b.run.Records == 0 {
		b.abandon()
		return nil
	}
	b.run.RawData = uint64(b.off)
	b.run.PhysData = uint64(b.phys)
	b.run.MetaOff = b.off

	iw := wire.NewWriter(16 + 24*len(b.handles))
	iw.U32(uint32(len(b.handles)))
	for _, h := range b.handles {
		iw.U64(uint64(h.First))
		iw.U64(uint64(h.Off))
		iw.U32(uint32(h.RawLen))
		iw.U32(uint32(h.PhysLen))
	}
	index := iw.Finish()
	bloom := newBloom(len(b.hashes), DefaultBloomBits)
	for _, h := range b.hashes {
		bloom.add(h)
	}
	bloomBytes := bloom.encode()

	fw := wire.NewWriter(footerBytes)
	fw.U64(uint64(b.run.MetaOff))
	fw.U64(uint64(len(index)))
	fw.U64(uint64(len(bloomBytes)))
	fw.U64(b.run.Records)
	fw.U64(uint64(b.run.MinOID))
	fw.U64(uint64(b.run.MaxOID))
	fw.U64(b.run.MinTmp)
	fw.U64(b.run.MaxTmp)
	fw.U64(b.run.RawData)
	fw.U64(b.run.PhysData)
	fw.U64(runMagic)

	tail := append(append(index, bloomBytes...), fw.Finish()...)
	io := timed(p, func() {
		b.seg.AppendCharged(p, tail, len(tail))
		b.seg.Sync(p)
	})
	b.st.IOTimeNS += int64(io)

	b.run.Total = uint64(b.phys + len(tail))
	b.run.handles = b.handles
	b.run.bloom = bloom
	return b.run
}

// runName formats the canonical segment name for run sequence seq.
func runName(seq uint64) string { return fmt.Sprintf("lsm-%08d", seq) }
