// Package store implements Heron's dual-versioned object store.
//
// Every object keeps two versions, each tagged with the timestamp of the
// request that created it (Section III-A of the paper). Readers take the
// version with the highest timestamp smaller than the reading request's
// timestamp; writers overwrite the older version. This lets remote
// replicas read objects over one-sided RDMA while the hosting replica
// updates them, without locks: a request with timestamp T always finds
// the pre-T value as long as the host is at most one update ahead.
//
// Objects live in a single RDMA-registered region in a fixed binary
// layout, so one READ fetches both versions of an object
// (Algorithm 2, line 19: res, val1, val2 <- rdma_read). Replicas of the
// same partition register objects in the same order, which makes slot
// addresses symmetric across the partition — the property Heron's state
// transfer relies on when writing recovered slots into a lagger.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"heron/internal/rdma"
)

// OID identifies an application object. Applications define the mapping
// (e.g. TPCC packs table and primary key into the 64 bits).
type OID uint64

// Versioned is one decoded object version.
type Versioned struct {
	Val []byte
	Tmp uint64
}

// Store errors.
var (
	// ErrCapacity is returned when the backing region cannot fit a slot.
	ErrCapacity = errors.New("store: region capacity exhausted")
	// ErrDuplicate is returned when an OID is registered twice.
	ErrDuplicate = errors.New("store: object already registered")
	// ErrUnknown is returned for operations on unregistered objects.
	ErrUnknown = errors.New("store: unknown object")
	// ErrTooLarge is returned when a value exceeds the slot's max size.
	ErrTooLarge = errors.New("store: value exceeds registered max size")
)

// versionHdr is the per-version header: tmp u64, len u32, pad u32.
const versionHdr = 16

// slotMeta locates one object inside the region.
type slotMeta struct {
	off int
	max int
}

// Store is a replica's local object memory.
type Store struct {
	node   *rdma.Node
	region *rdma.Region
	used   int
	meta   map[OID]slotMeta
	order  []OID
	log    *UpdateLog
	// snap is the open copy-on-write snapshot, nil outside checkpoints
	// (see snapshot.go).
	snap *snapshotState
}

// New allocates a store with the given region capacity in bytes.
func New(node *rdma.Node, capacity int) *Store {
	return &Store{
		node:   node,
		region: node.RegisterRegion(capacity),
		meta:   make(map[OID]slotMeta),
		log:    NewUpdateLog(),
	}
}

// SlotSize returns the region footprint of an object with the given max
// value size.
func SlotSize(max int) int { return 2 * (versionHdr + max) }

// Register allocates a dual-version slot for oid able to hold values up
// to maxSize bytes. Registration order determines slot addresses, so
// replicas of one partition must register identically.
func (s *Store) Register(oid OID, maxSize int) error {
	if _, dup := s.meta[oid]; dup {
		return fmt.Errorf("%w: oid %d", ErrDuplicate, oid)
	}
	size := SlotSize(maxSize)
	if s.used+size > s.region.Len() {
		return fmt.Errorf("%w: need %d bytes, %d free", ErrCapacity, size, s.region.Len()-s.used)
	}
	s.meta[oid] = slotMeta{off: s.used, max: maxSize}
	s.order = append(s.order, oid)
	s.used += size
	return nil
}

// SlotMax returns the registered maximum value size of an object —
// migration targets replicate a source replica's slot layout from
// Objects() order plus these sizes.
func (s *Store) SlotMax(oid OID) (int, bool) {
	m, ok := s.meta[oid]
	return m.max, ok
}

// Init installs the initial value of an object with timestamp 0, so any
// request observes it. It must be called before the object is read.
func (s *Store) Init(oid OID, val []byte) error {
	m, ok := s.meta[oid]
	if !ok {
		return fmt.Errorf("%w: oid %d", ErrUnknown, oid)
	}
	if len(val) > m.max {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(val), m.max)
	}
	buf := s.region.Bytes()
	// Write version A with tmp 0; leave version B zeroed (tmp 0, len 0 —
	// the zero-length version is still "older or equal", and Get prefers
	// A on ties by taking the first maximal version).
	s.writeVersion(buf, m.off, m.max, 0, 0, val)
	return nil
}

// writeVersion serializes one version into the region.
func (s *Store) writeVersion(buf []byte, slotOff, max, verIdx int, tmp uint64, val []byte) {
	off := slotOff + verIdx*(versionHdr+max)
	binary.LittleEndian.PutUint64(buf[off:off+8], tmp)
	binary.LittleEndian.PutUint32(buf[off+8:off+12], uint32(len(val)))
	copy(buf[off+versionHdr:off+versionHdr+len(val)], val)
}

// readVersion peeks at one version's header and returns the version with
// Val aliasing buf (capacity capped at its length, so an append cannot
// spill into the neighbouring bytes). Nothing is copied.
func readVersion(buf []byte, slotOff, max, verIdx int) Versioned {
	off := slotOff + verIdx*(versionHdr+max)
	tmp := binary.LittleEndian.Uint64(buf[off : off+8])
	n := int(binary.LittleEndian.Uint32(buf[off+8 : off+12]))
	if n > max {
		n = max // defensive: corrupt header cannot escape the slot
	}
	start := off + versionHdr
	return Versioned{Val: buf[start : start+n : start+n], Tmp: tmp}
}

// copyVal copies a version's value out of the region, so the caller may
// keep it across later writes to the slot.
func copyVal(val []byte) []byte {
	out := make([]byte, len(val))
	copy(out, val)
	return out
}

// Get returns the newest version of a local object. During in-order
// execution the newest version is exactly the state all preceding
// requests produced. The value is a copy the caller owns.
func (s *Store) Get(oid OID) (val []byte, tmp uint64, ok bool) {
	m, found := s.meta[oid]
	if !found {
		return nil, 0, false
	}
	buf := s.region.Bytes()
	v := readVersion(buf, m.off, m.max, 0)
	if b := readVersion(buf, m.off, m.max, 1); b.Tmp > v.Tmp {
		v = b
	}
	return copyVal(v.Val), v.Tmp, true
}

// ViewAt returns the version a request with timestamp reqTmp must
// observe: the one with the highest timestamp strictly smaller than
// reqTmp. ok is false when no such version exists — the caller is a
// lagger. The value aliases the region (capacity capped at its length)
// and copies nothing: it is valid only until the next Set of oid, so a
// caller that keeps it, or yields before using it, copies it.
func (s *Store) ViewAt(oid OID, reqTmp uint64) (val []byte, tmp uint64, ok bool) {
	m, found := s.meta[oid]
	if !found {
		return nil, 0, false
	}
	buf := s.region.Bytes()
	v, chosen := ChooseVersion(
		readVersion(buf, m.off, m.max, 0),
		readVersion(buf, m.off, m.max, 1),
		reqTmp,
	)
	if !chosen {
		return nil, 0, false
	}
	return v.Val, v.Tmp, true
}

// GetAt is ViewAt with the value copied: a copy the caller owns.
func (s *Store) GetAt(oid OID, reqTmp uint64) (val []byte, tmp uint64, ok bool) {
	val, tmp, ok = s.ViewAt(oid, reqTmp)
	if !ok {
		return nil, 0, false
	}
	return copyVal(val), tmp, true
}

// Set writes val as a new version created by the request with timestamp
// tmp, overwriting the older version (Algorithm 2, write_objects). The
// update is recorded in the update log for state transfer.
func (s *Store) Set(oid OID, val []byte, tmp uint64) error {
	m, ok := s.meta[oid]
	if !ok {
		return fmt.Errorf("%w: oid %d", ErrUnknown, oid)
	}
	if len(val) > m.max {
		return fmt.Errorf("%w: %d > %d (oid %d)", ErrTooLarge, len(val), m.max, oid)
	}
	s.preserveForSnapshot(oid)
	buf := s.region.Bytes()
	tmpA := binary.LittleEndian.Uint64(buf[m.off : m.off+8])
	tmpB := binary.LittleEndian.Uint64(buf[m.off+versionHdr+m.max : m.off+versionHdr+m.max+8])
	// A request that writes the object again replaces its own version, so
	// the one older readers select survives. Otherwise overwrite the older
	// version; on a tie (fresh slot: Init wrote A and B is still zeroed)
	// overwrite B so the initial value survives.
	verIdx := 0
	switch {
	case tmp == tmpB:
		verIdx = 1
	case tmp == tmpA:
	case tmpA >= tmpB:
		verIdx = 1
	}
	s.writeVersion(buf, m.off, m.max, verIdx, tmp, val)
	s.log.Append(tmp, oid)
	s.node.WriteNotify().Broadcast()
	return nil
}

// Addr returns the fabric address and byte length of an object's slot for
// one-sided remote reads.
func (s *Store) Addr(oid OID) (rdma.Addr, int, bool) {
	m, ok := s.meta[oid]
	if !ok {
		return rdma.Addr{}, 0, false
	}
	return s.region.Addr(m.off), SlotSize(m.max), true
}

// CopySlot returns a copy of the raw bytes of an object's slot (both
// versions), the unit of Heron's state transfer.
func (s *Store) CopySlot(oid OID) ([]byte, bool) {
	raw, ok := s.slot(oid)
	if !ok {
		return nil, false
	}
	return bytes.Clone(raw), true
}

// slot returns the raw bytes of an object's slot in place: they alias the
// region, so the next write to the object changes them.
func (s *Store) slot(oid OID) ([]byte, bool) {
	m, ok := s.meta[oid]
	if !ok {
		return nil, false
	}
	return s.region.Bytes()[m.off : m.off+SlotSize(m.max)], true
}

// Registered reports whether oid has a slot.
func (s *Store) Registered(oid OID) bool {
	_, ok := s.meta[oid]
	return ok
}

// Objects returns all registered OIDs in registration order. The returned
// slice is shared; callers must not mutate it.
func (s *Store) Objects() []OID { return s.order }

// Used returns the number of region bytes allocated to slots.
func (s *Store) Used() int { return s.used }

// Log returns the update log.
func (s *Store) Log() *UpdateLog { return s.log }

// Region returns the backing RDMA region. State transfer reads slot bytes
// from it directly and writes them to the symmetric offsets of a lagger.
func (s *Store) Region() *rdma.Region { return s.region }

// Node returns the hosting node.
func (s *Store) Node() *rdma.Node { return s.node }

// DecodeSlot decodes both versions from raw slot bytes fetched by a
// remote READ. maxSize must match the registered max size. The returned
// values alias raw and copy nothing: the caller must own raw and not
// reuse it while either value is in use.
func DecodeSlot(raw []byte, maxSize int) (a, b Versioned, err error) {
	if len(raw) != SlotSize(maxSize) {
		return Versioned{}, Versioned{}, fmt.Errorf("store: slot of %d bytes, want %d", len(raw), SlotSize(maxSize))
	}
	return readVersion(raw, 0, maxSize, 0), readVersion(raw, 0, maxSize, 1), nil
}

// ChooseVersion picks the version a request with timestamp reqTmp must
// observe: the one with the highest timestamp strictly smaller than
// reqTmp (Algorithm 2, line 22). ok=false means both versions are too new
// — the reader's partition is lagging.
func ChooseVersion(a, b Versioned, reqTmp uint64) (Versioned, bool) {
	aOK := a.Tmp < reqTmp
	bOK := b.Tmp < reqTmp
	switch {
	case aOK && bOK:
		if b.Tmp > a.Tmp {
			return b, true
		}
		return a, true
	case aOK:
		return a, true
	case bOK:
		return b, true
	default:
		return Versioned{}, false
	}
}
