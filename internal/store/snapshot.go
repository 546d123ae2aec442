package store

import (
	"encoding/binary"
	"fmt"
)

// Copy-on-write snapshots let a checkpoint engine stream a consistent
// image of the store through a slow medium while execution continues.
//
// A snapshot at timestamp snapTmp must observe, for every object, the
// version a request with timestamp snapTmp+1 would read: the newest
// version with tmp <= snapTmp. Dual-versioning already protects that
// version against the FIRST post-snapshot write (which overwrites the
// older of the two versions); the Set path preserves the raw slot aside
// before the first write to each not-yet-captured object, so any number
// of writes can land while the writer drains. No execution ever stalls:
// Set copies at most one slot, and only once per object per snapshot.
type snapshotState struct {
	tmp   uint64
	cow   map[OID][]byte // pre-write slot images, keyed by object
	saved map[OID]bool   // objects already captured by the writer
}

// BeginSnapshot opens a copy-on-write snapshot at snapTmp (normally the
// hosting replica's last executed timestamp). Only one snapshot may be
// open at a time; the caller must EndSnapshot when done.
func (s *Store) BeginSnapshot(snapTmp uint64) {
	if s.snap != nil {
		panic("store: nested snapshot")
	}
	s.snap = &snapshotState{
		tmp:   snapTmp,
		cow:   make(map[OID][]byte),
		saved: make(map[OID]bool),
	}
}

// SnapshotSlot returns the raw slot bytes of oid as of the snapshot
// instant — the aside copy if a post-snapshot write preserved one, the
// live slot in place otherwise — and marks the object captured so later
// writes stop copying for it. The snapshot-visible version is recovered
// with DecodeSlot + ChooseVersion(a, b, snapTmp+1). The bytes are valid
// until the next write to the store: a caller that keeps them, or yields
// before it is done with them, copies them.
func (s *Store) SnapshotSlot(oid OID) ([]byte, bool) {
	if s.snap == nil {
		return nil, false
	}
	s.snap.saved[oid] = true
	if raw, held := s.snap.cow[oid]; held {
		delete(s.snap.cow, oid)
		return raw, true
	}
	return s.slot(oid)
}

// EndSnapshot closes the snapshot and drops any remaining aside copies.
func (s *Store) EndSnapshot() { s.snap = nil }

// preserveForSnapshot is the Set-path hook: before the first
// post-snapshot write to a not-yet-captured object, copy the raw slot
// aside. At that moment the snapshot-visible version is still in the
// slot (dual-versioning guarantees the first overwrite targets the older
// version), so the copy is always consistent.
func (s *Store) preserveForSnapshot(oid OID) {
	if s.snap == nil || s.snap.saved[oid] {
		return
	}
	if _, held := s.snap.cow[oid]; held {
		return
	}
	if raw, ok := s.CopySlot(oid); ok {
		s.snap.cow[oid] = raw
	}
}

// RestoreVersion installs val as the sole version of oid with timestamp
// tmp — the checkpoint-recovery write path. The other version slot is
// explicitly zeroed: in the simulation the region is ordinary memory that
// survives a crash, and a stale pre-crash version newer than the restored
// one must not leak into post-recovery reads.
func (s *Store) RestoreVersion(oid OID, val []byte, tmp uint64) error {
	m, ok := s.meta[oid]
	if !ok {
		return fmt.Errorf("%w: oid %d", ErrUnknown, oid)
	}
	if len(val) > m.max {
		return fmt.Errorf("%w: %d > %d (oid %d)", ErrTooLarge, len(val), m.max, oid)
	}
	buf := s.region.Bytes()
	s.writeVersion(buf, m.off, m.max, 0, tmp, val)
	off := m.off + versionHdr + m.max
	binary.LittleEndian.PutUint64(buf[off:off+8], 0)
	binary.LittleEndian.PutUint32(buf[off+8:off+12], 0)
	return nil
}
