package persist

import (
	"testing"

	"heron/internal/lsm"
	"heron/internal/sim"
)

// TestAppendChargedDecouplesStoredFromCharged: the LSM path stores raw
// bytes but charges the modeled compressed size; cost and stats must
// follow the charged volume, reads must return the stored bytes.
func TestAppendChargedDecoupled(t *testing.T) {
	runDisk(t, func(p *sim.Proc) {
		d := NewDisk(DiskConfig{})
		seg := d.CreateSegment("s")
		raw := make([]byte, 1000)
		for i := range raw {
			raw[i] = byte(i)
		}
		// 550 charged bytes at 2.2 B/ns, independent of len(raw)
		// (float-truncated like every bandwidth charge).
		if got := elapse(p, func() { seg.AppendCharged(p, raw, 550) }); got != 249*sim.Nanosecond {
			t.Fatalf("charged append cost = %v, want 249ns (550/2.2, float-truncated)", got)
		}
		if st := d.Stats(); st.AppendedBytes != 550 {
			t.Fatalf("AppendedBytes = %d, want the charged size 550", st.AppendedBytes)
		}
		if seg.Size() != 1000 {
			t.Fatalf("stored size = %d, want the raw size 1000", seg.Size())
		}
		seg.Sync(p)

		// ReadAt charges first-byte latency + charged bytes at 3.2 B/ns
		// while returning the stored range.
		var got []byte
		var ok bool
		cost := elapse(p, func() { got, ok = seg.ReadAt(p, 100, 200, 3200) })
		if !ok || cost != 80*sim.Microsecond+1000*sim.Nanosecond {
			t.Fatalf("ReadAt cost = %v ok=%v, want 81µs", cost, ok)
		}
		if len(got) != 200 || got[0] != raw[100] || got[199] != raw[299] {
			t.Fatalf("ReadAt returned wrong stored bytes")
		}
		if st := d.Stats(); st.ReadBytes != 3200 {
			t.Fatalf("ReadBytes = %d, want the charged size 3200", st.ReadBytes)
		}
		// charged <= 0 falls back to the stored length.
		if cost := elapse(p, func() { _, _ = seg.ReadAt(p, 0, 320, 0) }); cost != 80*sim.Microsecond+100*sim.Nanosecond {
			t.Fatalf("fallback-charged ReadAt cost = %v", cost)
		}
	})
}

// TestReadAtClampsToSyncedPrefix: any range extending past the durable
// prefix fails for free — the crash-visibility rule at byte granularity.
func TestReadAtClampsToSyncedPrefix(t *testing.T) {
	runDisk(t, func(p *sim.Proc) {
		d := NewDisk(DiskConfig{})
		seg := d.CreateSegment("s")
		seg.AppendCharged(p, []byte("durable!"), 0)
		seg.Sync(p)
		seg.AppendCharged(p, []byte("volatile"), 0)
		for _, rg := range [][2]int{{0, 9}, {8, 1}, {4, 8}, {-1, 4}, {0, -1}, {16, 1}} {
			var ok bool
			cost := elapse(p, func() { _, ok = seg.ReadAt(p, rg[0], rg[1], 0) })
			if ok || cost != 0 {
				t.Fatalf("ReadAt(%d,%d) = ok=%v cost=%v, want free failure", rg[0], rg[1], ok, cost)
			}
		}
		if got, ok := seg.ReadAt(p, 0, 8, 0); !ok || string(got) != "durable!" {
			t.Fatalf("synced-prefix read = %q, %v", got, ok)
		}
	})
}

// TestSegmentGCRacesInFlightAppend: removing a segment while another
// proc is asleep inside its append must not disturb the writer — the
// write completes into the detached object (unlink-of-open-file
// semantics) and the name is immediately reusable.
func TestSegmentGCRacesInFlightAppend(t *testing.T) {
	s := sim.NewScheduler()
	d := NewDisk(DiskConfig{})
	seg := d.CreateSegment("lsm-00000001")
	var wrote bool
	s.Spawn("writer", func(p *sim.Proc) {
		// 220000 bytes at 2.2 B/ns = 100µs asleep mid-append.
		seg.AppendCharged(p, make([]byte, 220000), 0)
		seg.Sync(p)
		wrote = true
	})
	s.SpawnAfter(50*sim.Microsecond, "gc", func(p *sim.Proc) {
		d.RemoveSegment("lsm-00000001")
		// The name is free again while the old writer is still in flight.
		d.CreateSegment("lsm-00000001")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("in-flight append did not complete after GC")
	}
	// The writer's bytes went to the detached object, not the new segment.
	if got := d.Segment("lsm-00000001").Size(); got != 0 {
		t.Fatalf("recreated segment holds %d bytes from the detached writer", got)
	}
	if seg.Durable() != 220000 {
		t.Fatalf("detached segment durable = %d, want 220000", seg.Durable())
	}
}

// TestLSMCrashMidManifestSwap: a flush abandoned between its run sync
// and the manifest swap must leave the durable image at the previous
// manifest — recovery sees the old run set, and an orphaned half-synced
// segment is never referenced.
func TestLSMCrashMidManifestSwap(t *testing.T) {
	runDisk(t, func(p *sim.Proc) {
		d := NewDisk(DiskConfig{})
		cfg := lsm.Config{Preset: lsm.PresetNone}
		tr, err := lsm.NewTree(deviceAdapter{d}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mt := lsm.NewMemtable()
		mt.Insert(1, 10, []byte("alpha"))
		mt.Insert(2, 11, []byte("beta"))
		if _, ok := tr.Flush(p, mt, 11, nil, nil, nil); !ok {
			t.Fatal("seed flush failed")
		}
		manifestBefore := append([]byte(nil), d.Manifest()...)

		// Crash signal fires when the flush polls after its sync, before
		// the swap: the output segment is rolled back.
		mt2 := lsm.NewMemtable()
		mt2.Insert(3, 20, []byte("gamma"))
		if _, ok := tr.Flush(p, mt2, 20, nil, nil, func() bool { return true }); ok {
			t.Fatal("flush survived a crash signal")
		}
		if string(d.Manifest()) != string(manifestBefore) {
			t.Fatal("aborted flush moved the manifest")
		}
		if d.Segments() != 1 {
			t.Fatalf("aborted flush leaked segments: %d", d.Segments())
		}

		// A torn segment from a crash mid-append (no sync, no manifest
		// reference) must not confuse recovery.
		torn := d.CreateSegment("lsm-torn")
		torn.AppendCharged(p, []byte("half-written run data"), 0)

		re, ok := lsm.LoadTree(p, deviceAdapter{d}, cfg)
		if !ok || re.SnapTmp() != 11 {
			t.Fatalf("recovery: ok=%v snapTmp=%d, want 11", ok, re.SnapTmp())
		}
		var oids []uint64
		if !re.ScanAll(p, func(e lsm.Entry) { oids = append(oids, uint64(e.OID)) }) {
			t.Fatal("recovered tree failed to scan")
		}
		if len(oids) != 2 || oids[0] != 1 || oids[1] != 2 {
			t.Fatalf("recovered objects = %v, want [1 2]", oids)
		}
	})
}
