package persist

import (
	"testing"

	"heron/internal/sim"
)

// runDisk executes body as a single simulated process and drains the
// scheduler, failing the test on any scheduler error.
func runDisk(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	s := sim.NewScheduler()
	s.Spawn("disk-test", body)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// elapse measures the virtual time fn charges.
func elapse(p *sim.Proc, fn func()) sim.Duration {
	t0 := p.Now()
	fn()
	return sim.Duration(p.Now() - t0)
}

func TestDiskCostModel(t *testing.T) {
	runDisk(t, func(p *sim.Proc) {
		d := NewDisk(DiskConfig{})
		seg := d.CreateSegment("s")

		// An append charges pure streaming bandwidth: 2200 B at 2.2 B/ns.
		if got := elapse(p, func() { seg.AppendCharged(p, make([]byte, 2200), 0) }); got != 999*sim.Nanosecond {
			t.Fatalf("append cost = %v, want 999ns (2200/2.2, float-truncated)", got)
		}
		// Empty appends are free.
		if got := elapse(p, func() { seg.AppendCharged(p, nil, 0) }); got != 0 {
			t.Fatalf("empty append cost = %v, want 0", got)
		}
		// Sync charges write + flush latency, independent of size.
		if got := elapse(p, func() { seg.Sync(p) }); got != 46*sim.Microsecond {
			t.Fatalf("sync cost = %v, want 46µs", got)
		}
		// Reading the synced prefix charges first-byte latency + streaming:
		// 80µs + 2200/3.2 ns.
		if got := elapse(p, func() { seg.ReadAt(p, 0, 2200, 0) }); got != 80*sim.Microsecond+687*sim.Nanosecond {
			t.Fatalf("read cost = %v, want 80.687µs", got)
		}
		// Manifest swap models write-new + fsync + rename + fsync-dir.
		if got := elapse(p, func() { d.WriteManifest(p, make([]byte, 2200)) }); got != 76*sim.Microsecond+999*sim.Nanosecond {
			t.Fatalf("manifest write cost = %v, want 76.999µs", got)
		}
		if got := elapse(p, func() { d.ReadManifest(p) }); got != 80*sim.Microsecond+687*sim.Nanosecond {
			t.Fatalf("manifest read cost = %v, want 80.687µs", got)
		}

		st := d.Stats()
		if st.AppendedBytes != 2200 || st.Syncs != 1 || st.ReadBytes != 2200 || st.ManifestWrites != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestSyncExtendsDurablePrefix(t *testing.T) {
	runDisk(t, func(p *sim.Proc) {
		d := NewDisk(DiskConfig{})
		seg := d.CreateSegment("s")
		seg.AppendCharged(p, []byte("durable-"), 0)
		seg.Sync(p)
		// Appended after the sync: lost to a crash, invisible to readers.
		seg.AppendCharged(p, []byte("volatile"), 0)
		if seg.Size() != 16 || seg.Durable() != 8 {
			t.Fatalf("size=%d durable=%d, want 16/8", seg.Size(), seg.Durable())
		}
		if got, ok := seg.ReadAt(p, 0, 8, 0); !ok || string(got) != "durable-" {
			t.Fatalf("synced-prefix read = %q, %v", got, ok)
		}
		if _, ok := seg.ReadAt(p, 0, 16, 0); ok {
			t.Fatal("read past the synced prefix succeeded")
		}
		// A second sync extends the durable prefix.
		seg.Sync(p)
		if got, ok := seg.ReadAt(p, 0, 16, 0); !ok || string(got) != "durable-volatile" {
			t.Fatalf("read after resync = %q, %v", got, ok)
		}
	})
}

func TestManifestAtomicSwap(t *testing.T) {
	runDisk(t, func(p *sim.Proc) {
		d := NewDisk(DiskConfig{})
		// No manifest yet: read is free and returns nil.
		if got := elapse(p, func() {
			if d.ReadManifest(p) != nil {
				t.Fatal("manifest present before first swap")
			}
		}); got != 0 {
			t.Fatalf("missing-manifest read charged %v", got)
		}
		d.WriteManifest(p, []byte("v1"))
		d.WriteManifest(p, []byte("v2-longer"))
		if got := string(d.ReadManifest(p)); got != "v2-longer" {
			t.Fatalf("manifest = %q, want the newest swap", got)
		}
		// The returned slice is a copy: mutating it must not corrupt the
		// stored manifest.
		m := d.ReadManifest(p)
		m[0] = 'X'
		if got := string(d.Manifest()); got != "v2-longer" {
			t.Fatalf("manifest aliased by reader: %q", got)
		}
	})
}

func TestSegmentLifecycle(t *testing.T) {
	runDisk(t, func(p *sim.Proc) {
		d := NewDisk(DiskConfig{})
		d.CreateSegment("a")
		d.CreateSegment("b")
		if d.Segments() != 2 || d.Segment("a") == nil || d.Segment("a").Name() != "a" {
			t.Fatalf("segment bookkeeping broken: n=%d", d.Segments())
		}
		d.RemoveSegment("a")
		if d.Segments() != 1 || d.Segment("a") != nil {
			t.Fatal("RemoveSegment did not delete")
		}
		// Removing a missing segment is a no-op.
		d.RemoveSegment("missing")

		defer func() {
			if recover() == nil {
				t.Fatal("duplicate CreateSegment did not panic")
			}
		}()
		d.CreateSegment("b")
	})
}
