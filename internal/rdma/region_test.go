package rdma

import (
	"bytes"
	"runtime"
	"testing"

	"heron/internal/sim"
)

// run spawns fn as one process and runs the scheduler to quiescence.
func run(t *testing.T, s *sim.Scheduler, fn func(p *sim.Proc)) {
	t.Helper()
	s.Spawn("verbs", fn)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// regionBytes returns a copy of reg's n bytes at off, as a READ's DMA
// sees them.
func regionBytes(reg *Region, off, n int) []byte {
	b := make([]byte, n)
	reg.read(b, off)
	return b
}

// readBack READs length bytes at off of reg over qp, synchronously and
// through a posted READ, and fails unless both return want.
func readBack(t *testing.T, s *sim.Scheduler, qp *QP, reg *Region, off int, want []byte) {
	t.Helper()
	var got, posted []byte
	cq := qp.Local().NewCQ()
	run(t, s, func(p *sim.Proc) {
		var err error
		if got, err = qp.Read(p, reg.Addr(off), len(want)); err != nil {
			t.Error(err)
			return
		}
		if _, err := qp.PostRead(p, cq, reg.Addr(off), len(want)); err != nil {
			t.Error(err)
			return
		}
		posted = bytes.Clone(cq.WaitAll(p)[0].Data())
	})
	if !bytes.Equal(got, want) || !bytes.Equal(posted, want) {
		t.Fatalf("READ of [%d, %d) = %x, posted READ = %x, want %x", off, off+len(want), got, posted, want)
	}
}

func TestWriteAtRegionLastByte(t *testing.T) {
	s, f, _, b := testFabric(t)
	size := 3*pageSize + 5
	reg := b.RegisterRegion(size)
	qp := f.Connect(1, 2)
	run(t, s, func(p *sim.Proc) {
		if err := qp.Write(p, reg.Addr(size-1), []byte{0xab}); err != nil {
			t.Error(err)
		}
	})
	if len(reg.buf) != size {
		t.Fatalf("a WRITE at the last byte materialized %d of %d bytes", len(reg.buf), size)
	}
	readBack(t, s, qp, reg, size-2, []byte{0, 0xab})
}

func TestUntouchedBytesReadZero(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(16 * pageSize)
	qp := f.Connect(1, 2)
	ones := bytes.Repeat([]byte{0xff}, 100)
	run(t, s, func(p *sim.Proc) {
		if err := qp.Write(p, reg.Addr(pageSize-len(ones)), ones); err != nil {
			t.Error(err)
		}
	})
	if len(reg.buf) != pageSize {
		t.Fatalf("materialized %d bytes, want one page", len(reg.buf))
	}
	// Straddles the materialized prefix: the written tail of the first
	// page, then bytes nobody touched.
	want := append(bytes.Clone(ones[:50]), make([]byte, 50)...)
	readBack(t, s, qp, reg, pageSize-50, want)
	// Wholly untouched, past everything materialized so far.
	readBack(t, s, qp, reg, 8*pageSize, make([]byte, 64))
	if got := reg.BytesTo(12 * pageSize)[10*pageSize:]; !bytes.Equal(got, make([]byte, 2*pageSize)) {
		t.Fatal("BytesTo shows nonzero bytes nobody wrote")
	}
}

func TestBytesIsFullLengthAndStable(t *testing.T) {
	s, f, _, b := testFabric(t)
	size := 64 * pageSize
	reg := b.RegisterRegion(size)
	qp := f.Connect(1, 2)
	write := func(off int, data string) {
		run(t, s, func(p *sim.Proc) {
			if err := qp.Write(p, reg.Addr(off), []byte(data)); err != nil {
				t.Error(err)
			}
		})
	}
	write(0, "head")
	if got := string(reg.BytesTo(4)); got != "head" {
		t.Fatalf("BytesTo(4) = %q", got)
	}
	held := reg.Bytes()
	if len(held) != size {
		t.Fatalf("Bytes has %d bytes, want %d", len(held), size)
	}
	// Accesses far past what was touched before Bytes must land in the
	// slice already handed out.
	write(size/2, "middle")
	write(size-4, "tail")
	if string(held[:4]) != "head" || string(held[size/2:size/2+6]) != "middle" || string(held[size-4:]) != "tail" {
		t.Fatal("a held Bytes slice missed later WRITEs")
	}
	if again := reg.Bytes(); &again[0] != &held[0] || len(again) != size {
		t.Fatal("Bytes moved after later accesses")
	}
}

func TestRegionSurvivesCrashRecover(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(8 * pageSize)
	qp := f.Connect(1, 2)
	run(t, s, func(p *sim.Proc) {
		if err := qp.Write(p, reg.Addr(pageSize+3), []byte("kept")); err != nil {
			t.Error(err)
		}
	})
	b.Crash()
	b.Recover()
	readBack(t, s, qp, reg, pageSize+3, []byte("kept"))
	readBack(t, s, qp, reg, 6*pageSize, make([]byte, 8))
}

// A small WRITE into a large region allocates what it touched, not the
// region: a state transfer's few hundred bytes of aux state into a
// replica's 8 MB staging area.
func TestSmallWriteAllocatesLittle(t *testing.T) {
	s, f, _, b := testFabric(t)
	reg := b.RegisterRegion(8 << 20)
	qp := f.Connect(1, 2)
	payload := make([]byte, 300)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(t, s, func(p *sim.Proc) {
		if err := qp.Write(p, reg.Addr(0), payload); err != nil {
			t.Error(err)
		}
	})
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("a 300-byte WRITE into an 8 MB region allocated %d bytes, want <= 64 KiB", alloc)
	}
}
