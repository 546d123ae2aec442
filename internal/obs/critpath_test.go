package obs

import (
	"bytes"
	"testing"

	"heron/internal/sim"
)

// TestCritPathWalkAttribution pins the walk's core invariant: every
// nanosecond between submit and complete is attributed to exactly one
// segment, with residual gaps going to "other".
func TestCritPathWalkAttribution(t *testing.T) {
	cp := NewCritPath(1)
	id := ReqID{Node: 1, Seq: 1}

	// submit=0, sent=10, delivered=100, app_execute=[100,140],
	// done=150, complete=170. Expected: pump_wait? none; ordering
	// [10,100]=90, app_execute [100,140]=40, reply [150,170]=20, other
	// covers [0,10) and [140,150) = 20.
	cp.Mark(id, SegSubmit, 0)
	cp.Mark(id, SegSent, 10)
	cp.Mark(id, SegDelivered, 100)
	cp.Record(id, SegAppExecute, 100, 140)
	cp.Mark(id, SegDone, 150)
	cp.Mark(id, SegComplete, 170)

	p := cp.Profile(0)
	if p.Requests != 1 || p.Attributed != 1 {
		t.Fatalf("requests=%d attributed=%d, want 1/1", p.Requests, p.Attributed)
	}
	if p.TotalE2ENS != 170 {
		t.Fatalf("e2e = %d, want 170", p.TotalE2ENS)
	}
	if p.SegmentSumNS != p.TotalE2ENS {
		t.Fatalf("segment sum %d != e2e %d", p.SegmentSumNS, p.TotalE2ENS)
	}
	want := map[string]int64{"ordering": 90, "app_execute": 40, "reply": 20, "other": 20}
	got := map[string]int64{}
	for _, s := range p.Segments {
		got[s.Name] = s.TotalNS
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Fatalf("segment %s = %d, want %d (all: %v)", name, got[name], ns, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("unexpected segments: %v", got)
	}
}

// TestCritPathOverlapPrefersCritical checks that overlapping intervals
// attribute each instant once: the backward walk picks the interval
// reaching furthest toward completion.
func TestCritPathOverlapPrefersCritical(t *testing.T) {
	cp := NewCritPath(1)
	id := ReqID{Node: 1, Seq: 2}
	cp.Mark(id, SegSubmit, 0)
	cp.Mark(id, SegComplete, 100)
	// nic_wait [0,80] overlaps addr_resolve [0,50]: the walk must charge
	// [50,80]... actually all of [0,80] to nic_wait (it ends later), then
	// nothing to addr_resolve, and [80,100] to other.
	cp.Record(id, SegNicWait, 0, 80)
	cp.Record(id, SegAddrResolve, 0, 50)

	p := cp.Profile(0)
	got := map[string]int64{}
	for _, s := range p.Segments {
		got[s.Name] = s.TotalNS
	}
	if got["nic_wait"] != 80 || got["other"] != 20 || got["addr_resolve"] != 0 {
		t.Fatalf("attribution = %v, want nic_wait=80 other=20", got)
	}
	if p.SegmentSumNS != 100 {
		t.Fatalf("segment sum = %d, want 100", p.SegmentSumNS)
	}
}

// TestCritPathClipsToLifetime checks intervals outside [submit, complete]
// are clipped and cannot inflate the attribution.
func TestCritPathClipsToLifetime(t *testing.T) {
	cp := NewCritPath(1)
	id := ReqID{Node: 2, Seq: 1}
	cp.Mark(id, SegSubmit, 50)
	cp.Mark(id, SegComplete, 150)
	cp.Record(id, SegAppExecute, 0, 200) // covers the whole lifetime after clipping

	p := cp.Profile(0)
	if p.SegmentSumNS != 100 || p.TotalE2ENS != 100 {
		t.Fatalf("sum=%d e2e=%d, want 100/100", p.SegmentSumNS, p.TotalE2ENS)
	}
	if len(p.Segments) != 1 || p.Segments[0].Name != "app_execute" || p.Segments[0].TotalNS != 100 {
		t.Fatalf("segments = %+v, want app_execute=100", p.Segments)
	}
}

// TestCritPathRecordOrderIndependence pins the content-determined
// grouping: the same recorded content produces a byte-identical profile
// whatever order it was recorded in.
func TestCritPathRecordOrderIndependence(t *testing.T) {
	type rec struct {
		id         ReqID
		seg        Segment
		start, end sim.Time
	}
	var recs []rec
	for i := 0; i < 40; i++ {
		id := ReqID{Node: uint64(1 + i%3), Seq: uint64(i)}
		base := sim.Time(i * 1000)
		recs = append(recs,
			rec{id, SegSubmit, base, base},
			rec{id, SegSent, base + 10, base + 10},
			rec{id, SegDelivered, base + 200, base + 200},
			rec{id, SegAppExecute, base + 200, base + 300},
			rec{id, SegDone, base + 320, base + 320},
			rec{id, SegComplete, base + 400, base + 400},
		)
	}
	apply := func(cp *CritPath, r rec) {
		if r.start == r.end {
			cp.Mark(r.id, r.seg, r.start)
		} else {
			cp.Record(r.id, r.seg, r.start, r.end)
		}
	}

	inOrder := NewCritPath(1)
	for _, r := range recs {
		apply(inOrder, r)
	}
	// Reversed: an order no real run produces, which Profile must still
	// normalize.
	reversed := NewCritPath(1)
	for i := len(recs) - 1; i >= 0; i-- {
		apply(reversed, recs[i])
	}

	var a, b bytes.Buffer
	if err := inOrder.Profile(5).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reversed.Profile(5).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("profiles differ across record orders:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestCritPathNilSafety: every method on nil receivers is a no-op.
func TestCritPathNilSafety(t *testing.T) {
	var cp *CritPath
	cp.Mark(ReqID{}, SegSubmit, 0)
	cp.Record(ReqID{}, SegNicWait, 0, 10)
	if cp.Len() != 0 {
		t.Fatal("nil critpath has records")
	}
	p := cp.Profile(5)
	if p.Requests != 0 || len(p.Segments) != 0 {
		t.Fatalf("nil critpath produced a profile: %+v", p)
	}
}
