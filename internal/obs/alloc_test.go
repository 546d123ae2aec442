package obs

import (
	"testing"

	"heron/internal/sim"
)

// TestDisabledObserverZeroAlloc asserts the package contract: with
// observability disabled (nil observer / nil instruments), every call an
// instrumented hot path makes is a pointer test and nothing else — zero
// allocations per operation. The request hot path relies on this to keep
// the disabled layer free.
func TestDisabledObserverZeroAlloc(t *testing.T) {
	var o *Observer
	var cp *CritPath
	var fl *FlightRecorder
	var ph *PartitionHeat
	var tk *Track
	id := ReqID{Node: 1, Seq: 2}

	cases := map[string]func(){
		"observer-accessors": func() {
			_ = o.Tracer()
			_ = o.Metrics()
			_ = o.CritPath()
			_ = o.Heat()
			_ = o.Flight()
		},
		"observer-resolvers": func() {
			_ = o.HeatPartition(0)
			_ = o.Counter("x")
			_ = o.Gauge("x")
			_ = o.Histogram("x")
		},
		"critpath": func() {
			cp.Mark(id, SegSubmit, 100)
			cp.Record(id, SegNicWait, 100, 200)
		},
		"flight": func() {
			fl.Record(100, FltDeliver, 1, 2, 3)
		},
		"heat-partition": func() {
			ph.RecordExec(100, 10)
			ph.RecordQueue(100, 4)
			ph.Touch(7)
		},
		"span-track": func() {
			sp := tk.Begin("req")
			sp.End()
			tk.Instant("x", nil)
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the disabled path, want 0", name, allocs)
		}
	}
}

// BenchmarkDisabledHotPath measures the full set of per-request
// disabled-observer calls a replica makes (the b.ReportAllocs output is
// the reviewable record of the zero-alloc property).
func BenchmarkDisabledHotPath(b *testing.B) {
	var cp *CritPath
	var fl *FlightRecorder
	var ph *PartitionHeat
	id := ReqID{Node: 1, Seq: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		cp.Mark(id, SegSubmit, at)
		cp.Record(id, SegAppExecute, at, at+10)
		cp.Mark(id, SegDone, at+10)
		fl.Record(at, FltExec, 1, uint64(i), 0)
		ph.RecordExec(at, 10)
		ph.Touch(uint64(i))
	}
}
