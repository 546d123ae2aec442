package obs

import (
	"bytes"
	"testing"

	"heron/internal/sim"
)

// TestHeatCadenceRoll checks lazy rolling cuts one sample per cadence
// interval with the right aggregates, and Report flushes the tail.
func TestHeatCadenceRoll(t *testing.T) {
	h := NewHeat(1, 100, 0) // cadence 100ns
	ph := h.Partition(0)
	ph.RecordExec(10, 40)
	ph.RecordExec(20, 60)
	ph.RecordQueue(30, 7)
	ph.RecordExec(150, 100) // crosses into interval [100,200)
	rep := h.Report(300)

	p := rep.Partitions[0]
	if p.Executed != 3 {
		t.Fatalf("executed = %d, want 3", p.Executed)
	}
	if len(p.Samples) != 2 {
		t.Fatalf("samples = %d, want 2 (idle tail trimmed): %+v", len(p.Samples), p.Samples)
	}
	s0, s1 := p.Samples[0], p.Samples[1]
	if s0.AtNS != 0 || s0.Executed != 2 || s0.QueueMax != 7 || s0.MeanLatNS != 50 || s0.MaxLatNS != 60 {
		t.Fatalf("interval 0 = %+v", s0)
	}
	if s1.AtNS != 100 || s1.Executed != 1 || s1.MeanLatNS != 100 {
		t.Fatalf("interval 1 = %+v", s1)
	}
}

// TestHeatTopKSketch checks the space-saving sketch keeps the hot keys
// and bounds the error of displaced entries.
func TestHeatTopKSketch(t *testing.T) {
	h := NewHeat(1, 100, 2)
	ph := h.Partition(0)
	for i := 0; i < 10; i++ {
		ph.Touch(1)
	}
	for i := 0; i < 5; i++ {
		ph.Touch(2)
	}
	ph.Touch(3) // displaces nothing yet? k=2 full with {1,2}; 3 displaces the min (2:5)
	top := ph.TopKeys()
	if len(top) != 2 {
		t.Fatalf("top = %+v, want 2 entries", top)
	}
	if top[0].Key != 1 || top[0].Count != 10 || top[0].Err != 0 {
		t.Fatalf("hottest = %+v, want key 1 count 10", top[0])
	}
	// Key 3 inherited key 2's count as overestimate, with err bound 5.
	if top[1].Key != 3 || top[1].Count != 6 || top[1].Err != 5 {
		t.Fatalf("displaced entry = %+v, want key 3 count 6 err 5", top[1])
	}
}

// TestHeatReportDeterminism: identical recorded content serializes to
// identical bytes (partitions in index order, keys content-sorted).
func TestHeatReportDeterminism(t *testing.T) {
	mk := func() []byte {
		h := NewHeat(3, 100, 4)
		for part := 0; part < 3; part++ {
			ph := h.Partition(part)
			for i := 0; i < 50; i++ {
				ph.RecordExec(sim.Time(i*17), sim.Duration(i%7))
				ph.Touch(uint64(i % 9))
			}
		}
		var buf bytes.Buffer
		if err := h.Report(1000).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("identical heat content serialized differently")
	}
}

// TestHeatSketchDecay: a hot key from a past burst ages out of the sketch
// once it stops being touched — counts halve every decayWindows cadence
// intervals and zeroed entries are evicted — so a stale flash crowd can
// never out-score the current hotspot.
func TestHeatSketchDecay(t *testing.T) {
	h := NewHeat(1, 100, 2) // cadence 100ns, default decay: halve every 4 windows
	ph := h.Partition(0)
	for i := 0; i < 10; i++ {
		ph.Touch(1) // the "flash crowd" key
	}
	// 8 idle windows pass (two half-lives): 10 -> 5 -> 2.
	ph.RecordQueue(850, 0)
	top := ph.TopKeys()
	if len(top) != 1 || top[0].Key != 1 || top[0].Count != 2 {
		t.Fatalf("after two half-lives: %+v, want key 1 count 2", top)
	}
	// Two more half-lives: 2 -> 1 -> 0, evicted.
	ph.RecordQueue(1650, 0)
	if top := ph.TopKeys(); len(top) != 0 {
		t.Fatalf("stale key survived decay: %+v", top)
	}
	// The current hotspot now owns the sketch with no inherited error.
	ph.Touch(9)
	ph.Touch(9)
	top = ph.TopKeys()
	if len(top) != 1 || top[0].Key != 9 || top[0].Count != 2 || top[0].Err != 0 {
		t.Fatalf("fresh hotspot = %+v, want key 9 count 2 err 0", top)
	}
}

// TestHeatSubscribePoll: an incremental subscription returns each cadence
// sample exactly once, and two subscriptions keep independent cursors.
func TestHeatSubscribePoll(t *testing.T) {
	h := NewHeat(2, 100, 2)
	a, b := h.Subscribe(), h.Subscribe()
	h.Partition(0).RecordExec(10, 40)
	h.Partition(1).RecordExec(20, 80)

	r := a.Poll(100) // cuts interval [0,100) on both partitions
	if len(r.Partitions) != 2 {
		t.Fatalf("partitions = %d, want 2", len(r.Partitions))
	}
	if n := len(r.Partitions[0].Samples); n != 1 {
		t.Fatalf("first poll p0 samples = %d, want 1", n)
	}
	if got := r.Partitions[1].Samples[0].Executed; got != 1 {
		t.Fatalf("first poll p1 executed = %d, want 1", got)
	}

	h.Partition(0).RecordExec(150, 60)
	r = a.Poll(200) // only the new interval [100,200)
	if n := len(r.Partitions[0].Samples); n != 1 {
		t.Fatalf("second poll p0 samples = %d, want 1 (incremental)", n)
	}
	if r.Partitions[0].Samples[0].AtNS != 100 {
		t.Fatalf("second poll p0 sample at %d, want 100", r.Partitions[0].Samples[0].AtNS)
	}
	if n := len(a.Poll(200).Partitions[0].Samples); n != 0 {
		t.Fatalf("re-poll returned %d samples, want 0", n)
	}

	// The second subscription still sees everything from the start.
	r = b.Poll(200)
	if n := len(r.Partitions[0].Samples); n != 2 {
		t.Fatalf("independent sub p0 samples = %d, want 2", n)
	}

	var nilSub *HeatSub
	if rep := nilSub.Poll(0); len(rep.Partitions) != 0 {
		t.Fatal("nil subscription produced partitions")
	}
}

// TestHeatNilSafety: nil collectors are no-ops.
func TestHeatNilSafety(t *testing.T) {
	var h *Heat
	var ph *PartitionHeat
	ph.RecordExec(0, 1)
	ph.RecordQueue(0, 1)
	ph.Touch(1)
	if ph.TopKeys() != nil {
		t.Fatal("nil partition returned keys")
	}
	if h.Partition(0) != nil {
		t.Fatal("nil heat returned a partition")
	}
	if rep := h.Report(0); len(rep.Partitions) != 0 {
		t.Fatal("nil heat produced partitions")
	}
}
