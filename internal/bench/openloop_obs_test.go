package bench

import (
	"bytes"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// obsOpenLoop runs one small open-loop scenario with the critical path,
// heat and flight instruments armed, and returns the serialized
// critical-path profile, heat report, and flight trace.
func obsOpenLoop(t *testing.T) (profile, heat, flight []byte) {
	t.Helper()
	opts := smallOpenLoop()
	opts.Groups = 4
	cp := obs.NewCritPath(1)
	h := obs.NewHeat(opts.Groups, 100*sim.Microsecond, 8)
	fr := obs.NewFlightRecorder(1024)
	opts.Obs = obs.NewFull(nil, nil, cp, h, fr)
	res, err := RunOpenLoop(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries: the instruments recorded nothing")
	}
	var pb, hb, fb bytes.Buffer
	if err := cp.Profile(5).WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	if err := h.Report(sim.Time(res.VirtualNS)).WriteJSON(&hb); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteTrace(&fb, "determinism-test"); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), hb.Bytes(), fb.Bytes()
}

// TestOpenLoopObsDeterminism: with the same seed, two runs serialize the
// critical-path profile, the heat report, and the flight trace to
// identical bytes. (Independence of the serialization from record order
// is pinned by the record-order tests in internal/obs.)
func TestOpenLoopObsDeterminism(t *testing.T) {
	p1, h1, f1 := obsOpenLoop(t)
	p2, h2, f2 := obsOpenLoop(t)
	if !bytes.Equal(p1, p2) {
		t.Fatalf("same-seed runs produced different profiles:\n%s\nvs\n%s", p1, p2)
	}
	if !bytes.Equal(h1, h2) {
		t.Fatal("same-seed runs produced different heat reports")
	}
	if !bytes.Equal(f1, f2) {
		t.Fatal("same-seed runs produced different flight traces")
	}
}

// TestOpenLoopProfileSumsToE2E pins the attribution identity: the
// profile's segment sum equals its total end-to-end latency exactly, and
// its mean agrees with the harness's own latency recorder within
// max(1 %, 1 µs).
func TestOpenLoopProfileSumsToE2E(t *testing.T) {
	opts := smallOpenLoop()
	cp := obs.NewCritPath(1)
	opts.Obs = obs.NewFull(nil, nil, cp, nil, nil)
	res, err := RunOpenLoop(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := cp.Profile(0)
	if p.Attributed == 0 || res.Delivered == 0 {
		t.Fatalf("nothing attributed (%d) or delivered (%d)", p.Attributed, res.Delivered)
	}
	if p.SegmentSumNS != p.TotalE2ENS {
		t.Fatalf("segment sum %d != total e2e %d", p.SegmentSumNS, p.TotalE2ENS)
	}
	diff := p.MeanE2ENS - res.MeanNS
	if diff < 0 {
		diff = -diff
	}
	if diff > max(res.MeanNS/100, int64(sim.Microsecond)) {
		t.Fatalf("profile mean %d ns vs recorder mean %d ns", p.MeanE2ENS, res.MeanNS)
	}
}
