package bench

import (
	"encoding/json"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// smallLeaseBench shrinks the default pair for unit-test wall clock.
func smallLeaseBench() LeaseBenchOptions {
	o := DefaultLeaseBenchOptions(1)
	o.Window = 8 * sim.Millisecond
	return o
}

// TestLeaseBenchGate: the read-skewed pair serves nearly all on-run reads
// locally, within the absolute latency bounds a lease promises, and
// keeps its margin under the ordered path.
func TestLeaseBenchGate(t *testing.T) {
	res, err := RunLeaseBench(smallLeaseBench())
	if err != nil {
		t.Fatal(err)
	}
	if res.Off.Reads == 0 || res.Off.LocalReads != 0 {
		t.Fatalf("off run implausible: %+v", res.Off)
	}
	if res.On.LocalReads == 0 || res.On.Grants == 0 {
		t.Fatalf("on run never used the fast path: %+v", res.On)
	}
	if !res.Gate() {
		t.Fatalf("gate failed: local read mean %dns (bound %d) p99 %dns (bound %d), hit rate %.3f (floor %.2f), %dns under the ordered read mean (floor %d)",
			res.On.ReadMeanNS, int64(LeaseGateLocalMean), res.On.ReadP99NS, int64(LeaseGateLocalP99),
			res.HitRate, LeaseGateHitRate, res.MarginNS(), int64(LeaseGateMargin))
	}
}

// TestLeaseBenchLegsObservedApart: each leg reports into its own
// observer, so the critical-path engine sees each request id once and
// attributes both legs' latency to named segments rather than to
// colliding ids.
func TestLeaseBenchLegsObservedApart(t *testing.T) {
	o := smallLeaseBench()
	cpOff, cpOn := obs.NewCritPath(1), obs.NewCritPath(1)
	o.ObsOff = obs.NewFull(nil, nil, cpOff, nil, nil)
	o.ObsOn = obs.NewFull(nil, nil, cpOn, nil, nil)
	res, err := RunLeaseBench(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name    string
		cp      *obs.CritPath
		ordered int // requests that took the ordered path
	}{
		{"off", cpOff, res.Off.Ops},
		{"on", cpOn, res.On.Ops - int(res.On.LocalReads)},
	} {
		p := leg.cp.Profile(0)
		if p.Attributed == 0 || p.SegmentSumNS != p.TotalE2ENS {
			t.Fatalf("leg %s: attributed %d requests, segment sum %d vs e2e %d",
				leg.name, p.Attributed, p.SegmentSumNS, p.TotalE2ENS)
		}
		for _, seg := range p.Segments {
			// Colliding ids stretch a request from one leg's submit to the
			// other's reply, all of it unexplained (97 % "other" once).
			if seg.Name == "other" && seg.TotalNS > p.TotalE2ENS/10 {
				t.Fatalf("leg %s: %d of %d ns unattributed", leg.name, seg.TotalNS, p.TotalE2ENS)
			}
		}
		// Requests still in flight at the horizon are never attributed.
		if int(p.Attributed) > leg.ordered || int(p.Attributed) < leg.ordered*9/10 {
			t.Fatalf("leg %s: %d requests attributed, %d took the ordered path", leg.name, p.Attributed, leg.ordered)
		}
	}
}

// TestLeaseBenchDeterminism: identical options serialize to
// byte-identical JSON across runs — the -json replay bar.
func TestLeaseBenchDeterminism(t *testing.T) {
	opts := smallLeaseBench()
	run := func() []byte {
		res, err := RunLeaseBench(opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("lease bench replays diverged:\n%s\n%s", a, b)
	}
}
