package bench

import (
	"encoding/json"
	"testing"

	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// smallOpenLoop returns a configuration quick enough for unit tests while
// still exercising a six-figure client population.
func smallOpenLoop() OpenLoopOptions {
	opts := DefaultOpenLoopOptions()
	opts.Groups = 2
	opts.Clients = 100_000
	opts.RatePerClient = 2
	opts.Warmup = 2 * sim.Millisecond
	opts.Window = 6 * sim.Millisecond
	return opts
}

// TestOpenLoopDelivers: the engine sustains the population and the
// deliveries carry sane latencies.
func TestOpenLoopDelivers(t *testing.T) {
	res, err := RunOpenLoop(smallOpenLoop())
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// An uncongested run delivers nearly everything submitted in-window.
	if res.Delivered < res.Submitted*8/10 {
		t.Fatalf("delivered %d of %d submitted", res.Delivered, res.Submitted)
	}
	if res.MeanNS <= 0 || res.P99NS < res.P50NS {
		t.Fatalf("implausible latencies: %+v", res)
	}
}

// TestOpenLoopReplayDeterminism: identical options serialize to
// byte-identical JSON across runs — the acceptance bar for -json replay.
// The stream is a non-default one: half the submissions span two groups
// over a steeper key skew.
func TestOpenLoopReplayDeterminism(t *testing.T) {
	opts := smallOpenLoop()
	opts.MultiGroupPct = 50
	opts.ZipfS = 1.2
	run := func() []byte {
		res, err := RunOpenLoop(opts)
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
		t.Fatalf("open-loop replays diverged:\n%s\n%s", a, b)
	}
}

// TestOpenLoopRejectsSeveralDomains: the open-loop cluster runs on one
// scheduler, so asking it for more simulation domains is an error, both
// from the cluster constructor and from the engine.
func TestOpenLoopRejectsSeveralDomains(t *testing.T) {
	if _, err := multicast.NewDomainCluster(2, 3, 2, 1, rdma.DefaultConfig()); err == nil {
		t.Error("NewDomainCluster with 2 domains returned no error")
	}
	opts := smallOpenLoop()
	opts.Domains = 2
	if _, err := RunOpenLoop(opts); err == nil {
		t.Error("RunOpenLoop with Domains 2 returned no error")
	}
}
