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
func TestOpenLoopReplayDeterminism(t *testing.T) {
	opts := smallOpenLoop()
	opts.Arrival = "pareto"
	opts.Shape = "flash"
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

// TestOpenLoopMixes: the YCSB-style mixes split deliveries at the
// declared read ratio (ycsb-b ~95/5, ycsb-c read-only), keep reads
// single-group, and replay byte-identically — the read-skewed workload
// for the lease fast path.
func TestOpenLoopMixes(t *testing.T) {
	for _, mix := range []string{"ycsb-b", "ycsb-c"} {
		opts := smallOpenLoop()
		opts.Mix = mix
		res, err := RunOpenLoop(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered == 0 || res.Reads == 0 {
			t.Fatalf("%s: delivered=%d reads=%d", mix, res.Delivered, res.Reads)
		}
		frac := float64(res.Reads) / float64(res.Delivered)
		switch mix {
		case "ycsb-b":
			if frac < 0.90 || frac > 0.99 {
				t.Fatalf("ycsb-b read fraction %.3f outside [0.90, 0.99]", frac)
			}
			if res.Updates == 0 {
				t.Fatal("ycsb-b delivered no updates")
			}
		case "ycsb-c":
			if frac != 1 || res.Updates != 0 {
				t.Fatalf("ycsb-c not read-only: %d reads of %d, %d updates",
					res.Reads, res.Delivered, res.Updates)
			}
		}
		run := func() []byte {
			r, err := RunOpenLoop(opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b := run(), run()
		if string(a) != string(b) {
			t.Fatalf("%s replays diverged:\n%s\n%s", mix, a, b)
		}
	}
}

// TestOpenLoopShapes: every arrival law and shape combination runs and
// the shaped streams thin the load below the steady peak.
func TestOpenLoopShapes(t *testing.T) {
	base := smallOpenLoop()
	base.Clients = 20_000
	steady, err := RunOpenLoop(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{"diurnal", "flash"} {
		opts := base
		opts.Shape = shape
		res, err := RunOpenLoop(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Submitted == 0 {
			t.Fatalf("%s: no arrivals", shape)
		}
		if res.Submitted >= steady.Submitted {
			t.Fatalf("%s submitted %d, not thinned below steady %d", shape, res.Submitted, steady.Submitted)
		}
	}
	opts := base
	opts.Arrival = "pareto"
	if _, err := RunOpenLoop(opts); err != nil {
		t.Fatal(err)
	}
}
