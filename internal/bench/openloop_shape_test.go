package bench

import (
	"math"
	"math/rand"
	"testing"

	"heron/internal/sim"
)

// Rate-shape coverage: each shape thins the peak-rate arrival process to
// a known time profile, so the accepted-arrival integral (and, for
// flash, its concentration) must match the profile's closed form within
// sampling tolerance.
//
//	steady  : frac(x) = 1                          -> integral 1
//	diurnal : frac(x) = 0.4 + 0.6*sin(pi*x)        -> integral 0.4 + 1.2/pi ~ 0.782
//	flash   : frac(x) = 0.2 except 1.0 on [0.4,.5) -> integral 0.28
//
// The pump chain runs on a bare scheduler with a draining consumer; no
// cluster is involved, so the test isolates the generator itself.

// runShape generates one pump's arrival chain for a shape and returns
// the accepted arrivals bucketed into deciles of the window.
func runShape(t *testing.T, shape string, seed int64) (deciles [10]int, total int) {
	t.Helper()
	opts := DefaultOpenLoopOptions()
	opts.Shape = shape
	opts.Warmup = 0
	opts.Window = 10 * sim.Millisecond
	opts.Clients = 1000

	s := sim.NewScheduler()
	rng := rand.New(rand.NewSource(seed))
	pu := &openPump{
		queue:   sim.NewChan[arrival](s),
		rng:     rng,
		zipf:    rand.NewZipf(rng, opts.ZipfS, 1, uint64(openLoopKeySpace-1)),
		opts:    &opts,
		rate:    0.004, // peak msgs/ns: ~40k arrivals over the window
		horizon: sim.Time(opts.Window),
	}
	pu.start(s)
	s.At(sim.Time(opts.Window), func() { pu.queue.Close() })
	s.Spawn("shape-sink", func(p *sim.Proc) {
		for {
			a, ok := pu.queue.Recv(p)
			if !ok {
				return
			}
			idx := int(a.at * 10 / sim.Time(opts.Window))
			if idx > 9 {
				idx = 9
			}
			deciles[idx]++
			total++
		}
	})
	if err := s.RunUntil(sim.Time(opts.Window) + 1); err != nil {
		t.Fatal(err)
	}
	return deciles, total
}

// TestOpenLoopShapeIntegrals: the accepted fraction of the peak-rate
// process matches each shape's closed-form integral.
func TestOpenLoopShapeIntegrals(t *testing.T) {
	_, peak := runShape(t, "steady", 11)
	if peak < 10_000 {
		t.Fatalf("steady run too small to normalize against: %d arrivals", peak)
	}
	cases := []struct {
		shape string
		want  float64 // fraction of the steady total
		tol   float64
	}{
		{"steady", 1.0, 0.03},
		{"diurnal", 0.4 + 1.2/math.Pi, 0.05},
		{"flash", 0.2*0.9 + 1.0*0.1, 0.04},
	}
	for _, tc := range cases {
		_, total := runShape(t, tc.shape, 11)
		got := float64(total) / float64(peak)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s: accepted fraction %.3f, want %.3f +/- %.2f (total %d / peak %d)",
				tc.shape, got, tc.want, tc.tol, total, peak)
		}
	}
}

// TestOpenLoopFlashConcentration: the flash decile carries at least 5x
// the baseline decile rate (the profile says exactly 5x: 1.0 vs 0.2),
// and the crowd sits in the [40%, 50%) decile alone.
func TestOpenLoopFlashConcentration(t *testing.T) {
	deciles, total := runShape(t, "flash", 23)
	if total == 0 {
		t.Fatal("no arrivals accepted")
	}
	flash := deciles[4]
	baseline := 0.0
	for i, n := range deciles {
		if i != 4 {
			baseline += float64(n)
		}
	}
	baseline /= 9
	if baseline == 0 {
		t.Fatalf("empty baseline deciles: %v", deciles)
	}
	if ratio := float64(flash) / baseline; ratio < 4.2 {
		t.Errorf("flash decile only %.1fx the baseline (deciles %v)", ratio, deciles)
	}
	for i, n := range deciles {
		if i == 4 {
			continue
		}
		if float64(n) > 2*baseline {
			t.Errorf("decile %d looks like a second crowd: %d vs baseline %.0f", i, n, baseline)
		}
	}
}

// TestOpenLoopDiurnalProfile: the diurnal ramp peaks mid-window and
// sags at both edges, per the half-sine.
func TestOpenLoopDiurnalProfile(t *testing.T) {
	deciles, total := runShape(t, "diurnal", 31)
	if total == 0 {
		t.Fatal("no arrivals accepted")
	}
	mid := deciles[4] + deciles[5]
	edges := deciles[0] + deciles[9]
	// frac(mid deciles) ~ 0.99 avg vs frac(edge deciles) ~ 0.49 avg.
	if mid <= edges {
		t.Errorf("diurnal profile not peaked: mid %d vs edges %d (deciles %v)", mid, edges, deciles)
	}
	if ratio := float64(mid) / float64(edges); ratio < 1.5 || ratio > 2.7 {
		t.Errorf("mid/edge ratio %.2f outside the half-sine's [1.5, 2.7] (deciles %v)", ratio, deciles)
	}
}
