package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"heron/internal/sim"
)

// smallRebalance shrinks the default pair so two deployments (off + on)
// fit in a unit-test budget.
func smallRebalance(scenario string) RebalanceOptions {
	o := DefaultRebalanceOptions(scenario, 1)
	o.Clients = 24
	o.Window = 24 * sim.Millisecond
	o.ShiftAt = 10 * sim.Millisecond
	o.Interval = 2 * sim.Millisecond
	return o
}

// TestRunRebalanceHotShift: the controller-on run commits changes and
// ends the window with a better tail than the frozen layout.
func TestRunRebalanceHotShift(t *testing.T) {
	res, err := RunRebalance(smallRebalance(BenchHotShift))
	if err != nil {
		t.Fatal(err)
	}
	if res.Off.ChangesApplied != 0 || len(res.Off.Decisions) != 0 {
		t.Fatalf("off run rebalanced: %+v", res.Off)
	}
	if res.On.ChangesApplied == 0 {
		t.Fatalf("controller applied nothing: %+v", res.On)
	}
	if len(res.On.Errors) > 0 {
		t.Fatalf("controller errors: %v", res.On.Errors)
	}
	if res.On.EpochAfter != 1+uint64(res.On.ChangesApplied)+uint64(res.On.ChangesAborted) {
		t.Fatalf("epoch %d after %d commits + %d aborts", res.On.EpochAfter,
			res.On.ChangesApplied, res.On.ChangesAborted)
	}
	if !res.Improved {
		t.Fatalf("no tail improvement: off tail p99 %d, on tail p99 %d",
			res.Off.TailP99NS, res.On.TailP99NS)
	}
	if res.On.Mig.BulkObjects == 0 {
		t.Fatalf("changes committed but nothing migrated: %+v", res.On.Mig)
	}
}

// TestRebalanceGateRejectsErrorsAndOffChanges: a pair whose tail improved
// still fails the sweep's gate when either leg reported controller errors
// or the frozen off leg applied a change.
func TestRebalanceGateRejectsErrorsAndOffChanges(t *testing.T) {
	pass := func() *RebalanceResult {
		return &RebalanceResult{Improved: true,
			On: RebalanceRunStats{ChangesApplied: 1}}
	}
	if !(&RebalanceSweep{Bench: []*RebalanceResult{pass()}}).Gate() {
		t.Fatal("gate rejected a clean improved pair")
	}
	for name, spoil := range map[string]func(*RebalanceResult){
		"on errors":   func(r *RebalanceResult) { r.On.Errors = []string{"x"} },
		"off errors":  func(r *RebalanceResult) { r.Off.Errors = []string{"x"} },
		"off changed": func(r *RebalanceResult) { r.Off.ChangesApplied = 1 },
	} {
		r := pass()
		spoil(r)
		if (&RebalanceSweep{Bench: []*RebalanceResult{r}}).Gate() {
			t.Errorf("%s: gate passed", name)
		}
	}
}

// TestRunRebalanceFlash: the flash crowd is shed too.
func TestRunRebalanceFlash(t *testing.T) {
	res, err := RunRebalance(smallRebalance(BenchFlash))
	if err != nil {
		t.Fatal(err)
	}
	if res.On.ChangesApplied == 0 {
		t.Fatalf("controller applied nothing: %+v", res.On)
	}
	if !res.Improved {
		t.Fatalf("no tail improvement: off tail p99 %d, on tail p99 %d",
			res.Off.TailP99NS, res.On.TailP99NS)
	}
}

// TestRunRebalanceDeterminism: same seed, byte-identical JSON.
func TestRunRebalanceDeterminism(t *testing.T) {
	mk := func() []byte {
		o := smallRebalance(BenchHotShift)
		o.Seed = 7
		res, err := RunRebalance(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("same-seed results differ:\n%s\n%s", a, b)
	}
}
