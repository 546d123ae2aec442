package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"

	"heron/internal/sim"
	"testing"
)

// TestFlightRingWrap checks the ring keeps exactly the newest capacity
// records, oldest first.
func TestFlightRingWrap(t *testing.T) {
	fr := NewFlightRecorder(16)
	for i := 0; i < 40; i++ {
		fr.Record(sim.Time(i), FltDeliver, 1, uint64(i), 0)
	}
	if fr.Len() != 16 {
		t.Fatalf("ring holds %d records, want 16", fr.Len())
	}
	recs := fr.records()
	if recs[0].A != 24 || recs[len(recs)-1].A != 39 {
		t.Fatalf("ring window [%d..%d], want [24..39]", recs[0].A, recs[len(recs)-1].A)
	}
}

// TestFlightTraceRecordOrderIndependence: the same records produce a
// byte-identical trace whatever order they were recorded in.
func TestFlightTraceRecordOrderIndependence(t *testing.T) {
	inOrder := NewFlightRecorder(256)
	reversed := NewFlightRecorder(256)
	for i := 0; i < 60; i++ {
		at := sim.Time(i * 100)
		node := uint32(1 + i%5)
		inOrder.Record(at, FltDeliver, node, uint64(i), 7)
	}
	for i := 59; i >= 0; i-- {
		at := sim.Time(i * 100)
		node := uint32(1 + i%5)
		reversed.Record(at, FltDeliver, node, uint64(i), 7)
	}
	var a, b bytes.Buffer
	if err := inOrder.WriteTrace(&a, "test"); err != nil {
		t.Fatal(err)
	}
	if err := reversed.WriteTrace(&b, "test"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("flight traces differ across record orders")
	}
}

// TestFlightDumpFileLoadable checks DumpFile writes a valid Chrome
// trace_event JSON object with instant events (the chrome://tracing
// loadability criterion).
func TestFlightDumpFileLoadable(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record(sim.Time(1000), FltCrash, 3, 0, 1)
	fr.Record(sim.Time(2000), FltRecover, 3, 0, 1)
	dir := t.TempDir()
	path, err := fr.DumpFile(dir, "flight-test.json", "unit-test")
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "flight-test.json") {
		t.Fatalf("unexpected path %s", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	var instants int
	names := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "i" {
			instants++
			names[ev.Name] = true
		}
	}
	if instants != 2 || !names["crash"] || !names["recover"] {
		t.Fatalf("dump events: %d instants, names %v", instants, names)
	}
}

// TestFlightNilSafety: a nil recorder is a no-op.
func TestFlightNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(0, FltExec, 1, 2, 3)
	if fr.Len() != 0 {
		t.Fatal("nil flight recorded something")
	}
	var buf bytes.Buffer
	if err := fr.WriteTrace(&buf, "nil"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil recorder trace is not valid JSON")
	}
}
