package kvapp

import (
	"encoding/hex"
	"testing"

	"heron/internal/lincheck"
	"heron/internal/store"
)

// TestModelRejectsViolations guards against a vacuous verdict: the model
// every harness submits to the checker must reject fabricated stale-read
// and lost-update histories. If this fails, every "linearizable: true" a
// chaos, reconfig or rebalance sweep ever printed was meaningless.
func TestModelRejectsViolations(t *testing.T) {
	oid := OID(0, 0)
	rmw := func(add uint64) *Req {
		return &Req{Reads: []store.OID{oid}, Writes: []store.OID{oid}, Add: add}
	}
	read := func() *Req { return &Req{Reads: []store.OID{oid}} }

	stale := []lincheck.Operation{
		{ClientID: 0, Input: rmw(5), Output: uint64(5), Call: 0, Return: 1},
		{ClientID: 1, Input: read(), Output: uint64(0), Call: 2, Return: 3}, // misses the write
	}
	if ok, err := lincheck.Check(Model(), stale); err != nil || ok {
		t.Fatalf("stale read accepted by the model: ok=%v err=%v", ok, err)
	}

	lost := []lincheck.Operation{
		{ClientID: 0, Input: rmw(1), Output: uint64(1), Call: 0, Return: 1},
		{ClientID: 1, Input: rmw(1), Output: uint64(1), Call: 2, Return: 3}, // lost the first add
		{ClientID: 0, Input: read(), Output: uint64(1), Call: 4, Return: 5},
	}
	if ok, err := lincheck.Check(Model(), lost); err != nil || ok {
		t.Fatalf("lost update accepted by the model: ok=%v err=%v", ok, err)
	}

	good := []lincheck.Operation{
		{ClientID: 0, Input: rmw(5), Output: uint64(5), Call: 0, Return: 1},
		{ClientID: 1, Input: rmw(1), Output: uint64(6), Call: 2, Return: 3},
		{ClientID: 0, Input: read(), Output: uint64(6), Call: 4, Return: 5},
	}
	if ok, err := lincheck.Check(Model(), good); err != nil || !ok {
		t.Fatalf("valid history rejected by the model: ok=%v err=%v", ok, err)
	}
}

// TestEncodePinsWireFormat: the payload's bytes, and so its size, enter
// every replay and golden file, so a change to the layout must show up
// here first rather than as drifted timings.
func TestEncodePinsWireFormat(t *testing.T) {
	req := &Req{Reads: []store.OID{OID(1, 2)}, Writes: []store.OID{3, 4}, Add: 5}
	const want = "01000000" + "0200000001000000" +
		"02000000" + "0300000000000000" + "0400000000000000" +
		"0500000000000000" + "0000000000000000"
	b := req.Encode()
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("Encode = %s, want %s", got, want)
	}
	back := Decode(b)
	if len(back.Reads) != 1 || back.Reads[0] != OID(1, 2) || len(back.Writes) != 2 ||
		back.Writes[0] != 3 || back.Writes[1] != 4 || back.Add != 5 {
		t.Fatalf("Decode(Encode(r)) = %+v, want %+v", back, req)
	}
}
