package kvapp

import (
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"heron/internal/core"
	"heron/internal/lincheck"
	"heron/internal/multicast"
	"heron/internal/sim"
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

// TestDriveStreams pins the client loop every harness's replay depends
// on: client ci's stream is seeded Seed*1000+ci, its operation is drawn
// before it is submitted, and a think time is drawn only after an
// operation that completed.
func TestDriveStreams(t *testing.T) {
	const seed, clients, ops = 7, 2, 4
	run, err := Deploy(Spec{
		Harness: "test", Clients: clients, OpsPerClient: ops,
		Groups: multicast.Layout(1, 3), Owner: Partitioner, StoreKeys: 1,
		OIDs: PartitionKeys(1, 1), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	// Every other operation completes; a think time is a negative draw.
	var want [clients][]int
	for ci := range want {
		rng := rand.New(rand.NewSource(seed*1000 + int64(ci)))
		for i := 0; i < ops; i++ {
			want[ci] = append(want[ci], rng.Intn(1000))
			if i%2 == 0 {
				want[ci] = append(want[ci], -rng.Intn(1000))
			}
		}
	}
	draws := map[*rand.Rand][]int{}
	client := map[*rand.Rand]int{}
	think := func(rng *rand.Rand) sim.Duration {
		draws[rng] = append(draws[rng], -rng.Intn(1000))
		return sim.Microsecond
	}
	err = run.Drive(sim.Second, think, func(ci int) Op {
		n := 0
		return func(p *sim.Proc, rng *rand.Rand) (*Req, func() (uint64, bool)) {
			client[rng] = ci
			draws[rng] = append(draws[rng], rng.Intn(1000))
			n++
			completes := n%2 == 1
			return &Req{}, func() (uint64, bool) { return 0, completes }
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(client) != clients || run.Hist.Ops != clients*ops || run.Hist.Failed != clients*ops/2 {
		t.Fatalf("%d client streams ran %d operations, %d failed; want %d, %d, %d",
			len(client), run.Hist.Ops, run.Hist.Failed, clients, clients*ops, clients*ops/2)
	}
	for rng, ci := range client {
		if !slices.Equal(draws[rng], want[ci]) {
			t.Errorf("client %d drew %v, want %v", ci, draws[rng], want[ci])
		}
	}
}

// TestHeatKeyIsAnOID: HeatKey is the first written object id, else the
// first read one, else 0 — the rebalance planner reads sketch keys as
// object ids (core.HeatKeyer).
func TestHeatKeyIsAnOID(t *testing.T) {
	a := New(nil, 8)(0, 0).(core.HeatKeyer)
	for _, tc := range []struct {
		req  Req
		want store.OID
	}{
		{Req{Reads: []store.OID{OID(1, 2)}, Writes: []store.OID{OID(0, 7), OID(1, 9)}}, OID(0, 7)},
		{Req{Reads: []store.OID{OID(1, 2), OID(0, 3)}}, OID(1, 2)},
		{Req{Add: 5}, 0},
	} {
		if got := a.HeatKey(&core.Request{Payload: tc.req.Encode()}); got != uint64(tc.want) {
			t.Errorf("HeatKey(%+v) = %d, want %d", tc.req, got, tc.want)
		}
	}
}
