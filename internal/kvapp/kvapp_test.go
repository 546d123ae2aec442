package kvapp

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"strings"
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
	err = run.Drive(sim.Second, func() bool { return true }, think, func(ci int) Op {
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

// TestDriveBound pins where Drive stops: at the first slice boundary
// once the clients are done and the run has settled, at exactly the
// horizon when a client never finishes, and wherever the scheduler fails.
func TestDriveBound(t *testing.T) {
	const horizon = 10 * sim.Millisecond
	// drive runs clients whose every operation takes opTime and then, if
	// block is set, waits forever, next to a proc ticking every 100 µs
	// when tick is set. It returns the run, where the scheduler stopped
	// and Drive's error.
	drive := func(clients int, opTime sim.Duration, block, tick bool) (*Run, sim.Time, error) {
		run, err := Deploy(Spec{
			Harness: "test", Clients: clients, OpsPerClient: 2,
			Groups: multicast.Layout(1, 3), Owner: Partitioner, StoreKeys: 1,
			OIDs: PartitionKeys(1, 1), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(run.Close)
		s := run.D.Sched
		if tick {
			s.Spawn("ticker", func(p *sim.Proc) {
				for {
					p.Sleep(100 * sim.Microsecond)
				}
			})
		}
		never := sim.NewCond(s)
		err = run.Drive(horizon, func() bool { return true },
			func(*rand.Rand) sim.Duration { return 0 },
			func(int) Op {
				return func(p *sim.Proc, _ *rand.Rand) (*Req, func() (uint64, bool)) {
					return &Req{}, func() (uint64, bool) {
						p.Sleep(opTime)
						if block {
							never.WaitUntil(p, func() bool { return false })
						}
						return 0, true
					}
				}
			})
		return run, s.Now(), err
	}

	t.Run("settles", func(t *testing.T) {
		// Two operations of 600 µs finish at 1.2 ms: the 2 ms boundary.
		run, now, err := drive(2, 600*sim.Microsecond, false, true)
		if err != nil || !run.Hist.Done() || now != sim.Time(2*sim.Millisecond) {
			t.Fatalf("Drive = %v, done %v, stopped at %v; want nil, true, 2ms", err, run.Hist.Done(), now)
		}
	})
	t.Run("never settles", func(t *testing.T) {
		run, now, err := drive(1, 0, true, true)
		if err != nil || now != sim.Time(horizon) {
			t.Fatalf("Drive = %v, stopped at %v; want nil at the horizon %v", err, now, horizon)
		}
		if checked, _, verr := run.Hist.Verdict(); checked || !strings.Contains(verr, "still in flight at the horizon") {
			t.Fatalf("Verdict = checked %v, %q; want the operation in flight at the horizon", checked, verr)
		}
	})
	t.Run("scheduler error", func(t *testing.T) {
		// The only proc blocks for good at 2.5 ms: the scheduler reports a
		// deadlock inside the third slice, and Drive passes it on.
		_, now, err := drive(1, 2500*sim.Microsecond, true, false)
		if !errors.Is(err, sim.ErrDeadlock) || now != sim.Time(2500*sim.Microsecond) {
			t.Fatalf("Drive = %v at %v, want %v at 2.5ms", err, now, sim.ErrDeadlock)
		}
	})
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
