package core

import (
	"testing"

	"heron/internal/sim"
	"heron/internal/store"
)

// allocsPerStep runs step on a proc once every period and returns the
// steady-state allocations per period, once warm-up periods have grown
// every reused buffer (the rdma allocation tests' pattern).
func allocsPerStep(t *testing.T, s *sim.Scheduler, step func(p *sim.Proc)) float64 {
	t.Helper()
	const period = 50 * sim.Microsecond
	s.Spawn("stepper", func(p *sim.Proc) {
		for next := p.Now(); ; {
			step(p)
			next += sim.Time(period)
			p.Sleep(sim.Duration(next - p.Now()))
		}
	})
	until := s.Now()
	run := func() {
		until += sim.Time(period)
		if err := s.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		run()
	}
	return testing.AllocsPerRun(200, run)
}

// TestWarmExecuteAllocatesOnlyTheApp: a warm single-partition execute
// reuses its proc's context, values map and arena, so it allocates exactly
// what the application's ReadSet and Execute allocate themselves.
func TestWarmExecuteAllocatesOnlyTheApp(t *testing.T) {
	s, _, r := stoppedExecutor(t, 1, nil)
	defer s.Close()
	req := Request{Ts: 10, Dst: []PartitionID{0}, Payload: encodeKVReq(&kvReq{
		reads: []store.OID{kvOID(0, 0), kvOID(0, 1)}, writes: []store.OID{kvOID(0, 2)}, add: 3})}
	es := r.newExecState()
	var resp []byte
	got := allocsPerStep(t, s, func(p *sim.Proc) {
		req.Ts++
		var ok bool
		if resp, ok = r.execute(p, es, &req, nil); !ok {
			t.Error("execute took the lagger path")
		}
	})
	if decodeKVVal(resp) == 0 {
		t.Fatalf("response %x", resp)
	}

	values := map[store.OID][]byte{kvOID(0, 0): encodeKVVal(1), kvOID(0, 1): encodeKVVal(2)}
	ctx := NewExecContext(&req, 0, values, nil)
	app := r.app
	own := testing.AllocsPerRun(200, func() {
		app.ReadSet(&req)
		app.Execute(ctx)
	})
	t.Logf("execute: %v allocations, the kv app's own ReadSet and Execute: %v", got, own)
	if got != own {
		t.Fatalf("a warm execute allocates %v times, the application %v: want no more than the application", got, own)
	}
}

// TestLeaseReadAllocatesOnlyTheValue: a lease read views the store, and
// both ends encode on the stack, so a probe and its reply allocate once —
// the copy of the value the client keeps.
func TestLeaseReadAllocatesOnlyTheValue(t *testing.T) {
	s, d := testDeployment(t, 1, 3, 4)
	defer s.Close()
	cl := d.NewClient()
	s.Spawn("grant", func(p *sim.Proc) {
		if _, err := cl.Submit(p, []PartitionID{0}, EncodeLeaseCommand(1, LeaseGrant, 0, sim.Time(sim.Second))); err != nil {
			t.Error(err)
		}
	})
	runFor(t, s, sim.Millisecond)
	holder := d.Replicas[0][0]
	if !holder.LeaseSelfServe() {
		t.Fatal("the grant did not make rank 0 a self-serving holder")
	}
	served := 0
	got := allocsPerStep(t, s, func(p *sim.Proc) {
		if val, ok := cl.LeaseRead(p, holder.NodeID(), uint64(kvOID(0, 1)), sim.Millisecond); ok && len(val) == 8 {
			served++
		}
	})
	if served == 0 {
		t.Fatal("no lease read was served")
	}
	if got != 1 {
		t.Fatalf("a lease read allocates %v times, want 1 (the value the client keeps)", got)
	}
}
