package core

import (
	"encoding/binary"
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

// TestWarmRemoteReadsAllocateOnlyTheApp: on a warm two-partition rig, an
// execute that resolves a remote read — the address known, the READ posted
// into the CQ its previous execute handed back, the candidates, targets
// and exclusions in reused scratch — allocates exactly what the
// application's ReadSet and Execute allocate themselves.
func TestWarmRemoteReadsAllocateOnlyTheApp(t *testing.T) {
	s, _, r := stoppedExecutor(t, 2, nil)
	defer s.Close()
	// Every peer's word reads as past any request the test executes, so
	// each is a coordinated replica to read from.
	past := uint64(1)<<30<<2 | phaseBefore
	for part, group := range r.peers {
		for rank := range group {
			off := r.coordOff(PartitionID(part), rank)
			binary.LittleEndian.PutUint64(r.coordMem.Bytes()[off:off+8], past)
		}
	}
	remote := kvOID(1, 0)
	req := Request{Ts: 10, Dst: []PartitionID{0, 1}, Payload: encodeKVReq(&kvReq{
		reads: []store.OID{kvOID(0, 0), remote}, writes: []store.OID{kvOID(0, 0)}, add: 1})}
	es := r.newExecState()
	var resp []byte
	got := allocsPerStep(t, s, func(p *sim.Proc) {
		req.Ts++
		var ok bool
		if resp, ok = r.execute(p, es, &req, nil); !ok || es.cq == nil || len(resp) == 0 {
			t.Errorf("execute ok=%v posted READs %v, response %x", ok, es.cq != nil, resp)
		}
	})

	values := map[store.OID][]byte{kvOID(0, 0): encodeKVVal(1), remote: encodeKVVal(2)}
	ctx := NewExecContext(&req, 0, values, nil)
	app := r.app
	own := testing.AllocsPerRun(200, func() {
		app.ReadSet(&req)
		app.Execute(ctx)
	})
	t.Logf("execute with a remote read: %v allocations, the kv app's own ReadSet and Execute: %v", got, own)
	if got != own {
		t.Fatalf("a warm execute with a remote read allocates %v times, the application %v: want no more than the application", got, own)
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
