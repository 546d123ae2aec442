package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"heron/internal/lincheck"
	"heron/internal/sim"
	"heron/internal/store"
)

// TestCrashDuringMultiPartitionStream kills one replica per partition in
// the middle of a multi-partition workload; clients must keep completing
// (f=1) and the survivors must converge.
func TestCrashDuringMultiPartitionStream(t *testing.T) {
	s, d := testDeployment(t, 2, 3, 4)
	cl := d.NewClient()
	done := 0
	s.After(2*sim.Millisecond, func() {
		d.Replica(0, 1).Crash()
		d.Replica(1, 2).Crash()
	})
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			req := &kvReq{
				reads:  []store.OID{kvOID(0, 0), kvOID(1, 0)},
				writes: []store.OID{kvOID(0, 0), kvOID(1, 0)},
				add:    uint64(i + 1),
			}
			if _, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req)); err != nil {
				t.Error(err)
				return
			}
			done++
		}
	})
	runFor(t, s, 400*sim.Millisecond)
	if done != 30 {
		t.Fatalf("completed %d of 30 with one crash per partition", done)
	}
	// Survivors of partition 0 agree.
	v0, t0, _ := d.Replica(0, 0).Store().Get(kvOID(0, 0))
	v2, t2, _ := d.Replica(0, 2).Store().Get(kvOID(0, 0))
	if !bytes.Equal(v0, v2) || t0 != t2 {
		t.Fatal("survivors of partition 0 diverged")
	}
}

// TestMulticastLeaderCrashUnderHeron kills the multicast leader node of a
// partition (which is also a Heron replica) mid-stream: ordering must
// fail over and Heron must keep executing on the survivors.
func TestMulticastLeaderCrashUnderHeron(t *testing.T) {
	s, d := testDeployment(t, 2, 3, 4)
	cl := d.NewClient()
	done := 0
	// Rank 0 hosts the initial multicast leader for its group.
	s.After(3*sim.Millisecond, func() { d.Replica(0, 0).Crash() })
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 25; i++ {
			req := &kvReq{
				reads:  []store.OID{kvOID(1, 0)},
				writes: []store.OID{kvOID(0, 1), kvOID(1, 0)},
				add:    uint64(i + 1),
			}
			if _, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req)); err != nil {
				t.Error(err)
				return
			}
			done++
		}
	})
	runFor(t, s, 500*sim.Millisecond)
	if done != 25 {
		t.Fatalf("completed %d of 25 across a multicast leader crash", done)
	}
	// The surviving replicas of partition 0 converged.
	v1, ts1, _ := d.Replica(0, 1).Store().Get(kvOID(0, 1))
	v2, ts2, _ := d.Replica(0, 2).Store().Get(kvOID(0, 1))
	if !bytes.Equal(v1, v2) || ts1 != ts2 {
		t.Fatal("partition 0 survivors diverged after leader crash")
	}
}

// TestTwoLaggersSamePartition slows two replicas (leaving exactly the
// majority fast): both must recover via state transfer and converge.
// With n=5 and f=2, two laggers are tolerable.
func TestTwoLaggersSamePartition(t *testing.T) {
	s, d := testDeployment(t, 2, 5, 4)
	d.Replica(0, 3).SetSlow(250 * sim.Microsecond)
	d.Replica(0, 4).SetSlow(400 * sim.Microsecond)

	cl := d.NewClient()
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			req := &kvReq{
				reads:  []store.OID{kvOID(1, 0)},
				writes: []store.OID{kvOID(1, 0), kvOID(0, 0)},
				add:    uint64(i + 1),
			}
			if _, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	runFor(t, s, 800*sim.Millisecond)

	transfers := d.Replica(0, 3).StateTransfers() + d.Replica(0, 4).StateTransfers()
	if transfers == 0 {
		t.Fatal("slow replicas never needed state transfer")
	}
	runFor(t, s, 100*sim.Millisecond)
	ref, reft, _ := d.Replica(0, 0).Store().Get(kvOID(0, 0))
	for _, rank := range []int{3, 4} {
		v, ts, _ := d.Replica(0, rank).Store().Get(kvOID(0, 0))
		if !bytes.Equal(ref, v) || reft != ts {
			t.Fatalf("lagger rank %d diverged: %v@%d vs %v@%d", rank, v, ts, ref, reft)
		}
	}
}

// TestStateTransferResponderFailover: the deterministic first responder
// is crashed, so the next replica in the ring must serve the transfer
// after the timeout.
func TestStateTransferResponderFailover(t *testing.T) {
	s, d := testDeployment(t, 1, 5, 4)
	cl := d.NewClient()
	s.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			req := &kvReq{writes: []store.OID{kvOID(0, 0)}, add: uint64(i + 1)}
			if _, err := cl.Submit(p, []PartitionID{0}, encodeKVReq(req)); err != nil {
				t.Error(err)
				return
			}
		}
		// Lagger is rank 4; its first responder in ring order is rank 0.
		// Crash rank 0 so rank 1 must take over after the timeout.
		d.Replica(0, 0).Crash()
		t0 := p.Now()
		d.Replica(0, 4).RequestFullStateTransfer(p)
		if took := sim.Duration(p.Now() - t0); took < stateTransferTimeout {
			t.Errorf("transfer completed in %v, before the failover timeout %v — wrong responder?",
				took, stateTransferTimeout)
		}
	})
	runFor(t, s, 500*sim.Millisecond)
	// Rank 4 matches rank 1 (a correct responder).
	v1, ts1, _ := d.Replica(0, 1).Store().Get(kvOID(0, 0))
	v4, ts4, _ := d.Replica(0, 4).Store().Get(kvOID(0, 0))
	if !bytes.Equal(v1, v4) || ts1 != ts4 {
		t.Fatal("failover transfer produced divergent state")
	}
}

// TestStaleTransferCopyServesNothing: a watcher whose copy of a finished
// state transfer stays claimed (a slow link lost the completion record to
// it) must not take the request over later and stream its slots into the
// lagger, which is live and waits for nothing. It confirms against the
// lagger's own entry and adopts it instead.
func TestStaleTransferCopyServesNothing(t *testing.T) {
	s, d := testDeployment(t, 1, 3, 4)
	cl := d.NewClient()
	transferred := false
	s.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			req := &kvReq{writes: []store.OID{kvOID(0, 0)}, add: uint64(i + 1)}
			if _, err := cl.Submit(p, []PartitionID{0}, encodeKVReq(req)); err != nil {
				t.Error(err)
				return
			}
		}
		// Rank 2's first responder in ring order is rank 0; rank 1 watches.
		d.Replica(0, 2).RequestFullStateTransfer(p)
		transferred = true
	})
	runFor(t, s, 10*sim.Millisecond)
	watcher := d.Replica(0, 1)
	if !transferred || watcher.FullBytesOut() != 0 {
		t.Fatalf("transfer done %v, rank 1 served %d bytes; want a transfer served by rank 0",
			transferred, watcher.FullBytesOut())
	}
	copy(watcher.stMem.Bytes()[2*stEntrySize:], encodeStEntry(stEntry{status: stClaimed}))
	runFor(t, s, 10*stateTransferTimeout)
	if n := watcher.FullBytesOut(); n != 0 {
		t.Fatalf("rank 1 took the finished transfer over: %d bytes streamed into a live replica", n)
	}
	if e := watcher.readStEntry(2); e.status != stIdle {
		t.Fatalf("rank 1's copy of rank 2's entry is %+v, want it idle", e)
	}
}

// TestDeploymentSettled: a quiet deployment is settled, and each of a
// replica behind its group, a peer's state-transfer entry in use in some
// replica's copy, and a crashed replica keeps it unsettled.
func TestDeploymentSettled(t *testing.T) {
	s, d := testDeployment(t, 2, 3, 4)
	cl := d.NewClient()
	s.Spawn("load", func(p *sim.Proc) {
		for part := PartitionID(0); part < 2; part++ {
			req := &kvReq{writes: []store.OID{kvOID(part, 0)}, add: 1}
			if _, err := cl.Submit(p, []PartitionID{part}, encodeKVReq(req)); err != nil {
				t.Error(err)
			}
		}
	})
	runFor(t, s, 2*sim.Millisecond)
	if !d.Settled() {
		t.Fatal("a quiet deployment is not settled")
	}
	behind := d.Replica(1, 2)
	behind.lastExec--
	if d.Settled() {
		t.Fatal("settled with a replica behind its group")
	}
	behind.lastExec++
	watcher := d.Replica(1, 1).stMem.Bytes()
	copy(watcher, encodeStEntry(stEntry{status: stRequested}))
	if d.Settled() {
		t.Fatal("settled with a copy of rank 0's state-transfer entry in use")
	}
	copy(watcher, encodeStEntry(stEntry{}))
	if !d.Settled() {
		t.Fatal("not settled once the entry is idle again")
	}
	behind.Crash()
	if d.Settled() {
		t.Fatal("settled with a replica crashed")
	}
}

// TestFiveReplicaMajorities: phase coordination with n=5 must require 3
// (not all) replicas — crash two followers and throughput must continue.
func TestFiveReplicaMajorities(t *testing.T) {
	s, d := testDeployment(t, 2, 5, 2)
	s.After(sim.Millisecond, func() {
		d.Replica(0, 3).Crash()
		d.Replica(0, 4).Crash()
	})
	cl := d.NewClient()
	done := 0
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			req := &kvReq{reads: []store.OID{kvOID(1, 0)}, writes: []store.OID{kvOID(0, 0)}, add: uint64(i)}
			if _, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req)); err != nil {
				t.Error(err)
				return
			}
			done++
		}
	})
	runFor(t, s, 400*sim.Millisecond)
	if done != 20 {
		t.Fatalf("completed %d of 20 with f=2 crashes", done)
	}
}

// TestManyPartitionsWideRequests drives requests spanning 5 partitions.
func TestManyPartitionsWideRequests(t *testing.T) {
	s, d := testDeployment(t, 5, 3, 2)
	cl := d.NewClient()
	dst := []PartitionID{0, 1, 2, 3, 4}
	done := 0
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 15; i++ {
			req := &kvReq{
				reads: []store.OID{kvOID(0, 0), kvOID(1, 0), kvOID(2, 0), kvOID(3, 0), kvOID(4, 0)},
				writes: []store.OID{
					kvOID(0, 1), kvOID(1, 1), kvOID(2, 1), kvOID(3, 1), kvOID(4, 1),
				},
				add: uint64(i + 1),
			}
			resp, err := cl.Submit(p, dst, encodeKVReq(req))
			if err != nil {
				t.Error(err)
				return
			}
			// All five partitions computed the same sum.
			first := decodeKVVal(resp[0])
			for _, part := range dst[1:] {
				if got := decodeKVVal(resp[part]); got != first {
					t.Errorf("partition %d computed %d, partition 0 computed %d", part, got, first)
				}
			}
			done++
		}
	})
	runFor(t, s, 300*sim.Millisecond)
	if done != 15 {
		t.Fatalf("completed %d of 15 five-partition requests", done)
	}
}

// TestCrashBetweenPostAndCompletionFailsOnlySubset sweeps a target-
// replica crash across the execution window of a wide multi-partition
// read set: a replica that crashes between the posting and the completion
// of a batched READ must fail only its own completions — the executor
// retries the failed subset on another coordinated replica and the
// request completes with correct values. Every crash instant must leave
// the system correct, and at least one instant in the sweep must land
// mid-flight and exercise the retry path (observable via ReadRetries).
func TestCrashBetweenPostAndCompletionFailsOnlySubset(t *testing.T) {
	const keys = 8
	var reads, seed []store.OID
	for k := uint32(0); k < keys; k++ {
		reads = append(reads, kvOID(1, k))
		seed = append(seed, kvOID(1, k))
	}
	var retries uint64
	for off := 6 * sim.Microsecond; off <= 24*sim.Microsecond; off += sim.Microsecond {
		s, d := testDeployment(t, 2, 3, keys)
		cl := d.NewClient()
		completed := false
		s.Spawn("client", func(p *sim.Proc) {
			// Warm-up: seed the read objects and every executor's address
			// map, so the measured request's READs post right after its
			// phase-2 coordination — the sweep then covers the posting and
			// in-flight instants. Rank 1 is a follower whose coordination
			// record reaches the executors within the phase-2 majority, so
			// it is actually selected as a read target (rank 2's record
			// deterministically trails the majority in this layout).
			warm := &kvReq{reads: reads, writes: seed, add: 7}
			if _, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(warm)); err != nil {
				t.Error(err)
				return
			}
			s.After(off, func() { d.Replica(1, 1).Crash() })
			req := &kvReq{reads: reads, writes: []store.OID{kvOID(0, 0)}, add: 2}
			resp, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req))
			if err != nil {
				t.Errorf("crash at +%v: %v", off, err)
				return
			}
			// Partition 0 resolved the read set remotely (through the
			// crash), partition 1 locally: identical responses prove the
			// retried reads observed the owner partition's values.
			if !bytes.Equal(resp[0], resp[1]) {
				t.Errorf("crash at +%v: remote reads diverged from owner partition: %x vs %x",
					off, resp[0], resp[1])
			}
			completed = true
		})
		runFor(t, s, 400*sim.Millisecond)
		if !completed {
			t.Fatalf("crash at +%v: request never completed", off)
		}
		for rank := 0; rank < 3; rank++ {
			retries += d.Replica(0, rank).ReadRetries()
		}
	}
	if retries == 0 {
		t.Fatal("no crash instant in the sweep exercised the failed-completion retry path")
	}
}

// TestCrashRecoverRejoinLinearizes crashes a replica mid-stream, recovers
// it with Deployment.RecoverReplica (multicast state restored from the
// live members, application state via full state transfer), and verifies
// that the complete client history — spanning the crash and the rejoin —
// linearizes, and that the rejoined replica converges to the survivors
// and resumes executing.
func TestCrashRecoverRejoinLinearizes(t *testing.T) {
	s, d := testDeployment(t, 2, 3, 3)
	const clients = 3
	const perClient = 14

	s.After(2*sim.Millisecond, func() { d.Replica(0, 1).Crash() })
	s.After(8*sim.Millisecond, func() {
		if err := d.RecoverReplica(0, 1); err != nil {
			t.Error(err)
		}
	})

	var history []lincheck.Operation
	for ci := 0; ci < clients; ci++ {
		ci := ci
		cl := d.NewClient()
		rng := rand.New(rand.NewSource(int64(ci) + 7))
		s.Spawn(fmt.Sprintf("rejoin-client%d", ci), func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				req := &kvReq{add: uint64(rng.Intn(50))}
				dstSet := map[PartitionID]bool{}
				for j := 0; j < rng.Intn(3); j++ {
					part := PartitionID(rng.Intn(2))
					dstSet[part] = true
					req.reads = append(req.reads, kvOID(part, uint32(rng.Intn(3))))
				}
				for j := 0; j < 1+rng.Intn(2); j++ {
					part := PartitionID(rng.Intn(2))
					dstSet[part] = true
					req.writes = append(req.writes, kvOID(part, uint32(rng.Intn(3))))
				}
				var dst []PartitionID
				for part := range dstSet {
					dst = append(dst, part)
				}
				sort.Slice(dst, func(a, b int) bool { return dst[a] < dst[b] })
				call := int64(p.Now())
				resp, err := cl.Submit(p, dst, encodeKVReq(req))
				if err != nil {
					t.Error(err)
					return
				}
				history = append(history, lincheck.Operation{
					ClientID: ci,
					Input:    req,
					Output:   decodeKVVal(resp[dst[0]]),
					Call:     call,
					Return:   int64(p.Now()),
				})
				// Stretch the workload across the crash and the rejoin.
				p.Sleep(sim.Duration(300+rng.Intn(300)) * sim.Microsecond)
			}
		})
	}
	runFor(t, s, 2*sim.Second)
	if len(history) != clients*perClient {
		t.Fatalf("completed %d of %d operations across crash and rejoin", len(history), clients*perClient)
	}
	ok, err := lincheck.Check(kvModel(), history)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("history of %d operations spanning crash-recovery is NOT linearizable", len(history))
	}

	rejoined := d.Replica(0, 1)
	if rejoined.StateTransfers() == 0 {
		t.Fatal("rejoined replica never ran its full state transfer")
	}
	// Let in-flight deliveries settle, then the rejoined replica must agree
	// with a survivor on every object of its partition.
	runFor(t, s, 50*sim.Millisecond)
	for k := uint32(0); k < 3; k++ {
		ref, refTs, _ := d.Replica(0, 0).Store().Get(kvOID(0, k))
		got, gotTs, _ := rejoined.Store().Get(kvOID(0, k))
		if !bytes.Equal(ref, got) || refTs != gotTs {
			t.Fatalf("rejoined replica diverged on key %d: %x@%d vs %x@%d", k, got, gotTs, ref, refTs)
		}
	}
}

// TestSkipAfterTransferNoDoubleExecution verifies the last_req check: a
// recovered lagger must not re-execute requests covered by the transfer
// (observable through the deterministic add-chain: any double execution
// would break the final value).
func TestSkipAfterTransferNoDoubleExecution(t *testing.T) {
	s, d := testDeployment(t, 2, 3, 2)
	slow := d.Replica(0, 2)
	slow.SetSlow(300 * sim.Microsecond)
	cl := d.NewClient()
	const n = 30
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			req := &kvReq{
				reads:  []store.OID{kvOID(1, 0)},
				writes: []store.OID{kvOID(0, 0), kvOID(1, 0)},
				add:    1, // v_i = v_{i-1} + 1: counts executions exactly
			}
			if _, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	runFor(t, s, 600*sim.Millisecond)
	if slow.StateTransfers() == 0 {
		t.Skip("no lagging induced in this configuration")
	}
	runFor(t, s, 100*sim.Millisecond)
	// value = n iff each request executed exactly once in the chain.
	v, _, _ := slow.Store().Get(kvOID(0, 0))
	fmt.Println()
	if got := decodeKVVal(v); got != n {
		t.Fatalf("recovered replica value %d, want %d (double execution or lost update)", got, n)
	}
}
