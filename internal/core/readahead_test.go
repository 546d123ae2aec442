package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// sampleReadsAhead samples, every 100 ns until stop, whether each replica
// of partition part has a READ posted for a request it has not dequeued
// yet, and returns the replicas seen doing so.
func sampleReadsAhead(s *sim.Scheduler, d *Deployment, part PartitionID, stop sim.Time) map[*Replica]bool {
	early := map[*Replica]bool{}
	s.Spawn("read-ahead-sampler", func(p *sim.Proc) {
		for p.Now() < stop {
			for _, rep := range d.Replicas[part] {
				if ra := &rep.ahead; ra.req.Ts > rep.lastReq && unposted(ra) < len(ra.posts) {
					early[rep] = true
				}
			}
			p.Sleep(100 * sim.Nanosecond)
		}
	})
	return early
}

// unposted counts the read-ahead's READs not posted yet.
func unposted(ra *readAhead) int {
	n := 0
	for _, po := range ra.posts {
		if po.h == nil {
			n++
		}
	}
	return n
}

// readOps sums the READs posted from the replicas of one partition to
// those of another.
func readOps(m *obs.Metrics, d *Deployment, from, to PartitionID) uint64 {
	var n uint64
	for _, a := range d.Replicas[from] {
		for _, b := range d.Replicas[to] {
			n += m.Counter(fmt.Sprintf("rdma/qp/n%d->n%d/read_ops", a.NodeID(), b.NodeID())).Value()
		}
	}
	return n
}

// With two multi-partition requests queued, every replica that reads
// remotely posts the second request's READ while it waits for the first
// one's phase-4 majority, before it dequeues the second; execute then
// finds the completion in, where it used to wait a READ round trip. No
// READ is added, and replies and stores agree on every replica.
func TestQueuedRequestReadsAhead(t *testing.T) {
	m, tr := obs.NewMetrics(), obs.NewTracer()
	s, d := observedDeployment(t, 2, 3, 4, obs.New(tr, m))
	defer s.Close()
	for _, group := range d.Replicas {
		for _, rep := range group {
			rep.SetSlow(20 * sim.Microsecond) // requests delivered together queue
		}
	}
	early := sampleReadsAhead(s, d, 1, sim.Time(5*sim.Millisecond))
	adds := [][]uint64{{1}, {2}}
	responses := rmwClients(t, s, d, adds)
	runFor(t, s, 5*sim.Millisecond)
	checkRMWs(t, d, adds, *responses)

	for _, rep := range d.Replicas[1] {
		if !early[rep] {
			t.Errorf("p1/r%d never had a READ posted before it dequeued the request", rep.Rank())
		}
	}
	// Each partition-1 replica reads kvOID(0, 0) once per request.
	if got := readOps(m, d, 1, 0); got != 2*3 {
		t.Errorf("%d READs from partition 1, want one per request and replica (6)", got)
	}
	if got := m.Counter("core/read_ahead_dropped").Value(); got != 0 {
		t.Errorf("%d READs posted ahead were dropped", got)
	}
	fanouts := map[[2]int][]obs.Event{}
	for _, ev := range tr.Events() {
		if ev.Name == "read_fanout" {
			k := [2]int{ev.Pid, ev.Tid}
			fanouts[k] = append(fanouts[k], ev)
		}
	}
	read := rdma.ReadBase
	for k, evs := range fanouts {
		if len(evs) != 2 {
			t.Fatalf("track %v: %d read fan-outs, want 2", k, len(evs))
		}
		t.Logf("track %v: read fan-outs %v then %v", k, evs[0].Dur, evs[1].Dur)
		if evs[1].Dur >= read {
			t.Errorf("track %v: the queued request's read fan-out took %v, want less than one READ (%v)", k, evs[1].Dur, read)
		}
	}
	if len(fanouts) != 3 {
		t.Fatalf("%d replicas read remotely, want partition 1's 3", len(fanouts))
	}
}

// The parallel executor runs multi-partition requests through the same
// serial path, so it reads ahead too, and the RMW chain stays exact.
func TestReadAheadWithWorkers(t *testing.T) {
	s, d := parallelDeployment(t, 2, 3, 4, 2)
	defer s.Close()
	for _, group := range d.Replicas {
		for _, rep := range group {
			rep.SetSlow(20 * sim.Microsecond)
		}
	}
	early := sampleReadsAhead(s, d, 1, sim.Time(20*sim.Millisecond))
	adds := [][]uint64{{1, 2, 3, 4}, {10, 20, 30, 40}, {100, 200, 300, 400}}
	responses := rmwClients(t, s, d, adds)
	runFor(t, s, 20*sim.Millisecond)
	checkRMWs(t, d, adds, *responses)
	for _, rep := range d.Replicas[1] {
		if !early[rep] {
			t.Errorf("p1/r%d never had a READ posted before it dequeued the request", rep.Rank())
		}
	}
}

// readAheadRig is stoppedExecutor with one multi-partition request, next,
// queued for the stopped replica r (partition 0) behind an executed n: it
// reads kvOID(0, 0) locally and kvOID(1, 0) remotely. Every peer's word in
// r's coordination memory already reads as past next, and the remote
// address is known, so the READ can go out at once.
type readAheadRig struct {
	s      *sim.Scheduler
	d      *Deployment
	r      *Replica
	m      *obs.Metrics
	client rdma.NodeID // where replies go
}

const rigN, rigNext = multicast.Timestamp(5), multicast.Timestamp(6)

var rigBoth = []PartitionID{0, 1}

func rigPayload() []byte {
	return encodeKVReq(&kvReq{reads: []store.OID{kvOID(0, 0), kvOID(1, 0)}, writes: []store.OID{kvOID(0, 0)}, add: 1})
}

func newReadAheadRig(t *testing.T, head []byte) *readAheadRig {
	t.Helper()
	m := obs.NewMetrics()
	s, d, r := stoppedExecutor(t, 2, obs.New(nil, m))
	g := &readAheadRig{s: s, d: d, r: r, m: m, client: d.NewClient().NodeID()}
	r.lastReq, r.lastExec = rigN, rigN
	r.mc.Deliveries().Send(multicast.Delivery{ID: multicast.MsgID{Node: g.client, Seq: 1}, Ts: rigNext, Dst: rigBoth, Payload: head})
	past := uint64(100)<<2 | phaseBefore
	for part, group := range d.Replicas {
		for rank, rep := range group {
			if rep != r {
				off := r.coordOff(PartitionID(part), rank)
				binary.LittleEndian.PutUint64(r.coordMem.Bytes()[off:off+8], past)
			}
		}
	}
	s.Spawn("addresses", func(p *sim.Proc) {
		r.batchQueryAddrs(p, r.newExecState(), &Request{Ts: rigNext, Dst: rigBoth}, []remoteRead{{oid: kvOID(1, 0), part: 1}}, nil)
	})
	runFor(t, s, 50*sim.Microsecond)
	if !r.hasAddrQuorum(kvOID(1, 0), 1) {
		t.Fatal("no address quorum for the remote object")
	}
	return g
}

// postAhead ends request n with the merged word, which reads the head
// ahead, and posts its READ.
func (g *readAheadRig) postAhead(t *testing.T) {
	t.Helper()
	g.s.Spawn("phase4", func(p *sim.Proc) {
		g.r.postPhase4(p, &Request{Ts: rigN, Dst: rigBoth})
		g.r.postAhead(p)
	})
	runFor(t, g.s, 10*sim.Microsecond)
	if g.r.ahead.req.Ts != rigNext || unposted(&g.r.ahead) != 0 {
		t.Fatalf("read ahead for %v with %d READs unposted, want %v with none", g.r.ahead.req.Ts, unposted(&g.r.ahead), rigNext)
	}
}

func (g *readAheadRig) counter(name string) uint64 { return g.m.Counter(name).Value() }

// A configuration installed after the head's READ went out activates at
// the head: the head runs in another epoch, so its read-ahead is dropped —
// never read — and it executes with fresh READs. A head whose epoch tag
// the new configuration rejects does not execute at all, and the request
// behind it reads afresh too.
func TestInterceptedHeadExecutesWithFreshReads(t *testing.T) {
	for _, c := range []struct {
		name         string
		head         []byte
		headExecutes bool
	}{
		{name: "configuration activates", head: rigPayload(), headExecutes: true},
		{name: "epoch mismatch", head: WrapEpoch(0, rigPayload())},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := newReadAheadRig(t, c.head)
			defer g.s.Close()
			g.postAhead(t)
			if got := readOps(g.m, g.d, 0, 1); got != 1 {
				t.Fatalf("%d READs after the read-ahead, want 1", got)
			}
			g.r.InstallPendingConfig(rigNext, 1, nil, nil)
			g.r.mc.Deliveries().Send(multicast.Delivery{ID: multicast.MsgID{Node: g.client, Seq: 2}, Ts: rigNext + 1, Dst: rigBoth, Payload: rigPayload()})
			g.r.execProc = g.s.Spawn("exec", g.r.runExecutor)
			runFor(t, g.s, sim.Millisecond)
			if g.r.Epoch() != 1 || g.r.LastExecuted() != rigNext+1 {
				t.Fatalf("epoch %d, executed through %v: the queue did not drain under the new configuration", g.r.Epoch(), g.r.LastExecuted())
			}
			if got := g.counter("core/read_ahead_dropped"); got != 1 {
				t.Errorf("%d READs posted ahead dropped, want the head's 1", got)
			}
			// The dropped READ, then one per executed request.
			executed, reads := uint64(1), uint64(2)
			if c.headExecutes {
				executed, reads = 2, 3
			}
			if g.r.Executed() != executed {
				t.Errorf("%d requests executed, want %d", g.r.Executed(), executed)
			}
			if got := readOps(g.m, g.d, 0, 1); got != reads {
				t.Errorf("%d READs, want %d", got, reads)
			}
			val, ts, _ := g.r.Store().Get(kvOID(0, 0))
			if ts != uint64(rigNext+1) || decodeKVVal(val) == 0 {
				t.Errorf("kvOID(0, 0) = %d@%d, want the last request's write", decodeKVVal(val), ts)
			}
		})
	}
}

// The phase-4 wait wakes for the read-ahead, not only for its majority:
// the moment one replica of partition 1 has reached next, its READ goes
// out, while the wait for n's majority goes on and returns only once the
// majority holds.
func TestWaitPostsReadAheadBeforeMajority(t *testing.T) {
	g := newReadAheadRig(t, rigPayload())
	defer g.s.Close()
	word := func(part PartitionID, rank int, ts multicast.Timestamp) {
		g.s.Spawn("word", func(*sim.Proc) {
			off := g.r.coordOff(part, rank)
			binary.LittleEndian.PutUint64(g.r.coordMem.Bytes()[off:off+8], uint64(ts)<<2|phaseBefore)
			g.r.node.WriteNotify().Broadcast()
		})
		runFor(t, g.s, 5*sim.Microsecond)
	}
	for part, group := range g.d.Replicas {
		for rank, rep := range group {
			if rep != g.r {
				word(PartitionID(part), rank, rigN) // reached n: phase 2 of n only
			}
		}
	}
	returned := false
	g.s.Spawn("phase4", func(p *sim.Proc) {
		n := &Request{Ts: rigN, Dst: rigBoth}
		g.r.postPhase4(p, n)
		g.r.waitCoordination(p, n, phaseAfter, false, nil)
		returned = true
	})
	runFor(t, g.s, 10*sim.Microsecond)
	if g.r.ahead.req.Ts != rigNext || unposted(&g.r.ahead) != 1 || returned {
		t.Fatalf("before any peer reached next: read ahead for %v with %d unposted, wait returned %v; want %v, 1, false",
			g.r.ahead.req.Ts, unposted(&g.r.ahead), returned, rigNext)
	}
	word(1, 1, rigNext)
	if unposted(&g.r.ahead) != 0 || readOps(g.m, g.d, 0, 1) != 1 {
		t.Fatalf("p1/r1 reached next, yet %d READs unposted", unposted(&g.r.ahead))
	}
	if returned {
		t.Fatal("the wait returned without n's phase-4 majority")
	}
	word(0, 1, rigNext)
	if returned {
		t.Fatal("the wait returned with partition 1 short of its majority")
	}
	word(1, 2, rigNext)
	if !returned {
		t.Fatal("the wait did not return on the majority")
	}
}

// A READ posted ahead is a READ like any other: when its target has
// advanced two versions past the request by the time it lands, no version
// is old enough and execute takes the lagger path.
func TestReadAheadDetectsLagger(t *testing.T) {
	g := newReadAheadRig(t, rigPayload())
	defer g.s.Close()
	g.s.Spawn("phase4", func(p *sim.Proc) {
		g.r.postPhase4(p, &Request{Ts: rigN, Dst: rigBoth})
		g.r.postAhead(p)
		// Partition 1 moves on before the READ lands (a READ takes a
		// ReadBase): both versions are newer than rigNext.
		for _, rep := range g.d.Replicas[1] {
			for _, ts := range []uint64{uint64(rigNext) + 1, uint64(rigNext) + 2} {
				if err := rep.Store().Set(kvOID(1, 0), encodeKVVal(ts), ts); err != nil {
					t.Error(err)
				}
			}
		}
	})
	var ok, returned bool
	g.s.Spawn("execute", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		_, ok = g.r.execute(p, g.r.newExecState(), &Request{Ts: rigNext, Dst: rigBoth, Payload: rigPayload()}, nil)
		returned = true
	})
	runFor(t, g.s, sim.Millisecond)
	if g.r.StateTransfers() != 1 {
		t.Fatalf("%d state transfers, want the lagger's 1", g.r.StateTransfers())
	}
	if returned && ok {
		t.Error("execute completed the request from versions newer than it")
	}
	if got := readOps(g.m, g.d, 0, 1); got != 1 || g.counter("core/read_ahead_posts") != 1 {
		t.Errorf("%d READs, %d posted ahead: want the one posted ahead", got, g.counter("core/read_ahead_posts"))
	}
}

// The read-ahead is for exactly the request the merged word announced:
// when the word falls back, nothing is read ahead; and no request is read
// ahead while a configuration is pending, at its phase 2 either.
func TestNoReadAheadWhileAConfigurationIsPending(t *testing.T) {
	g := newReadAheadRig(t, rigPayload())
	defer g.s.Close()
	g.r.InstallPendingConfig(100, 1, nil, nil)
	g.r.readAheadFor(&Request{Ts: rigNext, Dst: rigBoth, Payload: rigPayload()})
	if g.r.ahead.req.Ts != 0 {
		t.Fatalf("read ahead for %v with a configuration pending", g.r.ahead.req.Ts)
	}
}

// rejoin forgets the read-ahead with the queue it was read from.
func TestRejoinClearsReadAhead(t *testing.T) {
	g := newReadAheadRig(t, rigPayload())
	defer g.s.Close()
	g.postAhead(t)
	g.r.Crash()
	runFor(t, g.s, 10*sim.Microsecond)
	if err := g.d.RecoverReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if ra := &g.r.ahead; ra.req.Ts != 0 || len(ra.posts) != 0 || ra.cq != nil {
		t.Fatalf("read-ahead for %v with %d READs survived the rejoin", ra.req.Ts, len(ra.posts))
	}
}
