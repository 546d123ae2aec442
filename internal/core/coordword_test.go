package core

import (
	"fmt"
	"sort"
	"testing"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// traceAll installs a tracer on every replica and returns the records it
// collects, per (partition, rank), in completion order.
func traceAll(d *Deployment) map[[2]int][]TraceRecord {
	recs := map[[2]int][]TraceRecord{}
	for _, group := range d.Replicas {
		for _, rep := range group {
			rep.SetTracer(tracerFunc(func(part PartitionID, rank int, _ multicast.MsgID, rec TraceRecord) {
				k := [2]int{int(part), rank}
				recs[k] = append(recs[k], rec)
			}))
		}
	}
	return recs
}

// rmwClients starts one closed-loop client per entry of adds. Client i
// submits adds[i] in order, each a request that reads kvOID(0, 0), adds
// the value and writes the sum to kvOID(0, 0) and kvOID(1, 0), so every
// request spans both partitions. The returned responses are checked to
// agree across partitions as they arrive.
func rmwClients(t *testing.T, s *sim.Scheduler, d *Deployment, adds [][]uint64) *[]uint64 {
	t.Helper()
	var responses []uint64
	for ci, list := range adds {
		cl := d.NewClient()
		s.Spawn(fmt.Sprintf("rmw%d", ci), func(p *sim.Proc) {
			for _, add := range list {
				req := &kvReq{reads: []store.OID{kvOID(0, 0)}, writes: []store.OID{kvOID(0, 0), kvOID(1, 0)}, add: add}
				resp, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req))
				if err != nil {
					t.Error(err)
					return
				}
				if r0, r1 := decodeKVVal(resp[0]), decodeKVVal(resp[1]); r0 != r1 {
					t.Errorf("partitions replied %d and %d", r0, r1)
				}
				responses = append(responses, decodeKVVal(resp[0]))
			}
		})
	}
	return &responses
}

// checkRMWs fails unless every add was applied exactly once in one total
// order — the sorted responses are the prefix sums of the adds — and every
// replica of both partitions holds the final sum.
func checkRMWs(t *testing.T, d *Deployment, adds [][]uint64, responses []uint64) {
	t.Helper()
	left := map[uint64]bool{}
	for _, list := range adds {
		for _, add := range list {
			left[add] = true
		}
	}
	if len(responses) != len(left) {
		t.Fatalf("%d of %d requests completed", len(responses), len(left))
	}
	sorted := append([]uint64(nil), responses...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	prev := uint64(0)
	for _, r := range sorted {
		if !left[r-prev] {
			t.Fatalf("response %d implies add %d, which no request issued once", r, r-prev)
		}
		delete(left, r-prev)
		prev = r
	}
	for part, group := range d.Replicas {
		for rank, rep := range group {
			val, _, _ := rep.Store().Get(kvOID(PartitionID(part), 0))
			if got := decodeKVVal(val); got != prev {
				t.Errorf("p%d/r%d holds %d, want %d", part, rank, got, prev)
			}
		}
	}
}

// A replica that finishes a multi-partition request with the next one
// already queued announces the next one's phase 2 in its phase-4 word, so
// the next request's phase 2 posts nothing — every post would cost its
// issuer a PostOverhead — and finds its majority already there.
func TestQueuedMultiPartitionRequestPostsNoPhase2(t *testing.T) {
	s, d := testDeployment(t, 2, 3, 4)
	defer s.Close()
	recs := traceAll(d)
	for _, group := range d.Replicas {
		for _, rep := range group {
			rep.SetSlow(20 * sim.Microsecond) // requests delivered together queue
		}
	}
	adds := [][]uint64{{1}, {2}}
	responses := rmwClients(t, s, d, adds)
	runFor(t, s, 5*sim.Millisecond)
	checkRMWs(t, d, adds, *responses)
	for k, rs := range recs {
		if len(rs) != 2 {
			t.Fatalf("p%d/r%d executed %d requests, want 2", k[0], k[1], len(rs))
		}
		if rs[0].CoordPhase2 == 0 {
			t.Errorf("p%d/r%d: the first request's phase 2 took no time: it posted nothing", k[0], k[1])
		}
		if rs[1].CoordPhase2 != 0 {
			t.Errorf("p%d/r%d: the queued request's phase 2 took %v, want 0: no post, no wait", k[0], k[1], rs[1].CoordPhase2)
		}
	}
}

// stoppedExecutor builds a deployment of parts x 3 replicas whose
// partition-0 rank-0 executor is stopped, so a test can queue that
// replica's deliveries by hand and post its words itself.
func stoppedExecutor(t *testing.T, parts int, o *obs.Observer) (*sim.Scheduler, *Deployment, *Replica) {
	t.Helper()
	s, d := appDeployment(t, parts, 3, 8, newKVApp, o)
	r := d.Replicas[0][0]
	r.execProc.Kill()
	return s, d, r
}

// After a multi-partition request, the phase-4 word is ⟨n, after⟩ unless
// the request at the head of the queue is one execution will coordinate;
// each of the tests prefetchAddrs applies, failed alone, falls back. The
// request read ahead is the announced one, and none when the word falls
// back.
func TestMergedWordFallsBack(t *testing.T) {
	const n, next = multicast.Timestamp(5), multicast.Timestamp(6)
	kv := encodeKVReq(&kvReq{reads: []store.OID{kvOID(0, 0), kvOID(1, 0)}})
	both := []PartitionID{0, 1}
	cases := []struct {
		name    string
		head    []multicast.Delivery
		lastReq multicast.Timestamp
		pending bool
		merged  bool
	}{
		{name: "no head"},
		{name: "single-partition", head: []multicast.Delivery{{Ts: next, Dst: []PartitionID{0}, Payload: kv}}},
		{name: "config command", head: []multicast.Delivery{{Ts: next, Dst: both, Payload: EncodeConfigCommand(1, nil)}}},
		{name: "lease command", head: []multicast.Delivery{{Ts: next, Dst: both, Payload: EncodeLeaseCommand(1, LeaseRevoke, 0, 0)}}},
		{name: "foreign epoch", head: []multicast.Delivery{{Ts: next, Dst: both, Payload: WrapEpoch(7, kv)}}},
		{name: "configuration pending", head: []multicast.Delivery{{Ts: next, Dst: both, Payload: kv}}, pending: true},
		{name: "covered by last_req", head: []multicast.Delivery{{Ts: next, Dst: both, Payload: kv}}, lastReq: next},
		{name: "own epoch", head: []multicast.Delivery{{Ts: next, Dst: both, Payload: WrapEpoch(0, kv)}}, merged: true},
		{name: "multi-partition", head: []multicast.Delivery{{Ts: next, Dst: both, Payload: kv}}, merged: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, d, r := stoppedExecutor(t, 2, nil)
			defer s.Close()
			r.lastReq = max(n, c.lastReq)
			for _, dl := range c.head {
				r.mc.Deliveries().Send(dl)
			}
			if c.pending {
				r.InstallPendingConfig(100, 1, nil, nil)
			}
			s.Spawn("post", func(p *sim.Proc) {
				r.postPhase4(p, &Request{Ts: n, Dst: both})
			})
			runFor(t, s, 10*sim.Microsecond)
			want, announced, remote := uint64(n)<<2|phaseAfter, multicast.Timestamp(0), 0
			if c.merged {
				want, announced, remote = uint64(next)<<2|phaseBefore, next, 1 // kvOID(1, 0)
			}
			if r.announced != announced {
				t.Errorf("announced %v, want %v", r.announced, announced)
			}
			if ra := &r.ahead; ra.req.Ts != announced || len(ra.posts) != remote {
				t.Errorf("reads ahead for %v with %d remote reads, want only the announced %v", ra.req.Ts, len(ra.posts), announced)
			}
			for part, group := range d.Replicas {
				for rank, rep := range group {
					if got := rep.coordValue(0, 0); got != want {
						t.Errorf("p%d/r%d holds ⟨%v, %d⟩, want ⟨%v, %d⟩", part, rank,
							multicast.Timestamp(got>>2), got&3, multicast.Timestamp(want>>2), want&3)
					}
				}
			}
		})
	}
}

// With Dst(n) = {0, 1} and Dst(n+1) = {0, 2}, the merged word goes once to
// every replica of the union: partition 1 reads it as n's phase 4,
// partition 2 as n+1's phase 2, and each peer receives one WRITE.
func TestMergedWordReachesBothDestinationSets(t *testing.T) {
	m := obs.NewMetrics()
	s, d, r := stoppedExecutor(t, 3, obs.New(nil, m))
	defer s.Close()
	const n, next = multicast.Timestamp(5), multicast.Timestamp(6)
	r.lastReq = n
	r.mc.Deliveries().Send(multicast.Delivery{Ts: next, Dst: []PartitionID{0, 2}, Payload: encodeKVReq(&kvReq{})})
	writes := func(rep *Replica) uint64 {
		return m.Counter(fmt.Sprintf("rdma/qp/n%d->n%d/write_ops", r.NodeID(), rep.NodeID())).Value()
	}
	var took sim.Duration
	s.Spawn("post", func(p *sim.Proc) {
		p.Sleep(150 * sim.Microsecond) // between two multicast heartbeats
		before := map[*Replica]uint64{}
		for _, group := range d.Replicas {
			for _, rep := range group {
				before[rep] = writes(rep)
			}
		}
		t0 := p.Now()
		r.postPhase4(p, &Request{Ts: n, Dst: []PartitionID{0, 1}})
		took = sim.Duration(p.Now() - t0)
		for part, group := range d.Replicas {
			for rank, rep := range group {
				if w := writes(rep) - before[rep]; rep != r && w != 1 {
					t.Errorf("p%d/r%d received %d WRITEs, want 1", part, rank, w)
				}
			}
		}
	})
	runFor(t, s, 160*sim.Microsecond)
	if want := 8 * rdma.PostOverhead; took != want {
		t.Errorf("posting took %v, want 8 posts (%v)", took, want)
	}
	for _, rep := range d.Replicas[1] {
		if !rep.coordSatisfied(0, 0, n, phaseAfter) {
			t.Errorf("p1/r%d: %#x does not read as n's phase 4", rep.Rank(), rep.coordValue(0, 0))
		}
	}
	for _, rep := range d.Replicas[2] {
		if !rep.coordSatisfied(0, 0, next, phaseBefore) || rep.coordSatisfied(0, 0, next, phaseAfter) {
			t.Errorf("p2/r%d: %#x does not read as n+1's phase 2", rep.Rank(), rep.coordValue(0, 0))
		}
	}
}

// The parallel executor runs multi-partition requests through the same
// serial path, so a multi-partition request queued behind another rides
// its phase-4 word there too, and the RMW chain stays exact.
func TestMergedWordWithWorkers(t *testing.T) {
	s, d := parallelDeployment(t, 2, 3, 4, 2)
	defer s.Close()
	recs := traceAll(d)
	for _, group := range d.Replicas {
		for _, rep := range group {
			rep.SetSlow(20 * sim.Microsecond)
		}
	}
	adds := [][]uint64{{1, 2, 3, 4}, {10, 20, 30, 40}, {100, 200, 300, 400}}
	responses := rmwClients(t, s, d, adds)
	runFor(t, s, 20*sim.Millisecond)
	checkRMWs(t, d, adds, *responses)
	for k, rs := range recs {
		merged := 0
		for _, rec := range rs {
			if rec.CoordPhase2 == 0 {
				merged++
			}
		}
		if merged == 0 {
			t.Errorf("p%d/r%d: none of %d requests had its phase 2 announced ahead", k[0], k[1], len(rs))
		}
	}
}
