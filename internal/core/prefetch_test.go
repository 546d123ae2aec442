package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// With requests queued behind the one executing, the executor asks for
// their remote addresses as soon as it sees them: the request that found
// the cache cold when it arrived pays an address round trip inside
// execute, a request that waited in the queue pays none.
func TestQueuedRequestResolvesAddressesAhead(t *testing.T) {
	tr := obs.NewTracer()
	s, d := observedDeployment(t, 2, 3, 4, obs.New(tr, nil))
	defer s.Close()
	for _, rep := range d.Replicas[0] {
		rep.SetSlow(20 * sim.Microsecond) // requests delivered together queue
	}
	for k := 0; k < 3; k++ {
		cl := d.NewClient()
		s.Spawn(fmt.Sprintf("client%d", k), func(p *sim.Proc) {
			req := &kvReq{reads: []store.OID{kvOID(1, uint32(k))}, writes: []store.OID{kvOID(0, uint32(k))}, add: 1}
			if _, err := cl.Submit(p, []PartitionID{0, 1}, encodeKVReq(req)); err != nil {
				t.Error(err)
			}
		})
	}
	runFor(t, s, 5*sim.Millisecond)

	type track struct{ pid, tid int }
	requests := map[track][]obs.Event{}
	resolves := map[track][]obs.Event{}
	for _, ev := range tr.Events() {
		k := track{ev.Pid, ev.Tid}
		switch ev.Name {
		case "request":
			requests[k] = append(requests[k], ev)
		case "addr_resolve":
			resolves[k] = append(resolves[k], ev)
		}
	}
	within := func(k track, req obs.Event) bool {
		for _, ev := range resolves[k] {
			if ev.Ts >= req.Ts && ev.Ts+sim.Time(ev.Dur) <= req.Ts+sim.Time(req.Dur) {
				return true
			}
		}
		return false
	}
	askers := 0
	for k, reqs := range requests {
		if len(resolves[k]) == 0 {
			continue // a partition-1 replica: its reads are local
		}
		askers++
		if len(reqs) != 3 {
			t.Fatalf("track %v executed %d requests, want 3", k, len(reqs))
		}
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].Ts < reqs[j].Ts })
		if !within(k, reqs[0]) {
			t.Errorf("track %v: the first request found the cache cold yet resolved no address", k)
		}
		if within(k, reqs[2]) {
			t.Errorf("track %v: the last request waited in the queue and still resolved addresses in execute", k)
		}
	}
	if askers != 3 {
		t.Fatalf("%d executors resolved addresses, want partition 0's 3", askers)
	}
}

// prefetchRig is a 2 x 3 deployment whose partition-0 rank-0 executor is
// stopped, so a test can queue deliveries for it by hand, and whose
// partition-1 control processes are stopped, so the address queries they
// receive wait in their endpoints until the test reads and answers them.
type prefetchRig struct {
	t     *testing.T
	s     *sim.Scheduler
	d     *Deployment
	asker *Replica
	held  []heldQuery
	ts    multicast.Timestamp
}

type heldQuery struct {
	at   *Replica
	from rdma.NodeID
	msg  []byte
}

func newPrefetchRig(t *testing.T) *prefetchRig {
	s, d := testDeployment(t, 2, 3, 8)
	g := &prefetchRig{t: t, s: s, d: d, asker: d.Replicas[0][0]}
	g.asker.execProc.Kill()
	for _, rep := range d.Replicas[1] {
		rep.ctlProc.Kill()
	}
	return g
}

// queue appends a delivery to the stopped executor's queue.
func (g *prefetchRig) queue(dst []PartitionID, reads ...store.OID) {
	g.ts++
	g.asker.mc.Deliveries().Send(multicast.Delivery{Ts: g.ts, Dst: dst, Payload: encodeKVReq(&kvReq{reads: reads})})
}

// received drains every query that reached partition 1 since the last
// call, holding them for answer, and returns the OID lists per peer.
func (g *prefetchRig) received(p *sim.Proc) map[rdma.NodeID][][]uint64 {
	got := map[rdma.NodeID][][]uint64{}
	for _, rep := range g.d.Replicas[1] {
		ep := g.d.TrCtl.Endpoint(rep.NodeID())
		for {
			msg, from, ok := ep.TryRecv()
			if !ok {
				break
			}
			kind, rd, err := ctlKind(msg)
			if err != nil || kind != ctlAddrQuery {
				g.t.Fatalf("node %d received control kind %d, want only address queries", rep.NodeID(), kind)
			}
			got[rep.NodeID()] = append(got[rep.NodeID()], queryOIDs(&rd))
			g.held = append(g.held, heldQuery{at: rep, from: from, msg: slices.Clone(msg)})
		}
	}
	return got
}

// answer serves every held query at the replica that received it.
func (g *prefetchRig) answer(p *sim.Proc) {
	for _, q := range g.held {
		q.at.handleControl(p, q.msg, q.from)
	}
	g.held = nil
}

// expect fails unless every partition-1 replica received exactly the
// given queries.
func (g *prefetchRig) expect(got map[rdma.NodeID][][]uint64, want ...[]uint64) {
	g.t.Helper()
	for _, rep := range g.d.Replicas[1] {
		if fmt.Sprint(got[rep.NodeID()]) != fmt.Sprint(want) {
			g.t.Errorf("node %d received queries %v, want %v", rep.NodeID(), got[rep.NodeID()], want)
		}
	}
}

// One scan asks each peer of a partition once, for every OID the queued
// multi-partition requests read there and nobody asked yet; a rescan of
// the same queue asks nothing; and batchQueryAddrs does not repeat an OID
// a prefetch asked less than a queryTimeout ago — it waits for that reply.
func TestPrefetchAsksOncePerPeerAndIsNotRepeated(t *testing.T) {
	g := newPrefetchRig(t)
	defer g.s.Close()
	oid := func(k uint32) uint64 { return uint64(kvOID(1, k)) }
	g.s.Spawn("test", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		g.queue([]PartitionID{0, 1}, kvOID(1, 0), kvOID(1, 1), kvOID(0, 0))
		g.queue([]PartitionID{0, 1}, kvOID(1, 1), kvOID(1, 2))
		g.queue([]PartitionID{0}, kvOID(0, 1))
		g.asker.prefetchAddrs(p, multicast.Delivery{})
		p.Sleep(10 * sim.Microsecond)
		g.expect(g.received(p), []uint64{oid(0), oid(1), oid(2)})
		g.answer(p)
		p.Sleep(10 * sim.Microsecond)
		for k := uint32(0); k < 3; k++ {
			if !g.asker.hasAddrQuorum(kvOID(1, k), 1) {
				t.Errorf("OID %d: no address quorum after the prefetch was answered", kvOID(1, k))
			}
		}
		if n := len(g.asker.addrAsked); n != 0 {
			t.Errorf("%d OIDs still marked in flight after every query was answered", n)
		}

		g.asker.prefetchAddrs(p, multicast.Delivery{}) // nothing new queued
		g.queue([]PartitionID{0, 1}, kvOID(1, 0), kvOID(1, 3))
		g.asker.prefetchAddrs(p, multicast.Delivery{})
		p.Sleep(10 * sim.Microsecond)
		g.expect(g.received(p), []uint64{oid(3)})

		done := false
		g.s.Spawn("execute", func(p *sim.Proc) {
			t0 := p.Now()
			reads := []remoteRead{{oid: kvOID(1, 3), part: 1}, {oid: kvOID(1, 4), part: 1}}
			g.asker.batchQueryAddrs(p, g.asker.newExecState(), &Request{Ts: g.ts, Dst: []PartitionID{0, 1}}, reads, nil)
			if waited := sim.Duration(p.Now() - t0); waited >= queryTimeout {
				t.Errorf("batchQueryAddrs took %v: it retransmitted instead of waiting for the prefetch", waited)
			}
			done = true
		})
		p.Sleep(10 * sim.Microsecond)
		g.expect(g.received(p), []uint64{oid(4)})
		g.answer(p)
		p.Sleep(10 * sim.Microsecond)
		if !done {
			t.Error("batchQueryAddrs still waiting after both queries were answered")
		}
	})
	runFor(t, g.s, sim.Millisecond)
}

// A prefetch that falls short of a majority — one peer crashed holding
// it, another's copy lost — costs what a lost query does: batchQueryAddrs
// waits one queryTimeout for it, then resends to everyone and resolves.
func TestLostPrefetchIsResent(t *testing.T) {
	g := newPrefetchRig(t)
	defer g.s.Close()
	g.s.Spawn("test", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		g.queue([]PartitionID{0, 1}, kvOID(1, 0))
		g.asker.prefetchAddrs(p, multicast.Delivery{})
		p.Sleep(10 * sim.Microsecond)
		g.received(p)
		a, b := g.d.Replicas[1][0], g.d.Replicas[1][1]
		b.Crash()
		for _, q := range g.held {
			if q.at == a {
				q.at.handleControl(p, q.msg, q.from)
			}
		}
		g.held = nil

		t0 := p.Now()
		var took sim.Duration
		g.s.Spawn("execute", func(p *sim.Proc) {
			g.asker.batchQueryAddrs(p, g.asker.newExecState(), &Request{Ts: g.ts, Dst: []PartitionID{0, 1}}, []remoteRead{{oid: kvOID(1, 0), part: 1}}, nil)
			took = sim.Duration(p.Now() - t0)
		})
		p.Sleep(10 * sim.Microsecond)
		if got := g.received(p); len(got) != 0 {
			t.Errorf("first attempt resent a query in flight: %v", got)
		}
		p.Sleep(queryTimeout)
		got := g.received(p)
		for _, rep := range []*Replica{a, g.d.Replicas[1][2]} {
			if fmt.Sprint(got[rep.NodeID()]) != fmt.Sprint([][]uint64{{uint64(kvOID(1, 0))}}) {
				t.Errorf("node %d: retransmission %v", rep.NodeID(), got[rep.NodeID()])
			}
		}
		g.answer(p)
		p.Sleep(10 * sim.Microsecond)
		if took < queryTimeout || took > queryTimeout+20*sim.Microsecond {
			t.Errorf("resolution took %v, want one QueryTimeout (%v) and a round trip", took, queryTimeout)
		}
	})
	runFor(t, g.s, 2*sim.Millisecond)
}

// A config command may change the routing at its position, so nothing
// behind it is prefetched — not while it is queued, not while it executes
// after its dequeue, not while the configuration it installs is pending —
// and the scan resumes once that configuration is active.
func TestNoPrefetchAcrossAConfigChange(t *testing.T) {
	g := newPrefetchRig(t)
	defer g.s.Close()
	g.s.Spawn("test", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		g.ts++
		g.asker.mc.Deliveries().Send(multicast.Delivery{Ts: g.ts, Dst: []PartitionID{0, 1}, Payload: EncodeConfigCommand(1, nil)})
		g.queue([]PartitionID{0, 1}, kvOID(1, 0))
		g.asker.prefetchAddrs(p, multicast.Delivery{})
		cmd, _ := g.asker.mc.Deliveries().TryRecv()
		g.asker.prefetchAddrs(p, cmd)
		g.asker.InstallPendingConfig(cmd.Ts, 1, nil, nil)
		g.asker.prefetchAddrs(p, multicast.Delivery{})
		p.Sleep(10 * sim.Microsecond)
		g.expect(g.received(p))
		g.asker.maybeActivateConfig(cmd.Ts)
		g.asker.prefetchAddrs(p, multicast.Delivery{})
		p.Sleep(10 * sim.Microsecond)
		g.expect(g.received(p), []uint64{uint64(kvOID(1, 0))})
	})
	runFor(t, g.s, sim.Millisecond)
}

// strictKV is kvApp whose ReadSet refuses anything execution would never
// hand it: a config or lease command, or a payload still carrying an epoch
// tag (a matching tag is stripped before the application sees it).
type strictKV struct{ Application }

func (a strictKV) ReadSet(req *Request) []store.OID {
	if IsConfigCommand(req.Payload) || IsLeaseCommand(req.Payload) {
		panic("ReadSet of a config or lease command")
	}
	if _, _, tagged := UnwrapEpoch(req.Payload); tagged {
		panic("ReadSet of an epoch-tagged payload")
	}
	return a.Application.ReadSet(req)
}

// Config commands, lease commands and foreign-epoch payloads sit in the
// delivery queue among ordinary multi-partition requests; prefetching
// never reads them as application requests.
func TestPrefetchSkipsWhatExecutionWouldNotRead(t *testing.T) {
	m := obs.NewMetrics()
	s, d := appDeployment(t, 2, 3, 8, func(part PartitionID, rank int) Application {
		return strictKV{newKVApp(part, rank)}
	}, obs.New(nil, m))
	defer s.Close()
	for _, group := range d.Replicas {
		for _, rep := range group {
			rep.SetSlow(20 * sim.Microsecond)
		}
	}
	kv := func(k uint32) []byte {
		return encodeKVReq(&kvReq{reads: []store.OID{kvOID(0, k), kvOID(1, k)}, writes: []store.OID{kvOID(0, k), kvOID(1, k)}, add: 1})
	}
	payloads := [][]byte{
		EncodeConfigCommand(1, []byte("cfg")),
		EncodeLeaseCommand(1, LeaseRevoke, 0, 0),
		WrapEpoch(7, kv(6)),
		WrapEpoch(0, kv(7)), // the replicas' own epoch: unwrapped, executed
	}
	for k := 0; k < 6; k++ {
		payloads = append(payloads, kv(uint32(k)))
	}
	done := 0
	for k, payload := range payloads {
		cl := d.NewClient()
		s.Spawn(fmt.Sprintf("client%d", k), func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				if _, err := cl.Submit(p, []PartitionID{0, 1}, payload); err != nil {
					t.Error(err)
					return
				}
			}
			done++
		})
	}
	runFor(t, s, 20*sim.Millisecond)
	if done != len(payloads) {
		t.Fatalf("%d of %d clients finished", done, len(payloads))
	}
	if m.Counter("core/addr_prefetch_oids").Value() == 0 {
		t.Fatal("nothing was prefetched: the queue never held the requests this test is about")
	}
}
