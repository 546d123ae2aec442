package core_test

import (
	"fmt"
	"testing"

	"heron/internal/bench"
	"heron/internal/core"
	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
)

// tpccLoop starts a 2-warehouse deployment whose clients (3 per warehouse)
// send New-Orders spanning both partitions in a closed loop until stop —
// the allpart workload at its smallest, where every home replica reads
// remote stock and the delivery queues are never empty.
type tpccLoop struct {
	s         *sim.Scheduler
	d         *core.Deployment
	completed int
	maxLat    sim.Duration
}

func newTPCCLoop(t *testing.T, o *obs.Observer, stop sim.Time) *tpccLoop {
	t.Helper()
	opt := bench.DefaultOptions(2)
	opt.FixedPartitions = 2
	opt.ClientsPerPartition = 3
	opt.Obs = o
	l := &tpccLoop{s: sim.NewScheduler()}
	d, _, err := bench.BuildHeron(l.s, opt)
	if err != nil {
		t.Fatal(err)
	}
	l.d = d
	for ci := 0; ci < opt.ClientsPerPartition*opt.Warehouses; ci++ {
		cl := d.NewClient()
		w := tpcc.NewWorkload(opt.Seed+int64(ci)*7919, opt.Warehouses, opt.Scale)
		w.FixedPartitions = opt.FixedPartitions
		w.HomeWID = ci%opt.Warehouses + 1
		l.s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			for p.Now() < stop {
				txn := w.Next()
				t0 := p.Now()
				if _, err := cl.Submit(p, txn.Partitions(), txn.Encode()); err != nil {
					t.Error(err)
					return
				}
				l.completed++
				l.maxLat = max(l.maxLat, sim.Duration(p.Now()-t0))
			}
		})
	}
	return l
}

func (l *tpccLoop) runUntil(t *testing.T, at sim.Time) {
	t.Helper()
	if err := l.s.RunUntil(at); err != nil {
		t.Fatal(err)
	}
}

// checkConsistency runs TPCC's consistency conditions on every live replica.
func (l *tpccLoop) checkConsistency(t *testing.T) {
	t.Helper()
	for g, group := range l.d.Replicas {
		for r, rep := range group {
			if rep.Crashed() {
				continue
			}
			if err := rep.App().(*tpcc.App).CheckConsistency(rep.Store()); err != nil {
				t.Errorf("partition %d replica %d: %v", g, r, err)
			}
			if n := rep.AddrAskedLen(); n != 0 {
				t.Errorf("partition %d replica %d: %d address queries still marked in flight after the drain", g, r, n)
			}
		}
	}
}

// maxNewOrderLines bounds the remote reads of the request an executor is
// working on (TPCC clause 2.4.1: 5-15 order lines).
const maxNewOrderLines = 15

// The in-flight memo holds only queries in flight: at every instant a
// replica's count is bounded by the remote OIDs of the requests queued
// for it plus those of the one it executes, and the memo is empty once
// the queues drain — it does not grow with the run.
func TestAddrMemoHoldsOnlyQueriesInFlight(t *testing.T) {
	stop := sim.Time(4 * sim.Millisecond)
	l := newTPCCLoop(t, nil, stop)
	defer l.s.Close()
	queuedRemote := func(g, r int) int {
		rep := l.d.Replicas[g][r]
		oids := map[store.OID]bool{}
		q := l.d.MCProcs[g][r].Deliveries()
		for i := 0; ; i++ {
			dl, ok := q.Peek(i)
			if !ok {
				break
			}
			if len(dl.Dst) < 2 {
				continue
			}
			for _, oid := range rep.App().ReadSet(&core.Request{ID: dl.ID, Ts: dl.Ts, Dst: dl.Dst, Payload: dl.Payload}) {
				if int(tpcc.Partitioner.PartitionOf(oid)) != g {
					oids[oid] = true
				}
			}
		}
		return len(oids)
	}
	peak := 0
	l.s.Spawn("sampler", func(p *sim.Proc) {
		for p.Now() < stop {
			for g, group := range l.d.Replicas {
				for r, rep := range group {
					n, bound := rep.AddrAskedLen(), queuedRemote(g, r)+maxNewOrderLines
					if n > bound {
						t.Errorf("%v: p%d/r%d has %d address queries in flight, its queue reads %d remote objects", p.Now(), g, r, n, bound-maxNewOrderLines)
						return
					}
					peak = max(peak, n)
				}
			}
			p.Sleep(sim.Microsecond)
		}
	})
	l.runUntil(t, stop+sim.Time(5*sim.Millisecond))
	if peak == 0 {
		t.Fatal("no address query was ever in flight")
	}
	l.checkConsistency(t)
}

// Prefetches lost in flight cost a retransmission, nothing more: replica
// (1,1) crashes holding address queries it never answered, (1,2) loses
// every query sent to it meanwhile (as to a partition), so the queries of
// that window reach only one of partition 1's three replicas — no majority.
// The requests that read those objects wait out QueryTimeout, resend, and
// complete; TPCC's consistency conditions hold on every live replica.
func TestPrefetchLostToCrashIsResent(t *testing.T) {
	m := obs.NewMetrics()
	stop := sim.Time(6 * sim.Millisecond)
	l := newTPCCLoop(t, obs.New(nil, m), stop)
	defer l.s.Close()
	l.runUntil(t, sim.Time(sim.Millisecond))
	b, c := l.d.Replicas[1][1], l.d.Replicas[1][2]
	b.StopControl()
	c.StopControl()
	prefetched := m.Counter("core/addr_prefetch_oids")
	before := prefetched.Value()
	at := l.s.Now()
	for ep := l.d.TrCtl.Endpoint(b.NodeID()); !ep.Pending() || prefetched.Value() == before; {
		if at > sim.Time(2*sim.Millisecond) {
			t.Fatal("no prefetch reached (1,1)")
		}
		at += sim.Time(100 * sim.Nanosecond)
		l.runUntil(t, at)
	}
	b.Crash()
	l.runUntil(t, at+sim.Time(20*sim.Microsecond))
	completedAtFault := l.completed
	l.s.Spawn("lose", func(p *sim.Proc) {
		ep := l.d.TrCtl.Endpoint(c.NodeID())
		for {
			if _, _, ok := ep.TryRecv(); !ok {
				break
			}
		}
		c.StartControl(l.s)
	})
	l.runUntil(t, stop+sim.Time(5*sim.Millisecond))
	if l.completed-completedAtFault < 20 {
		t.Fatalf("%d requests completed after the fault", l.completed-completedAtFault)
	}
	if qt := core.QueryTimeout; l.maxLat < qt {
		t.Fatalf("slowest request %v: no request waited out a QueryTimeout (%v) for a lost query", l.maxLat, qt)
	}
	l.checkConsistency(t)
}
