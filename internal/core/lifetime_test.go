package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"heron/internal/core"
	"heron/internal/kvapp"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
	"heron/internal/wire"
)

// scribbler wraps an Application and, at the start of every Execute,
// fills with 0xAA the bytes of the request the same context executed
// before: its Values, everything its arena handed out, its write values
// and its response. By ExecContext's lifetime rule those bytes are dead by
// then — the executing proc applied the writes and replied before taking
// the next request — so a replica that kept an alias of one past that
// point reads the fill. The context identifies the proc: each executing
// proc reuses one. The current request's values may share the arena with
// the previous request's bytes, so they are kept across the fill.
type scribbler struct {
	core.Application
	prev    map[*core.ExecContext][][]byte
	spoiled int // bytes filled
}

func scribbled(f core.AppFactory) (core.AppFactory, *[]*scribbler) {
	var all []*scribbler
	return func(part core.PartitionID, rank int) core.Application {
		s := &scribbler{Application: f(part, rank), prev: make(map[*core.ExecContext][][]byte)}
		all = append(all, s)
		return s
	}, &all
}

func (s *scribbler) Execute(ctx *core.ExecContext) core.Outcome {
	keep := make(map[store.OID][]byte, len(ctx.Values))
	for oid, v := range ctx.Values {
		keep[oid] = bytes.Clone(v)
	}
	for _, b := range s.prev[ctx] {
		for i := range b {
			b[i] = 0xAA
		}
		s.spoiled += len(b)
	}
	for oid, v := range ctx.Values {
		copy(v, keep[oid])
	}
	out := s.Application.Execute(ctx)
	prev := append(s.prev[ctx][:0], core.ArenaInUse(ctx), out.Response)
	for _, v := range ctx.Values {
		prev = append(prev, v)
	}
	for _, w := range out.Writes {
		prev = append(prev, w.Val)
	}
	s.prev[ctx] = prev
	return out
}

func (s *scribbler) ConflictSets(req *core.Request) ([]store.OID, []store.OID, bool) {
	if ce, ok := s.Application.(core.ConflictEstimator); ok {
		return ce.ConflictSets(req)
	}
	return nil, nil, false
}

func (s *scribbler) SnapshotAux(fromTmp, toTmp uint64) []byte {
	return s.Application.(core.AuxSyncer).SnapshotAux(fromTmp, toTmp)
}

func (s *scribbler) ApplyAux(data []byte) { s.Application.(core.AuxSyncer).ApplyAux(data) }

// lifetimeRun is what a run leaves: every client's responses in order and
// every replica's slots and auxiliary state.
type lifetimeRun struct {
	responses [][]map[core.PartitionID][]byte
	slots     [][]map[store.OID][]byte
	aux       [][]any
}

// collect reads every replica's final state; auxOf reads an application's
// auxiliary state in a form that compares with reflect.DeepEqual.
func (run *lifetimeRun) collect(d *core.Deployment, auxOf func(core.Application) any) {
	for _, group := range d.Replicas {
		var slots []map[store.OID][]byte
		var aux []any
		for _, rep := range group {
			m := make(map[store.OID][]byte)
			for _, oid := range rep.Store().Objects() {
				m[oid], _ = rep.Store().CopySlot(oid)
			}
			slots = append(slots, m)
			aux = append(aux, auxOf(unwrap(rep.App())))
		}
		run.slots = append(run.slots, slots)
		run.aux = append(run.aux, aux)
	}
}

// tpccAux is a TPCC replica's map tables, which SnapshotAux encodes in
// key order.
func tpccAux(app core.Application) any { return app.(core.AuxSyncer).SnapshotAux(0, ^uint64(0)) }

// kvAux is a kv replica's mirror map, which SnapshotAux encodes in map
// order: decoded, it compares.
func kvAux(app core.Application) any {
	rd := wire.NewReader(app.(core.AuxSyncer).SnapshotAux(0, ^uint64(0)))
	m := make(map[uint64]uint64)
	for n := rd.U32(); n > 0; n-- {
		m[rd.U64()] = rd.U64()
	}
	return m
}

func unwrap(app core.Application) core.Application {
	if s, ok := app.(*scribbler); ok {
		return s.Application
	}
	return app
}

func layoutOf(parts, replicas int) [][]rdma.NodeID {
	layout := make([][]rdma.NodeID, parts)
	id := rdma.NodeID(1)
	for g := range layout {
		for r := 0; r < replicas; r++ {
			layout[g] = append(layout[g], id)
			id++
		}
	}
	return layout
}

// tpccLifetimeRun runs a closed TPCC loop, the standard mix on two
// warehouses, with workers execution workers.
func tpccLifetimeRun(t *testing.T, workers int, wrap bool) (*lifetimeRun, []*scribbler) {
	t.Helper()
	s := sim.NewScheduler()
	defer s.Close()
	scale := tpcc.SmallScale()
	ds := tpcc.NewDataset(42, 2, scale)
	cfg := core.DefaultConfig(multicast.DefaultConfig(layoutOf(2, 3)))
	cfg.StoreCapacity = scale.Items*store.SlotSize(tpcc.StockMaxBytes) +
		scale.DistrictsPerWH*scale.CustomersPerDistrict*store.SlotSize(tpcc.CustomerMaxBytes) + 4096
	cfg.ExecWorkers = workers
	factory := tpcc.NewAppFactory(ds)
	var apps *[]*scribbler
	if wrap {
		factory, apps = scribbled(factory)
	}
	d, err := core.NewDeployment(s, cfg, factory, tpcc.Partitioner)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PopulateAll(func(_ core.PartitionID, _ int, rep *core.Replica) error {
		return unwrap(rep.App()).(*tpcc.App).Populate(rep.Store())
	}); err != nil {
		t.Fatal(err)
	}
	d.Start()
	const clients, txns = 6, 40
	run := &lifetimeRun{responses: make([][]map[core.PartitionID][]byte, clients)}
	for ci := 0; ci < clients; ci++ {
		cl := d.NewClient()
		w := tpcc.NewWorkload(int64(ci)*7919+1, 2, scale)
		w.HomeWID = ci%2 + 1
		s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			for i := 0; i < txns; i++ {
				txn := w.Next()
				resp, err := cl.Submit(p, txn.Partitions(), txn.Encode())
				if err != nil {
					t.Error(err)
					return
				}
				run.responses[ci] = append(run.responses[ci], resp)
			}
		})
	}
	if err := s.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for ci, r := range run.responses {
		if len(r) != txns {
			t.Fatalf("client %d completed %d of %d transactions", ci, len(r), txns)
		}
	}
	run.collect(d, tpccAux)
	if apps == nil {
		return run, nil
	}
	return run, *apps
}

// kvLeaseLifetimeRun runs kv reads and writes on one partition in rounds,
// each behind a fresh lease whose holder, rank 0, executes far behind its
// peers: the others park every reply until the lease expires, and it is
// their parked replies the clients receive. It also returns the most
// replies a non-holder held at once.
func kvLeaseLifetimeRun(t *testing.T, wrap bool) (*lifetimeRun, []*scribbler, int) {
	t.Helper()
	s := sim.NewScheduler()
	defer s.Close()
	cfg := core.DefaultConfig(multicast.DefaultConfig(layoutOf(1, 3)))
	const keys = 4
	cfg.StoreCapacity = kvapp.SlotCapacity(keys, 8)
	factory := kvapp.New(kvapp.Partitioner, 8)
	var apps *[]*scribbler
	if wrap {
		factory, apps = scribbled(factory)
	}
	d, err := core.NewDeployment(s, cfg, factory, kvapp.Partitioner)
	if err != nil {
		t.Fatal(err)
	}
	if err := kvapp.Populate(d, kvapp.Partitioner, kvapp.PartitionKeys(1, keys), 8); err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Replicas[0][0].SetSlow(400 * sim.Microsecond)
	const clients, rounds, ops = 4, 5, 3
	run := &lifetimeRun{responses: make([][]map[core.PartitionID][]byte, clients)}
	granter := d.NewClient()
	cls := make([]*core.Client, clients)
	for ci := range cls {
		cls[ci] = d.NewClient()
	}
	s.Spawn("rounds", func(p *sim.Proc) {
		for k := 1; k <= rounds; k++ {
			grant := core.EncodeLeaseCommand(uint64(k), core.LeaseGrant, 0, p.Now()+sim.Time(300*sim.Microsecond))
			if _, err := granter.Submit(p, []core.PartitionID{0}, grant); err != nil {
				t.Error(err)
				return
			}
			done := 0
			for ci, cl := range cls {
				s.Spawn(fmt.Sprintf("round%d-client%d", k, ci), func(p *sim.Proc) {
					for i := 0; i < ops; i++ {
						oid := kvapp.OID(0, uint32((ci+i)%keys))
						req := kvapp.Req{Reads: []store.OID{oid}}
						if (ci+i)%2 == 0 {
							req.Writes, req.Add = []store.OID{oid}, uint64(100*k+10*ci+i)
						}
						resp, err := cl.Submit(p, []core.PartitionID{0}, req.Encode())
						if err != nil {
							t.Error(err)
							return
						}
						run.responses[ci] = append(run.responses[ci], resp)
					}
					done++
				})
			}
			for done < clients {
				p.Sleep(10 * sim.Microsecond)
			}
		}
	})
	parked := 0
	s.Spawn("sampler", func(p *sim.Proc) {
		for {
			for _, rep := range d.Replicas[0][1:] {
				parked = max(parked, rep.GatedReplies())
			}
			p.Sleep(sim.Microsecond)
		}
	})
	if err := s.RunUntil(sim.Time(60 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for ci, r := range run.responses {
		if len(r) != rounds*ops {
			t.Fatalf("client %d completed %d of %d operations", ci, len(r), rounds*ops)
		}
	}
	run.collect(d, kvAux)
	if apps == nil {
		return run, nil, parked
	}
	return run, *apps, parked
}

// compareRuns fails unless the scribbled run left exactly what the plain
// one did, and the scribbler spoiled something.
func compareRuns(t *testing.T, want, got *lifetimeRun, apps []*scribbler) {
	t.Helper()
	spoiled := 0
	for _, s := range apps {
		spoiled += s.spoiled
	}
	if spoiled == 0 {
		t.Fatal("the scribbler spoiled nothing")
	}
	for ci := range want.responses {
		if !reflect.DeepEqual(got.responses[ci], want.responses[ci]) {
			t.Fatalf("client %d received different responses with spoiled execution bytes:\n got  %x\n want %x", ci, got.responses[ci], want.responses[ci])
		}
	}
	for g := range want.slots {
		for r := range want.slots[g] {
			if !reflect.DeepEqual(got.slots[g][r], want.slots[g][r]) {
				t.Fatalf("partition %d replica %d: store differs with spoiled execution bytes", g, r)
			}
			if !reflect.DeepEqual(got.aux[g][r], want.aux[g][r]) {
				t.Fatalf("partition %d replica %d: auxiliary state differs with spoiled execution bytes", g, r)
			}
		}
	}
}

// TestExecutionBytesDeadAfterReply: TPCC, serial and with a worker pool,
// and a kv run whose non-holders park their replies behind a lease, give
// every client the same responses and leave every replica the same store
// whether or not each executing proc's previous request's bytes are
// spoiled at the start of its next Execute. With a pool, the workers'
// contexts took part; behind the lease, a non-holder held several replies
// at once, which gatedReply's copies keep intact.
func TestExecutionBytesDeadAfterReply(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("tpcc-workers-%d", workers), func(t *testing.T) {
			want, _ := tpccLifetimeRun(t, workers, false)
			got, apps := tpccLifetimeRun(t, workers, true)
			compareRuns(t, want, got, apps)
			if workers > 1 {
				for _, s := range apps {
					if len(s.prev) < 2 {
						t.Fatalf("a replica executed with %d contexts: the pool took no request", len(s.prev))
					}
				}
			}
		})
	}
	t.Run("kv-lease-parked", func(t *testing.T) {
		want, _, _ := kvLeaseLifetimeRun(t, false)
		got, apps, parked := kvLeaseLifetimeRun(t, true)
		if parked < 2 {
			t.Fatalf("a non-holder held at most %d replies at once; the run does not exercise parking behind execution", parked)
		}
		compareRuns(t, want, got, apps)
	})
}
