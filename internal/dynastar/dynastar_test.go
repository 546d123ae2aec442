package dynastar

import (
	"bytes"
	"fmt"
	"testing"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
)

// deploy builds a DynaStar system running TPCC with one warehouse per
// partition.
func deploy(t *testing.T, warehouses, replicas int, scale tpcc.Scale) (*sim.Scheduler, *Deployment, *tpcc.Dataset) {
	t.Helper()
	s := sim.NewScheduler()
	layout := make([][]rdma.NodeID, warehouses)
	id := rdma.NodeID(1)
	for g := range layout {
		for r := 0; r < replicas; r++ {
			layout[g] = append(layout[g], id)
			id++
		}
	}
	ds := tpcc.NewDataset(42, warehouses, scale)
	cfg := DefaultConfig(multicast.DefaultConfig(layout), 9999)
	newApp := func(part PartitionID, rank int) core.Application {
		app := tpcc.NewApp(part, ds)
		app.SetSingleExecutor(true)
		return app
	}
	d, err := NewDeployment(s, cfg, newApp, tpcc.Router{})
	if err != nil {
		t.Fatal(err)
	}
	for g := range d.Replicas {
		for _, rep := range d.Replicas[g] {
			rep.App().(*tpcc.App).PopulateObjects(rep.LoadObject)
		}
	}
	d.Start()
	return s, d, ds
}

func TestDynaStarSinglePartition(t *testing.T) {
	s, d, _ := deploy(t, 1, 3, tpcc.SmallScale())
	cl := d.NewClient()
	var resp []byte
	s.Spawn("client", func(p *sim.Proc) {
		txn := &tpcc.Txn{Kind: tpcc.TxnOrderStatus, WID: 1, DID: 1, CID: 1}
		var err error
		resp, err = cl.Submit(p, txn.Encode())
		if err != nil {
			t.Error(err)
		}
	})
	if err := s.RunUntil(sim.Time(200 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if resp == nil || bytes.HasPrefix(resp, []byte("ERR")) {
		t.Fatalf("response = %q", resp)
	}
}

func TestDynaStarMultiPartitionMigration(t *testing.T) {
	s, d, ds := deploy(t, 2, 3, tpcc.SmallScale())
	cl := d.NewClient()

	// New-Order at warehouse 1 with a remote line supplied by warehouse
	// 2: the executor (partition 0) must receive partition 1's stock row,
	// update it, and migrate it back.
	txn := &tpcc.Txn{
		Kind: tpcc.TxnNewOrder, WID: 1, DID: 1, CID: 1,
		Lines: []tpcc.OrderLineReq{
			{IID: 1, SupplyWID: 1, Quantity: 2},
			{IID: 2, SupplyWID: 2, Quantity: 3},
		},
	}
	before := ds.GenStock(2, 2)

	var resp []byte
	s.Spawn("client", func(p *sim.Proc) {
		var err error
		resp, err = cl.Submit(p, txn.Encode())
		if err != nil {
			t.Error(err)
		}
	})
	if err := s.RunUntil(sim.Time(500 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if resp == nil || bytes.HasPrefix(resp, []byte("ERR")) {
		t.Fatalf("response = %q", resp)
	}
	// The updated remote stock row migrated back to every replica of the
	// owning partition.
	for rank := 0; rank < 3; rank++ {
		raw, ok := d.Replica(1, rank).Object(tpcc.StockOID(2, 2))
		if !ok {
			t.Fatalf("partition 1 replica %d lost stock(2,2)", rank)
		}
		stock, err := tpcc.DecodeStock(raw)
		if err != nil {
			t.Fatal(err)
		}
		if stock.OrderCnt != before.OrderCnt+1 {
			t.Fatalf("replica %d: order count %d, want %d", rank, stock.OrderCnt, before.OrderCnt+1)
		}
	}
}

func TestDynaStarWorkloadConverges(t *testing.T) {
	s, d, ds := deploy(t, 2, 3, tpcc.SmallScale())
	const clients = 2
	const perClient = 15
	done := 0
	for ci := 0; ci < clients; ci++ {
		ci := ci
		cl := d.NewClient()
		w := tpcc.NewWorkload(int64(ci+1), 2, tpcc.SmallScale())
		s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				txn := w.Next()
				resp, err := cl.Submit(p, txn.Encode())
				if err != nil {
					t.Error(err)
					return
				}
				if bytes.HasPrefix(resp, []byte("ERR")) {
					t.Errorf("%v failed: %s", txn.Kind, resp)
				}
				done++
			}
		})
	}
	if err := s.RunUntil(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != clients*perClient {
		t.Fatalf("completed %d of %d", done, clients*perClient)
	}
	// Replicas of each partition converge on object values.
	for g := 0; g < 2; g++ {
		part := PartitionID(g)
		for iid := 1; iid <= ds.Scale.Items; iid += 53 {
			oid := tpcc.StockOID(g+1, iid)
			v0, _ := d.Replica(part, 0).Object(oid)
			for rank := 1; rank < 3; rank++ {
				v, _ := d.Replica(part, rank).Object(oid)
				if !bytes.Equal(v0, v) {
					t.Fatalf("partition %d stock %d diverges between replicas", g, iid)
				}
			}
		}
	}
	// Every replica of a partition was loaded with the same shared rows:
	// the mix replaced objects' values but wrote into none of those rows.
	fresh := tpcc.NewDataset(42, 2, tpcc.SmallScale())
	changed := 0
	for g := 0; g < 2; g++ {
		part := PartitionID(g)
		want := make(map[store.OID][]byte)
		tpcc.NewApp(part, fresh).PopulateObjects(func(oid store.OID, val []byte) { want[oid] = val })
		tpcc.NewApp(part, ds).PopulateObjects(func(oid store.OID, val []byte) {
			if !bytes.Equal(val, want[oid]) {
				t.Fatalf("partition %d: the shared initial row of object %#x was written", g, oid)
			}
			if v, _ := d.Replica(part, 0).Object(oid); !bytes.Equal(v, val) {
				changed++
			}
		})
	}
	if changed == 0 {
		t.Fatal("the mix changed no object, so the check above shows nothing")
	}
}

func TestDynaStarSlowerThanMicroseconds(t *testing.T) {
	// The whole point of the baseline: latency is hundreds of
	// microseconds, not tens (message passing + oracle + ordering stack).
	s, d, _ := deploy(t, 2, 3, tpcc.SmallScale())
	cl := d.NewClient()
	var lat sim.Duration
	s.Spawn("client", func(p *sim.Proc) {
		txn := &tpcc.Txn{Kind: tpcc.TxnOrderStatus, WID: 1, DID: 1, CID: 1}
		// Warm up once, then measure.
		if _, err := cl.Submit(p, txn.Encode()); err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		if _, err := cl.Submit(p, txn.Encode()); err != nil {
			t.Error(err)
			return
		}
		lat = sim.Duration(p.Now() - t0)
	})
	if err := s.RunUntil(sim.Time(time500ms())); err != nil {
		t.Fatal(err)
	}
	if lat < 300*sim.Microsecond {
		t.Fatalf("DynaStar single-partition latency %v implausibly low", lat)
	}
	if lat > 5*sim.Millisecond {
		t.Fatalf("DynaStar single-partition latency %v implausibly high", lat)
	}
}

func time500ms() sim.Duration { return 500 * sim.Millisecond }

// TestDynaStarPaymentRemoteCustomer: single-executor semantics — the home
// partition executes the whole Payment and the updated remote customer
// row migrates back to its owner.
func TestDynaStarPaymentRemoteCustomer(t *testing.T) {
	s, d, ds := deploy(t, 2, 3, tpcc.SmallScale())
	cl := d.NewClient()
	before := ds.GenCustomer(2, 3, 7)
	var ytd0 [3]int64
	var history0 [3]int
	for rank := range ytd0 {
		ytd0[rank], history0[rank] = d.Replica(0, rank).App().(*tpcc.App).PaymentState(1)
	}
	txn := &tpcc.Txn{
		Kind: tpcc.TxnPayment,
		WID:  1, DID: 1,
		CWID: 2, CDID: 3, CID: 7,
		Amount: 777,
	}
	s.Spawn("client", func(p *sim.Proc) {
		if _, err := cl.Submit(p, txn.Encode()); err != nil {
			t.Error(err)
		}
	})
	if err := s.RunUntil(sim.Time(500 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		raw, ok := d.Replica(1, rank).Object(tpcc.CustomerOID(2, 3, 7))
		if !ok {
			t.Fatalf("owner replica %d lost the customer", rank)
		}
		cust, err := tpcc.DecodeCustomer(raw)
		if err != nil {
			t.Fatal(err)
		}
		if cust.Balance != before.Balance-777 {
			t.Fatalf("replica %d balance %d, want %d", rank, cust.Balance, before.Balance-777)
		}
	}
	// Every replica of the home partition recorded district YTD + history.
	for rank := 0; rank < 3; rank++ {
		ytd, history := d.Replica(0, rank).App().(*tpcc.App).PaymentState(1)
		if ytd != ytd0[rank]+777 || history != history0[rank]+1 {
			t.Fatalf("home replica %d: district 1 YTD %d and %d history rows, want %d and %d",
				rank, ytd, history, ytd0[rank]+777, history0[rank]+1)
		}
	}
}

// TestDynaStarStaleResponsesIgnored: the client must not confuse a late
// response to an earlier request with the current one.
func TestDynaStarStaleResponsesIgnored(t *testing.T) {
	s, d, _ := deploy(t, 1, 3, tpcc.SmallScale())
	cl := d.NewClient()
	var resps [][]byte
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			// OrderStatus responses: customer balance (8 bytes) + ol count.
			txn := &tpcc.Txn{Kind: tpcc.TxnOrderStatus, WID: 1, DID: 1, CID: int32(i + 1)}
			resp, err := cl.Submit(p, txn.Encode())
			if err != nil {
				t.Error(err)
				return
			}
			resps = append(resps, resp)
		}
	})
	if err := s.RunUntil(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(resps) != 5 {
		t.Fatalf("completed %d of 5", len(resps))
	}
	// All 3 executor replicas reply to each request; with 5 sequential
	// requests, 10 stale responses were in flight — none may have been
	// taken as an answer to a later request (the seq filter). Responses
	// are per-customer balances; customers have distinct generated data,
	// so at least the lengths/types must be well-formed.
	for i, r := range resps {
		if len(r) < 9 {
			t.Fatalf("response %d malformed: %v", i, r)
		}
	}
}

// TestDynaStarThroughputSanity: the baseline sustains its expected few
// thousand tps per partition at saturation — not more (the modeled stack
// costs bind), not catastrophically less.
func TestDynaStarThroughputSanity(t *testing.T) {
	s, d, _ := deploy(t, 1, 3, tpcc.SmallScale())
	const clients = 12
	completed := 0
	for ci := 0; ci < clients; ci++ {
		ci := ci
		cl := d.NewClient()
		w := tpcc.NewWorkload(int64(ci+1), 1, tpcc.SmallScale())
		s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			for p.Now() < sim.Time(100*sim.Millisecond) {
				txn := w.Next()
				if _, err := cl.Submit(p, txn.Encode()); err != nil {
					return
				}
				completed++
			}
		})
	}
	if err := s.RunUntil(sim.Time(150 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	tput := float64(completed) / 0.1
	if tput < 1000 || tput > 20000 {
		t.Fatalf("1-partition DynaStar throughput %.0f tps outside the plausible band", tput)
	}
}
