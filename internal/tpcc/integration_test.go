package tpcc

import (
	"bytes"
	"fmt"
	"testing"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// deployTPCC builds a Heron deployment running TPCC with one warehouse
// per partition.
func deployTPCC(t *testing.T, warehouses, replicas int, scale Scale) (*sim.Scheduler, *core.Deployment, *Dataset) {
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
	ds := NewDataset(42, warehouses, scale)
	cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
	cfg.StoreCapacity = scale.Items*storeSlot(StockMaxBytes) +
		scale.DistrictsPerWH*scale.CustomersPerDistrict*storeSlot(CustomerMaxBytes) + 4096
	d, err := core.NewDeployment(s, cfg, NewAppFactory(ds), Partitioner)
	if err != nil {
		t.Fatal(err)
	}
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		return rep.App().(*App).Populate(rep.Store())
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	return s, d, ds
}

func storeSlot(max int) int { return 2 * (16 + max) }

func TestTPCCOnHeronSingleWarehouse(t *testing.T) {
	s, d, _ := deployTPCC(t, 1, 3, SmallScale())
	cl := d.NewClient()
	w := NewWorkload(7, 1, SmallScale())
	completed := map[TxnKind]int{}
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			txn := w.Next()
			resp, err := cl.Submit(p, txn.Partitions(), txn.Encode())
			if err != nil {
				t.Error(err)
				return
			}
			for _, pl := range resp {
				if bytes.HasPrefix(pl, []byte("ERR")) {
					t.Errorf("%v failed: %s", txn.Kind, pl)
				}
			}
			completed[txn.Kind]++
		}
	})
	if err := s.RunUntil(sim.Time(500 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range completed {
		total += c
	}
	if total != 60 {
		t.Fatalf("completed %d of 60 transactions: %v", total, completed)
	}
}

func TestTPCCOnHeronMultiWarehouse(t *testing.T) {
	s, d, ds := deployTPCC(t, 4, 3, SmallScale())
	const clients = 4
	const perClient = 30
	done := 0
	multi := 0
	for ci := 0; ci < clients; ci++ {
		ci := ci
		cl := d.NewClient()
		w := NewWorkload(int64(100+ci), 4, SmallScale())
		w.HomeWID = ci + 1
		s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				txn := w.Next()
				parts := txn.Partitions()
				if len(parts) > 1 {
					multi++
				}
				resp, err := cl.Submit(p, parts, txn.Encode())
				if err != nil {
					t.Error(err)
					return
				}
				for _, pl := range resp {
					if bytes.HasPrefix(pl, []byte("ERR")) {
						t.Errorf("%v failed: %s", txn.Kind, pl)
					}
				}
				done++
			}
		})
	}
	if err := s.RunUntil(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != clients*perClient {
		t.Fatalf("completed %d of %d transactions", done, clients*perClient)
	}

	// Replicas of each partition converge: identical stock and customer
	// bytes, identical aux state (district order counters). Each replica
	// also satisfies the TPC-C consistency conditions.
	for g := 0; g < 4; g++ {
		part := core.PartitionID(g)
		base := d.Replica(part, 0)
		baseApp := base.App().(*App)
		if err := baseApp.CheckConsistency(base.Store()); err != nil {
			t.Fatalf("partition %d: %v", g, err)
		}
		for r := 1; r < 3; r++ {
			rep := d.Replica(part, r)
			app := rep.App().(*App)
			for iid := 1; iid <= ds.Scale.Items; iid += 97 {
				oid := StockOID(g+1, iid)
				v0, t0, _ := base.Store().Get(oid)
				v1, t1, _ := rep.Store().Get(oid)
				if !bytes.Equal(v0, v1) || t0 != t1 {
					t.Fatalf("partition %d stock %d diverges between replicas", g, iid)
				}
			}
			for did := 1; did <= ds.Scale.DistrictsPerWH; did++ {
				a := baseApp.districts[int32(did)]
				b := app.districts[int32(did)]
				if a.NextOID != b.NextOID || a.YTD != b.YTD {
					t.Fatalf("partition %d district %d diverges: %+v vs %+v", g, did, a, b)
				}
			}
		}
	}
}

func TestTPCCNewOrderEffects(t *testing.T) {
	s, d, _ := deployTPCC(t, 2, 3, SmallScale())
	cl := d.NewClient()

	txn := &Txn{
		Kind: TxnNewOrder,
		WID:  1,
		DID:  1,
		CID:  1,
		Lines: []OrderLineReq{
			{IID: 1, SupplyWID: 1, Quantity: 3},
			{IID: 2, SupplyWID: 2, Quantity: 4}, // remote line -> multi-partition
		},
	}
	app0 := d.Replica(0, 0).App().(*App)
	before := app0.districts[1].NextOID
	var stock2Before *Stock
	{
		raw, _, _ := d.Replica(1, 0).Store().Get(StockOID(2, 2))
		stock2Before, _ = DecodeStock(raw)
	}

	s.Spawn("client", func(p *sim.Proc) {
		resp, err := cl.Submit(p, txn.Partitions(), txn.Encode())
		if err != nil {
			t.Error(err)
			return
		}
		if len(resp) != 2 {
			t.Errorf("want responses from 2 partitions, got %d", len(resp))
		}
	})
	if err := s.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}

	if got := app0.districts[1].NextOID; got != before+1 {
		t.Fatalf("district NextOID = %d, want %d", got, before+1)
	}
	// The remote partition updated its own stock row, including the
	// remote counter.
	raw, _, _ := d.Replica(1, 0).Store().Get(StockOID(2, 2))
	stock2, err := DecodeStock(raw)
	if err != nil {
		t.Fatal(err)
	}
	if stock2.OrderCnt != stock2Before.OrderCnt+1 {
		t.Fatalf("remote stock order count %d, want %d", stock2.OrderCnt, stock2Before.OrderCnt+1)
	}
	if stock2.RemoteCnt != stock2Before.RemoteCnt+1 {
		t.Fatalf("remote stock remote count %d, want %d", stock2.RemoteCnt, stock2Before.RemoteCnt+1)
	}
	// The home partition recorded the order with both lines.
	key := orderKey{did: 1, oid: before}
	ord := app0.orders[key]
	if ord == nil || ord.OLCnt != 2 || ord.AllLocal {
		t.Fatalf("order not recorded correctly: %+v", ord)
	}
}

func TestTPCCDeliveryAndStockLevel(t *testing.T) {
	s, d, _ := deployTPCC(t, 1, 3, SmallScale())
	cl := d.NewClient()
	app0 := d.Replica(0, 0).App().(*App)
	fifoBefore := len(app0.newOrders[1])
	if fifoBefore == 0 {
		t.Fatal("no initial undelivered orders")
	}

	var delivered byte
	var lowStock int64
	s.Spawn("client", func(p *sim.Proc) {
		resp, err := cl.Submit(p, []core.PartitionID{0}, (&Txn{Kind: TxnDelivery, WID: 1, CarrierID: 5}).Encode())
		if err != nil {
			t.Error(err)
			return
		}
		delivered = resp[0][0]
		resp, err = cl.Submit(p, []core.PartitionID{0}, (&Txn{Kind: TxnStockLevel, WID: 1, DID: 1, Threshold: 101}).Encode())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 8; i++ {
			lowStock |= int64(resp[0][i]) << (8 * i)
		}
	})
	if err := s.RunUntil(sim.Time(200 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 {
		t.Fatalf("delivered %d districts, want 10", delivered)
	}
	if got := len(app0.newOrders[1]); got != fifoBefore-1 {
		t.Fatalf("district 1 FIFO %d, want %d", got, fifoBefore-1)
	}
	// Threshold 101 exceeds the max initial quantity (100), so every
	// distinct item in the last 20 orders counts as low.
	if lowStock == 0 {
		t.Fatal("stock level query found no low stock at threshold 101")
	}
}

func TestTPCCPaymentRemoteCustomer(t *testing.T) {
	s, d, ds := deployTPCC(t, 2, 3, SmallScale())
	cl := d.NewClient()
	custBefore := ds.GenCustomer(2, 3, 7)

	txn := &Txn{
		Kind:   TxnPayment,
		WID:    1,
		DID:    1,
		CWID:   2, // remote customer
		CDID:   3,
		CID:    7,
		Amount: 12345,
	}
	s.Spawn("client", func(p *sim.Proc) {
		if _, err := cl.Submit(p, txn.Partitions(), txn.Encode()); err != nil {
			t.Error(err)
		}
	})
	if err := s.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	raw, _, _ := d.Replica(1, 0).Store().Get(CustomerOID(2, 3, 7))
	cust, err := DecodeCustomer(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cust.Balance != custBefore.Balance-12345 {
		t.Fatalf("customer balance %d, want %d", cust.Balance, custBefore.Balance-12345)
	}
	if cust.PaymentCnt != custBefore.PaymentCnt+1 {
		t.Fatalf("payment count %d, want %d", cust.PaymentCnt, custBefore.PaymentCnt+1)
	}
	// Home partition recorded district YTD and history.
	app0 := d.Replica(0, 0).App().(*App)
	if app0.districts[1].YTD != ds.GenDistrict(1, 1).YTD+12345 {
		t.Fatalf("district YTD = %d", app0.districts[1].YTD)
	}
	if len(app0.history) != 1 {
		t.Fatalf("history rows = %d, want 1", len(app0.history))
	}
}

// TestTPCCParallelExecution runs the TPCC mix with the multi-threaded
// execution extension and verifies replica convergence — worker
// interleavings must not break determinism.
func TestTPCCParallelExecution(t *testing.T) {
	s := sim.NewScheduler()
	layout := make([][]rdma.NodeID, 2)
	id := rdma.NodeID(1)
	for g := range layout {
		for r := 0; r < 3; r++ {
			layout[g] = append(layout[g], id)
			id++
		}
	}
	scale := SmallScale()
	ds := NewDataset(42, 2, scale)
	cfg := core.DefaultConfig(multicast.DefaultConfig(layout))
	cfg.StoreCapacity = scale.Items*storeSlot(StockMaxBytes) +
		scale.DistrictsPerWH*scale.CustomersPerDistrict*storeSlot(CustomerMaxBytes) + 4096
	cfg.ExecWorkers = 4
	d, err := core.NewDeployment(s, cfg, NewAppFactory(ds), Partitioner)
	if err != nil {
		t.Fatal(err)
	}
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		return rep.App().(*App).Populate(rep.Store())
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()

	done := 0
	for ci := 0; ci < 4; ci++ {
		ci := ci
		cl := d.NewClient()
		w := NewWorkload(int64(ci+1), 2, scale)
		w.HomeWID = ci%2 + 1
		s.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				txn := w.Next()
				resp, err := cl.Submit(p, txn.Partitions(), txn.Encode())
				if err != nil {
					t.Error(err)
					return
				}
				for _, pl := range resp {
					if bytes.HasPrefix(pl, []byte("ERR")) {
						t.Errorf("%v failed: %s", txn.Kind, pl)
					}
				}
				done++
			}
		})
	}
	if err := s.RunUntil(sim.Time(3 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != 160 {
		t.Fatalf("completed %d of 160", done)
	}
	// Convergence across replicas, store and aux, plus the TPC-C
	// consistency conditions on each replica.
	for g := 0; g < 2; g++ {
		part := core.PartitionID(g)
		base := d.Replica(part, 0)
		baseApp := base.App().(*App)
		if err := baseApp.CheckConsistency(base.Store()); err != nil {
			t.Fatalf("partition %d (parallel): %v", g, err)
		}
		for r := 1; r < 3; r++ {
			rep := d.Replica(part, r)
			app := rep.App().(*App)
			for iid := 1; iid <= scale.Items; iid += 101 {
				oid := StockOID(g+1, iid)
				v0, t0, _ := base.Store().Get(oid)
				v1, t1, _ := rep.Store().Get(oid)
				if !bytes.Equal(v0, v1) || t0 != t1 {
					t.Fatalf("partition %d stock %d diverged under parallel execution", g, iid)
				}
			}
			for did := 1; did <= scale.DistrictsPerWH; did++ {
				a, b := baseApp.districts[int32(did)], app.districts[int32(did)]
				if a.NextOID != b.NextOID || a.YTD != b.YTD {
					t.Fatalf("partition %d district %d diverged: NextOID %d/%d YTD %d/%d",
						g, did, a.NextOID, b.NextOID, a.YTD, b.YTD)
				}
			}
		}
	}
}
