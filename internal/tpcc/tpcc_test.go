package tpcc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStockCodecRoundTrip(t *testing.T) {
	ds := NewDataset(1, 2, SmallScale())
	s := ds.GenStock(1, 42)
	got, err := DecodeStock(EncodeStock(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, got)
	}
	if len(EncodeStock(s)) > StockMaxBytes {
		t.Fatalf("encoded stock %d bytes exceeds max %d", len(EncodeStock(s)), StockMaxBytes)
	}
}

func TestCustomerCodecRoundTrip(t *testing.T) {
	ds := NewDataset(1, 2, SmallScale())
	c := ds.GenCustomer(1, 3, 17)
	got, err := DecodeCustomer(EncodeCustomer(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", c, got)
	}
	if len(EncodeCustomer(c)) > CustomerMaxBytes {
		t.Fatalf("encoded customer %d bytes exceeds max %d", len(EncodeCustomer(c)), CustomerMaxBytes)
	}
}

// TestPropertyCodecsSurviveMutation: rows mutated the way transactions
// mutate them still round-trip within the size bounds.
func TestPropertyCodecsSurviveMutation(t *testing.T) {
	ds := NewDataset(1, 4, SmallScale())
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := ds.GenStock(1+rng.Intn(4), 1+rng.Intn(1000))
		for i := 0; i < 20; i++ {
			applyStockUpdate(s, OrderLineReq{
				IID: s.IID, SupplyWID: s.WID, Quantity: int32(1 + rng.Intn(10)),
			}, int32(1+rng.Intn(4)))
		}
		enc := EncodeStock(s)
		if len(enc) > StockMaxBytes {
			return false
		}
		got, err := DecodeStock(enc)
		if err != nil || !reflect.DeepEqual(s, got) {
			return false
		}

		c := ds.GenCustomer(1+rng.Intn(4), 1+rng.Intn(10), 1+rng.Intn(60))
		c.Credit = "BC"
		for i := 0; i < 5; i++ {
			c.Balance -= int64(rng.Intn(100000))
			c.PaymentCnt++
			data := "1 2 3 4 5 600|" + c.Data
			if len(data) > 500 {
				data = data[:500]
			}
			c.Data = data
		}
		encC := EncodeCustomer(c)
		if len(encC) > CustomerMaxBytes {
			return false
		}
		gotC, err := DecodeCustomer(encC)
		return err == nil && reflect.DeepEqual(c, gotC)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTxnCodecRoundTrip(t *testing.T) {
	w := NewWorkload(7, 4, SmallScale())
	for i := 0; i < 200; i++ {
		txn := w.Next()
		got, err := DecodeTxn(txn.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(txn, got) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", txn, got)
		}
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a := NewDataset(5, 3, SmallScale())
	b := NewDataset(5, 3, SmallScale())
	if !reflect.DeepEqual(a.Items, b.Items) {
		t.Fatal("items differ across generations with same seed")
	}
	if !reflect.DeepEqual(a.GenStock(2, 9), b.GenStock(2, 9)) {
		t.Fatal("stock rows differ")
	}
	if !reflect.DeepEqual(a.GenCustomer(1, 2, 3), b.GenCustomer(1, 2, 3)) {
		t.Fatal("customer rows differ")
	}
}

// TestDatasetRowsDistinct: every initial row draws a stream of its own.
// A 4-warehouse dataset holds as many distinct stock and customer payloads
// as rows, ids (and the customer's id-derived Last) left out, and initial
// orders whose packed ids agree mod 2^31-1, such as (1,1,3) and (1,2,1),
// draw different order lines.
func TestDatasetRowsDistinct(t *testing.T) {
	ds := NewDataset(1, 4, SmallScale())
	sc := ds.Scale
	stock, cust := map[string]bool{}, map[string]bool{}
	for wid := 1; wid <= 4; wid++ {
		for iid := 1; iid <= sc.Items; iid++ {
			s := ds.GenStock(wid, iid)
			s.WID, s.IID = 0, 0
			stock[string(EncodeStock(s))] = true
		}
		for did := 1; did <= sc.DistrictsPerWH; did++ {
			for cid := 1; cid <= sc.CustomersPerDistrict; cid++ {
				c := ds.GenCustomer(wid, did, cid)
				c.WID, c.DID, c.ID, c.Last = 0, 0, 0, ""
				cust[string(EncodeCustomer(c))] = true
			}
		}
	}
	if want := 4 * sc.Items; len(stock) != want {
		t.Errorf("%d distinct stock payloads, want %d", len(stock), want)
	}
	if want := 4 * sc.DistrictsPerWH * sc.CustomersPerDistrict; len(cust) != want {
		t.Errorf("%d distinct customer payloads, want %d", len(cust), want)
	}
	aux := ds.image(1).aux
	a, b := orderKey{did: 1, oid: 3}, orderKey{did: 2, oid: 1}
	oa, ob := aux.orders[a], aux.orders[b]
	if oa.OLCnt == ob.OLCnt && oa.CarrierID == ob.CarrierID {
		t.Errorf("orders (1,1,3) and (1,2,1) both draw OLCnt %d, carrier %d", oa.OLCnt, oa.CarrierID)
	}
	sameLines := len(aux.orderLines[a]) == len(aux.orderLines[b])
	for i := 0; sameLines && i < len(aux.orderLines[a]); i++ {
		sameLines = aux.orderLines[a][i].IID == aux.orderLines[b][i].IID
	}
	if sameLines {
		t.Errorf("orders (1,1,3) and (1,2,1) draw the same items %v", aux.orderLines[a])
	}
}

func TestWorkloadMix(t *testing.T) {
	w := NewWorkload(11, 4, SmallScale())
	counts := map[TxnKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[w.Next().Kind]++
	}
	within := func(kind TxnKind, pct, tol float64) {
		got := float64(counts[kind]) / n * 100
		if got < pct-tol || got > pct+tol {
			t.Errorf("%v share = %.1f%%, want %.0f%%±%.0f", kind, got, pct, tol)
		}
	}
	within(TxnNewOrder, 45, 2)
	within(TxnPayment, 43, 2)
	within(TxnOrderStatus, 4, 1)
	within(TxnDelivery, 4, 1)
	within(TxnStockLevel, 4, 1)
}

func TestMultiPartitionFraction(t *testing.T) {
	// With the standard mix over multiple warehouses, roughly 10% of
	// transactions are multi-partition (paper, Section V-D1).
	w := NewWorkload(13, 8, SmallScale())
	const n = 20000
	multi := 0
	for i := 0; i < n; i++ {
		if len(w.Next().Partitions()) > 1 {
			multi++
		}
	}
	pct := float64(multi) / n * 100
	if pct < 7 || pct > 14 {
		t.Fatalf("multi-partition fraction = %.1f%%, want ~10%%", pct)
	}
}

func TestLocalOnlyWorkload(t *testing.T) {
	w := NewWorkload(17, 8, SmallScale())
	w.LocalOnly = true
	for i := 0; i < 5000; i++ {
		txn := w.Next()
		if len(txn.Partitions()) != 1 {
			t.Fatalf("local-only workload produced multi-partition txn %+v", txn)
		}
	}
}

func TestFixedPartitionsWorkload(t *testing.T) {
	w := NewWorkload(19, 8, SmallScale())
	w.FixedPartitions = 4
	for i := 0; i < 2000; i++ {
		txn := w.Next()
		if got := len(txn.Partitions()); got != 4 {
			t.Fatalf("fixed-4 workload produced %d partitions", got)
		}
		if txn.Kind != TxnNewOrder {
			t.Fatalf("fixed-partition workload must be New-Order, got %v", txn.Kind)
		}
	}
}

func TestPartitionsOfTxn(t *testing.T) {
	txn := &Txn{
		Kind: TxnNewOrder,
		WID:  2,
		Lines: []OrderLineReq{
			{IID: 1, SupplyWID: 2},
			{IID: 2, SupplyWID: 5},
			{IID: 3, SupplyWID: 2},
			{IID: 4, SupplyWID: 1},
		},
	}
	parts := txn.Partitions()
	want := []int{0, 1, 4} // warehouses 1, 2, 5
	if len(parts) != len(want) {
		t.Fatalf("partitions = %v", parts)
	}
	for i := range want {
		if int(parts[i]) != want[i] {
			t.Fatalf("partitions = %v, want %v", parts, want)
		}
	}
}

func TestNURandBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if v := nuRand(rng, 1023, cCID, 1, 3000); v < 1 || v > 3000 {
			t.Fatalf("nuRand out of range: %d", v)
		}
		if v := nuRand(rng, 8191, cItem, 1, 100000); v < 1 || v > 100000 {
			t.Fatalf("nuRand item out of range: %d", v)
		}
	}
}

func TestLastName(t *testing.T) {
	if got := LastName(0); got != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", got)
	}
	if got := LastName(371); got != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", got)
	}
	if got := LastName(999); got != "EINGEINGEING" {
		t.Fatalf("LastName(999) = %q", got)
	}
}

func TestOIDEncoding(t *testing.T) {
	oid := StockOID(7, 12345)
	if WarehouseOf(oid) != 7 {
		t.Fatalf("warehouse of stock oid = %d", WarehouseOf(oid))
	}
	coid := CustomerOID(3, 9, 2999)
	if WarehouseOf(coid) != 3 {
		t.Fatalf("warehouse of customer oid = %d", WarehouseOf(coid))
	}
	if Partitioner.PartitionOf(oid) != 6 {
		t.Fatalf("partition of wh7 = %d, want 6", Partitioner.PartitionOf(oid))
	}
	if oid == coid {
		t.Fatal("OID collision across tables")
	}
}

func TestAuxSnapshotRoundTrip(t *testing.T) {
	ds := NewDataset(1, 2, SmallScale())
	a := NewApp(0, ds)
	a.auxTables = ds.genAux(1)
	a.history = append(a.history, History{CID: 1, DID: 2, WID: 1, Amount: 500, Data: "x"})

	snap := a.SnapshotAux(0, 0)
	b := NewApp(0, ds)
	b.ApplyAux(snap)

	if !reflect.DeepEqual(a.districts, b.districts) {
		t.Fatal("districts diverge after aux round trip")
	}
	if !reflect.DeepEqual(a.orders, b.orders) {
		t.Fatal("orders diverge")
	}
	if !reflect.DeepEqual(a.orderLines, b.orderLines) {
		t.Fatal("order lines diverge")
	}
	if !reflect.DeepEqual(a.newOrders, b.newOrders) {
		t.Fatal("new-order FIFOs diverge")
	}
	if !reflect.DeepEqual(a.history, b.history) {
		t.Fatal("history diverges")
	}
	if !reflect.DeepEqual(a.lastOrderOf, b.lastOrderOf) {
		t.Fatal("last-order index diverges")
	}
}

func TestScaleValidate(t *testing.T) {
	if err := FullScale().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SmallScale().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Scale{Items: 0, DistrictsPerWH: 10, CustomersPerDistrict: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero items must fail")
	}
	bad = Scale{Items: 10, DistrictsPerWH: 10, CustomersPerDistrict: 10, InitialOrders: 20}
	if err := bad.Validate(); err == nil {
		t.Fatal("more initial orders than customers must fail")
	}
}
