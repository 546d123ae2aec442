package tpcc

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// newWarehouseStore returns an empty store sized for one warehouse at sc.
func newWarehouseStore(sc Scale) *store.Store {
	f := rdma.NewFabric(sim.NewScheduler(), rdma.DefaultConfig())
	return store.New(f.AddNode(1), sc.Items*store.SlotSize(StockMaxBytes)+
		sc.DistrictsPerWH*sc.CustomersPerDistrict*store.SlotSize(CustomerMaxBytes))
}

// populated returns partition part's app over ds with its store.
func populated(t *testing.T, ds *Dataset, part core.PartitionID) (*App, *store.Store) {
	t.Helper()
	a, st := NewApp(part, ds), newWarehouseStore(ds.Scale)
	if err := a.Populate(st); err != nil {
		t.Fatal(err)
	}
	return a, st
}

// checkGeneratedRows fails unless st holds warehouse wid's rows exactly as
// generating them afresh does: every stock row by item id, then every
// customer row by (district, id), at the table's maximum size.
func checkGeneratedRows(t *testing.T, ds *Dataset, wid int, st *store.Store) {
	t.Helper()
	type row struct {
		oid store.OID
		max int
		val []byte
	}
	var want []row
	for iid := 1; iid <= ds.Scale.Items; iid++ {
		want = append(want, row{StockOID(wid, iid), StockMaxBytes, EncodeStock(ds.GenStock(wid, iid))})
	}
	for did := 1; did <= ds.Scale.DistrictsPerWH; did++ {
		for cid := 1; cid <= ds.Scale.CustomersPerDistrict; cid++ {
			want = append(want, row{CustomerOID(wid, did, cid), CustomerMaxBytes, EncodeCustomer(ds.GenCustomer(wid, did, cid))})
		}
	}
	got := st.Objects()
	if len(got) != len(want) {
		t.Fatalf("warehouse %d: %d objects registered, want %d", wid, len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w.oid {
			t.Fatalf("warehouse %d: object %d registered as %#x, want %#x", wid, i, got[i], w.oid)
		}
		if max, _ := st.SlotMax(w.oid); max != w.max {
			t.Fatalf("warehouse %d: object %#x registered at %d bytes, want %d", wid, w.oid, max, w.max)
		}
		if val, _, _ := st.Get(w.oid); !bytes.Equal(val, w.val) {
			t.Fatalf("warehouse %d: object %#x differs from its generated row", wid, w.oid)
		}
	}
}

// TestImageRowsAreGeneratedRows: a replica populated from the image holds
// every row of its warehouse byte for byte as GenStock/GenCustomer encode
// it, registered in the same order and at the same sizes.
func TestImageRowsAreGeneratedRows(t *testing.T) {
	ds := NewDataset(42, 4, SmallScale())
	for part := core.PartitionID(0); part < 4; part++ {
		_, st := populated(t, ds, part)
		checkGeneratedRows(t, ds, int(part)+1, st)
	}
}

// TestDropImagesRegenerates: DropImages lets go of every image, and a
// replica populated after it still gets its warehouse's generated rows and
// local tables.
func TestDropImagesRegenerates(t *testing.T) {
	ds := NewDataset(42, 2, SmallScale())
	before, _ := populated(t, ds, 1)
	ds.DropImages()
	for i := range ds.images {
		if ds.images[i].img != nil {
			t.Fatalf("warehouse %d's image outlived DropImages", i+1)
		}
	}
	after, st := populated(t, ds, 1)
	checkGeneratedRows(t, ds, 2, st)
	if !reflect.DeepEqual(after.auxTables, before.auxTables) {
		t.Fatal("the regenerated image's local tables differ from the first")
	}
	if ds.images[1].img == nil || ds.images[0].img != nil {
		t.Fatal("Populate after DropImages did not regenerate exactly its own image")
	}
}

// TestImageAuxIsGeneratedAux: the image's warehouse-local tables, and a
// populated replica's, deep-equal freshly generated ones.
func TestImageAuxIsGeneratedAux(t *testing.T) {
	ds := NewDataset(42, 4, SmallScale())
	fresh := NewDataset(42, 4, SmallScale())
	for part := core.PartitionID(0); part < 4; part++ {
		wid := int32(part) + 1
		a, _ := populated(t, ds, part)
		want := fresh.genAux(wid)
		if !reflect.DeepEqual(ds.image(wid).aux, want) {
			t.Fatalf("warehouse %d: the image's local tables differ from generated ones", wid)
		}
		if !reflect.DeepEqual(a.auxTables, want) {
			t.Fatalf("warehouse %d: a populated replica's local tables differ from generated ones", wid)
		}
	}
}

// execOn runs txn on a against st as a replica would: values and LocalGet
// read st, and the writes are applied to st at timestamp ts.
func execOn(t *testing.T, a *App, st *store.Store, txn *Txn, ts uint64) {
	t.Helper()
	req := &core.Request{Ts: multicast.Timestamp(ts), Payload: txn.Encode()}
	get := func(oid store.OID) ([]byte, bool) {
		v, _, ok := st.Get(oid)
		return bytes.Clone(v), ok
	}
	values := make(map[store.OID][]byte)
	for _, oid := range a.ReadSet(req) {
		values[oid], _ = get(oid)
	}
	out := a.Execute(core.NewExecContext(req, a.part, values, get))
	if bytes.HasPrefix(out.Response, []byte("ERR")) {
		t.Fatalf("%v: %s", txn.Kind, out.Response)
	}
	for _, w := range out.Writes {
		if err := st.Set(w.OID, w.Val, ts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicasDoNotShareState: Payment and Delivery on one replica of a
// partition, which mutate its districts, orders, order lines and
// New-Order FIFOs in place and update customer rows, leave another
// replica of the partition, and a replica populated afterwards, exactly
// as generated.
func TestReplicasDoNotShareState(t *testing.T) {
	ds := NewDataset(42, 1, SmallScale())
	want := NewDataset(42, 1, SmallScale()).genAux(1)
	a0, st0 := populated(t, ds, 0)
	a1, st1 := populated(t, ds, 0)

	execOn(t, a0, st0, &Txn{Kind: TxnPayment, WID: 1, DID: 2, CWID: 1, CDID: 2, CID: 5, Amount: 4321}, 1)
	execOn(t, a0, st0, &Txn{Kind: TxnDelivery, WID: 1, CarrierID: 7}, 2)
	if reflect.DeepEqual(a0.auxTables, want) {
		t.Fatal("Payment and Delivery left replica 0's tables as generated, so the check shows nothing")
	}
	if val, _, _ := st0.Get(CustomerOID(1, 2, 5)); bytes.Equal(val, EncodeCustomer(ds.GenCustomer(1, 2, 5))) {
		t.Fatal("Payment left replica 0's customer row as generated")
	}

	if !reflect.DeepEqual(a1.auxTables, want) {
		t.Fatal("executing on replica 0 changed replica 1's local tables")
	}
	checkGeneratedRows(t, ds, 1, st1)
	a2, st2 := populated(t, ds, 0)
	if !reflect.DeepEqual(a2.auxTables, want) {
		t.Fatal("executing on replica 0 changed the image's local tables")
	}
	checkGeneratedRows(t, ds, 1, st2)
}

// TestConcurrentPopulate populates two stores from one Dataset on two
// goroutines, both asking for a warehouse whose image is not yet built
// (run under -race).
func TestConcurrentPopulate(t *testing.T) {
	ds := NewDataset(42, 2, SmallScale())
	apps := [2]*App{NewApp(1, ds), NewApp(1, ds)}
	sts := [2]*store.Store{newWarehouseStore(ds.Scale), newWarehouseStore(ds.Scale)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = apps[i].Populate(sts[i])
		}()
	}
	wg.Wait()
	want := NewDataset(42, 2, SmallScale()).genAux(2)
	for i := range apps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkGeneratedRows(t, ds, 2, sts[i])
		if !reflect.DeepEqual(apps[i].auxTables, want) {
			t.Fatalf("store %d: local tables differ from generated ones", i)
		}
	}
}
