package tpcc

import "testing"

// BenchmarkStockCodec measures the manual stock row round trip.
func BenchmarkStockCodec(b *testing.B) {
	ds := NewDataset(1, 1, SmallScale())
	s := ds.GenStock(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := EncodeStock(s)
		if _, err := DecodeStock(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// Sinks keep the benchmarked reads and row updates live.
var (
	distSink string
	rowSink  []byte
)

// BenchmarkStockRowUpdate measures New-Order's in-place stock access:
// parse the row, copy S_DIST_xx, and build the updated row.
func BenchmarkStockRowUpdate(b *testing.B) {
	ds := NewDataset(1, 1, SmallScale())
	raw := EncodeStock(ds.GenStock(1, 1))
	l := OrderLineReq{IID: 1, SupplyWID: 1, Quantity: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := parseStock(raw)
		if err != nil {
			b.Fatal(err)
		}
		distSink = string(v.dist(i % 10))
		rowSink = v.updated(rowContext(), l, 1)
	}
}

// BenchmarkStockLevel measures one Stock-Level execution on a populated
// warehouse, its stock rows served without copying.
func BenchmarkStockLevel(b *testing.B) {
	a, rows := populatedApp()
	ctx := execContext(&Txn{Kind: TxnStockLevel, WID: 1, DID: 1, Threshold: 50}, rows, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := a.Execute(ctx); len(out.Response) != 8 {
			b.Fatalf("Stock-Level replied %q", out.Response)
		}
	}
}

// BenchmarkCustomerCodec measures the manual customer row round trip.
func BenchmarkCustomerCodec(b *testing.B) {
	ds := NewDataset(1, 1, SmallScale())
	c := ds.GenCustomer(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := EncodeCustomer(c)
		if _, err := DecodeCustomer(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGen measures transaction generation.
func BenchmarkWorkloadGen(b *testing.B) {
	w := NewWorkload(1, 8, SmallScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := w.Next()
		if _, err := DecodeTxn(txn.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}
