package tpcc

import (
	"maps"
	"slices"
	"testing"

	"heron/internal/core"
	"heron/internal/store"
)

// populatedApp returns warehouse 1's app with its warehouse-local tables
// built, and its store rows by OID.
func populatedApp() (*App, map[store.OID][]byte) {
	a := NewApp(0, NewDataset(42, 1, SmallScale()), DefaultCostModel())
	a.PopulateAux()
	rows := make(map[store.OID][]byte)
	for _, o := range a.InitialObjects() {
		rows[o.OID] = o.Val
	}
	return a, rows
}

// execContext builds the context of txn over rows; LocalGet serves rows
// without copying, so what Execute allocates is the application's own.
func execContext(txn *Txn, rows map[store.OID][]byte, values map[store.OID][]byte) *core.ExecContext {
	req := &core.Request{Ts: 1, Payload: txn.Encode()}
	return core.NewExecContext(req, 0, values, func(oid store.OID) ([]byte, bool) {
		v, ok := rows[oid]
		return v, ok
	})
}

// TestStockLevelAllocsFixed: Stock-Level allocates the same count whatever
// the number of stock rows it reads.
func TestStockLevelAllocsFixed(t *testing.T) {
	a, rows := populatedApp()
	allocs := map[int]float64{} // by rows read
	for did := int32(1); did <= 10; did++ {
		ctx := execContext(&Txn{Kind: TxnStockLevel, WID: 1, DID: did, Threshold: 50}, rows, nil)
		a.Execute(ctx)
		allocs[ctx.LocalGets()] = testing.AllocsPerRun(50, func() { a.Execute(ctx) })
	}
	t.Logf("allocations by rows read: %v", allocs)
	if len(allocs) < 2 {
		t.Fatalf("every district read the same number of rows (%v); the check needs two", allocs)
	}
	if counts := slices.Collect(maps.Values(allocs)); slices.Min(counts) != slices.Max(counts) {
		t.Fatalf("Stock-Level allocations by rows read: %v, want one count", allocs)
	}
	for reads, n := range allocs {
		if n >= float64(reads) {
			t.Fatalf("Stock-Level reading %d rows allocates %v times", reads, n)
		}
	}
}

// newOrderAllocBase bounds New-Order's allocations that do not grow with
// its lines: the decoded request and its lines, the order and its line
// slice, the write list and the reply (6), with room for the amortized
// growth of the warehouse-local tables.
const newOrderAllocBase = 8

// TestNewOrderAllocsPerLine: a home New-Order allocates at most a
// constant plus two per line — S_DIST_xx and the updated stock row.
func TestNewOrderAllocsPerLine(t *testing.T) {
	a, rows := populatedApp()
	for _, n := range []int{1, 5, 10, 15} {
		txn := &Txn{Kind: TxnNewOrder, WID: 1, DID: 3, CID: 7}
		values := map[store.OID][]byte{}
		coid := CustomerOID(1, 3, 7)
		values[coid] = rows[coid]
		for i := 0; i < n; i++ {
			l := OrderLineReq{IID: int32(1 + 61*i), SupplyWID: 1, Quantity: int32(1 + i%10)}
			txn.Lines = append(txn.Lines, l)
			soid := StockOID(1, int(l.IID))
			values[soid] = rows[soid]
		}
		ctx := execContext(txn, rows, values)
		if out := a.Execute(ctx); len(out.Writes) != n {
			t.Fatalf("%d-line New-Order wrote %d rows: %s", n, len(out.Writes), out.Response)
		}
		got := testing.AllocsPerRun(50, func() { a.Execute(ctx) })
		t.Logf("%d-line New-Order: %v allocations", n, got)
		if got > float64(newOrderAllocBase+2*n) {
			t.Errorf("%d-line New-Order allocates %v times, want at most %d", n, got, newOrderAllocBase+2*n)
		}
	}
}
