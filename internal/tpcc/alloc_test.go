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

// arenaContext is execContext with LocalGet copying each row into the
// context's arena, as a replica's does. The test reuses the context
// without a reset, so its arena grows geometrically: over a measured run
// its growth costs fewer allocations than there are runs, which
// AllocsPerRun's whole-number average drops.
func arenaContext(txn *Txn, rows map[store.OID][]byte) *core.ExecContext {
	req := &core.Request{Ts: 1, Payload: txn.Encode()}
	var ctx *core.ExecContext
	ctx = core.NewExecContext(req, 0, nil, func(oid store.OID) ([]byte, bool) {
		v, ok := rows[oid]
		if !ok {
			return nil, false
		}
		b := ctx.Alloc(len(v))
		copy(b, v)
		return b, true
	})
	return ctx
}

// rowContext is a fresh context for one row update.
func rowContext() *core.ExecContext { return core.NewExecContext(nil, 0, nil, nil) }

// TestStockLevelAllocsFixed: Stock-Level allocates the same count whatever
// the number of stock rows it reads, each copied into the context's arena.
func TestStockLevelAllocsFixed(t *testing.T) {
	a, rows := populatedApp()
	allocs := map[int]float64{} // by rows read
	for did := int32(1); did <= 10; did++ {
		ctx := arenaContext(&Txn{Kind: TxnStockLevel, WID: 1, DID: did, Threshold: 50}, rows)
		a.Execute(ctx)
		reads := ctx.LocalGets()
		allocs[reads] = testing.AllocsPerRun(50, func() { a.Execute(ctx) })
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
// its lines: the order and its line slice (2), with room for the
// amortized growth of the warehouse-local tables. The decoded request,
// the write list, the updated rows and the reply are the app's scratch
// and the context's.
const newOrderAllocBase = 4

// TestNewOrderAllocsPerLine: a home New-Order allocates at most a
// constant plus one per line — S_DIST_xx, which the order line keeps.
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
		if got > float64(newOrderAllocBase+n) {
			t.Errorf("%d-line New-Order allocates %v times, want at most %d", n, got, newOrderAllocBase+n)
		}
	}
}
