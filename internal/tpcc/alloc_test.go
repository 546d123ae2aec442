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
	a := NewApp(0, NewDataset(42, 1, SmallScale()))
	rows := make(map[store.OID][]byte)
	a.PopulateObjects(func(oid store.OID, val []byte) { rows[oid] = val })
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

// newOrderAllocs is a home New-Order's allocations, whatever its lines:
// the order, its line slice and its lines' S_DIST_xx string (3), with room
// for the amortized growth of the warehouse-local tables. The decoded
// request, the write list, the updated rows and the reply are the app's
// scratch and the context's.
const newOrderAllocs = 4

// TestNewOrderAllocsFixed: a home New-Order allocates the same count at 5
// and at 15 lines, within newOrderAllocs — nothing per line.
func TestNewOrderAllocsFixed(t *testing.T) {
	a, rows := populatedApp()
	allocs := map[int]float64{} // by lines
	for _, n := range []int{5, 15} {
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
		allocs[n] = testing.AllocsPerRun(50, func() { a.Execute(ctx) })
	}
	t.Logf("allocations by lines: %v", allocs)
	if allocs[5] != allocs[15] {
		t.Fatalf("New-Order allocates %v times at 5 lines and %v at 15, want one count", allocs[5], allocs[15])
	}
	if allocs[15] > newOrderAllocs {
		t.Fatalf("New-Order allocates %v times, want at most %d", allocs[15], newOrderAllocs)
	}
}

// TestReadSetAllocatesOnce: a New-Order's read set, home or remote, and a
// Payment's are each one allocation, however many lines the order has.
func TestReadSetAllocatesOnce(t *testing.T) {
	a, _ := populatedApp()
	var lines []OrderLineReq
	for i := 0; i < 15; i++ {
		lines = append(lines, OrderLineReq{IID: int32(1 + 61*i), SupplyWID: int32(1 + i%2), Quantity: 1})
	}
	for _, c := range []struct {
		name string
		txn  Txn
		want int // read-set length
	}{
		{"home New-Order", Txn{Kind: TxnNewOrder, WID: 1, DID: 3, CID: 7, Lines: lines}, 16},
		{"remote New-Order", Txn{Kind: TxnNewOrder, WID: 2, DID: 3, CID: 7, Lines: lines}, 8},
		{"Payment", Txn{Kind: TxnPayment, WID: 1, DID: 3, CWID: 1, CDID: 3, CID: 7}, 1},
	} {
		req := &core.Request{Ts: 1, Payload: c.txn.Encode()}
		if got := len(a.ReadSet(req)); got != c.want {
			t.Fatalf("%s: read set of %d objects, want %d", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(50, func() { a.ReadSet(req) }); n != 1 {
			t.Errorf("%s: ReadSet allocates %v times, want 1", c.name, n)
		}
	}
}
