package tpcc

import (
	"encoding/binary"
	"slices"

	"heron/internal/core"
	"heron/internal/sim"
	"heron/internal/store"
)

// The modeled CPU time of transaction logic and manual (de)serialization,
// calibrated so a single-partition New-Order executes in the mid-teens of
// microseconds as in the paper (Fig. 6: ~16 us execution).
const (
	costTxnBase    = 1500 * sim.Nanosecond // request decode + bookkeeping
	costStockDeser = 260 * sim.Nanosecond  // deserialize one stock row
	costStockSer   = 300 * sim.Nanosecond  // serialize one stock row
	costCustDeser  = 520 * sim.Nanosecond  // deserialize one customer row (larger)
	costCustSer    = 600 * sim.Nanosecond
	costAuxInsert  = 130 * sim.Nanosecond // insert into a warehouse-local map table
	costAuxLookup  = 70 * sim.Nanosecond
	costItemLookup = 60 * sim.Nanosecond
)

type orderKey struct{ did, oid int32 }
type custKey struct{ did, cid int32 }

// App is the per-replica TPCC application. Each partition hosts one
// warehouse; the replicated read-only tables (Item, Warehouse) are shared
// across all instances through the Dataset.
type App struct {
	part core.PartitionID
	wid  int32
	ds   *Dataset

	// Warehouse-local tables (the paper's HashMap tables).
	auxTables

	// cpu accumulates modeled time during one Execute call.
	cpu sim.Duration
	// txn is the decoded request of the one Execute, ReadSet or
	// ConflictSets call running: none of them yields or calls another.
	txn Txn
	// stockLevelItems is Stock-Level's scratch list of item ids, reused
	// across calls (Execute is not reentrant).
	stockLevelItems []int32
	// dists and distEnds are New-Order's scratch: its lines' S_DIST_xx,
	// back to back, and where each ends.
	dists    []byte
	distEnds []int

	// singleExec enables DynaStar semantics: this instance executes the
	// whole transaction and writes all updated objects, including rows
	// owned by other warehouses.
	singleExec bool
}

var _ core.Application = (*App)(nil)
var _ core.AuxSyncer = (*App)(nil)

// NewAppFactory returns a core.AppFactory producing TPCC app instances
// over a shared dataset.
func NewAppFactory(ds *Dataset) core.AppFactory {
	return func(part core.PartitionID, rank int) core.Application {
		return NewApp(part, ds)
	}
}

// NewApp creates the application instance for one replica of `part`.
func NewApp(part core.PartitionID, ds *Dataset) *App {
	return &App{
		part:      part,
		wid:       int32(part) + 1,
		ds:        ds,
		auxTables: emptyAux(),
	}
}

// Populate registers and initializes this warehouse's store objects and
// installs a copy of its initial warehouse-local tables, both from the
// Dataset's image of the warehouse, so all replicas of the partition start
// identical.
func (a *App) Populate(st *store.Store) error {
	img := a.ds.image(a.wid)
	for _, r := range img.rows {
		if err := st.Register(r.oid, r.max); err != nil {
			return err
		}
		if err := st.Init(r.oid, r.val); err != nil {
			return err
		}
	}
	a.auxTables = img.aux.clone()
	return nil
}

// PaymentState returns what Payments leave at this warehouse: district
// did's year-to-date total (0 if it is not here) and the history's rows.
func (a *App) PaymentState(did int32) (ytd int64, history int) {
	if d := a.districts[did]; d != nil {
		ytd = d.YTD
	}
	return ytd, len(a.history)
}

// charge accumulates modeled CPU.
func (a *App) charge(d sim.Duration, times int) { a.cpu += d * sim.Duration(times) }

// ReadSet implements core.Application: the estimated objects THIS
// partition reads for the request (partial execution — non-home
// partitions of a New-Order only read their own stock rows). The result is
// allocated once, at its exact length.
func (a *App) ReadSet(req *core.Request) []store.OID {
	t := &a.txn
	if err := t.decode(req.Payload); err != nil {
		return nil
	}
	home := t.WID == a.wid
	var oids []store.OID
	switch t.Kind {
	case TxnNewOrder:
		n := 0
		for _, l := range t.Lines {
			if home || l.SupplyWID == a.wid {
				n++
			}
		}
		if home {
			n++ // the customer
		}
		oids = make([]store.OID, 0, n)
		for _, l := range t.Lines {
			if home || l.SupplyWID == a.wid {
				oids = append(oids, StockOID(int(l.SupplyWID), int(l.IID)))
			}
		}
		if home {
			oids = append(oids, CustomerOID(int(t.WID), int(t.DID), int(t.CID)))
		}
	case TxnPayment:
		if t.CWID == a.wid {
			oids = append(oids, CustomerOID(int(t.CWID), int(t.CDID), int(t.CID)))
		}
	case TxnOrderStatus:
		oids = append(oids, CustomerOID(int(t.WID), int(t.DID), int(t.CID)))
	case TxnDelivery, TxnStockLevel:
		// Read sets depend on state; resolved with LocalGet during
		// execution (always local).
	}
	return oids
}

// Execute implements core.Application.
func (a *App) Execute(ctx *core.ExecContext) core.Outcome {
	a.cpu = 0
	a.charge(costTxnBase, 1)
	t := &a.txn
	if err := t.decode(ctx.Req.Payload); err != nil {
		return core.Outcome{Response: []byte("ERR decode"), CPU: a.cpu}
	}
	var out core.Outcome
	switch t.Kind {
	case TxnNewOrder:
		out = a.execNewOrder(ctx, t)
	case TxnPayment:
		out = a.execPayment(ctx, t)
	case TxnOrderStatus:
		out = a.execOrderStatus(ctx, t)
	case TxnDelivery:
		out = a.execDelivery(ctx, t)
	case TxnStockLevel:
		out = a.execStockLevel(ctx, t)
	default:
		out = core.Outcome{Response: []byte("ERR kind")}
	}
	out.CPU = a.cpu
	return out
}

// execNewOrder: the home partition inserts the order and computes the
// total; every involved partition updates its own stock rows.
func (a *App) execNewOrder(ctx *core.ExecContext, t *Txn) core.Outcome {
	home := t.WID == a.wid
	out := core.Outcome{Writes: ctx.WriteList(len(t.Lines))}

	var oid int32
	var total int64
	if home {
		d := a.districts[t.DID]
		if d == nil {
			return core.Outcome{Response: []byte("ERR district")}
		}
		a.charge(costAuxLookup, 1)
		oid = d.NextOID
		d.NextOID++

		cust, err := parseCustomer(ctx.Values[CustomerOID(int(t.WID), int(t.DID), int(t.CID))])
		a.charge(costCustDeser, 1)
		if err != nil {
			return core.Outcome{Response: []byte("ERR customer")}
		}

		allLocal := true
		key := orderKey{did: t.DID, oid: oid}
		lines := make([]OrderLine, 0, len(t.Lines))
		dists, ends := a.dists[:0], a.distEnds[:0]
		for i, l := range t.Lines {
			if l.SupplyWID != t.WID {
				allLocal = false
			}
			item := &a.ds.Items[l.IID-1]
			a.charge(costItemLookup, 1)
			soid := StockOID(int(l.SupplyWID), int(l.IID))
			stock, serr := parseStock(ctx.Values[soid])
			a.charge(costStockDeser, 1)
			if serr != nil {
				return core.Outcome{Response: []byte("ERR stock")}
			}
			amount := int64(l.Quantity) * item.Price
			total += amount
			dists = append(dists, stock.dist(int(t.DID)-1)...)
			ends = append(ends, len(dists))
			lines = append(lines, OrderLine{
				OID:       oid,
				DID:       t.DID,
				WID:       t.WID,
				Number:    int32(i + 1),
				IID:       l.IID,
				SupplyWID: l.SupplyWID,
				Quantity:  l.Quantity,
				Amount:    amount,
			})
			// The home partition writes only its own stock rows; remote
			// rows are updated by their hosting partitions (unless this
			// is the DynaStar single-executor mode).
			if l.SupplyWID == a.wid || a.singleExec {
				a.charge(costStockSer, 1)
				out.Writes = append(out.Writes, core.Write{OID: soid, Val: stock.updated(ctx, l, t.WID)})
			}
			a.charge(costAuxInsert, 1)
		}
		// The lines' S_DIST_xx are one string per order, which they slice.
		all, start := string(dists), 0
		for i, end := range ends {
			lines[i].DistInfo = all[start:end]
			start = end
		}
		a.dists, a.distEnds = dists, ends
		total = total * (10000 - cust.discountBP()) / 10000
		total = total * (10000 + a.ds.WHs[t.WID-1].Tax + d.Tax) / 10000

		a.orders[key] = &Order{
			ID: oid, DID: t.DID, WID: t.WID, CID: t.CID,
			EntryD: int64(ctx.Req.Ts), OLCnt: int32(len(lines)), AllLocal: allLocal,
		}
		a.orderLines[key] = lines
		a.newOrders[t.DID] = append(a.newOrders[t.DID], oid)
		a.lastOrderOf[custKey{did: t.DID, cid: t.CID}] = oid
		a.charge(costAuxInsert, 3)
	} else {
		// Partial execution: update only this warehouse's stock rows.
		for _, l := range t.Lines {
			if l.SupplyWID != a.wid {
				continue
			}
			soid := StockOID(int(l.SupplyWID), int(l.IID))
			stock, serr := parseStock(ctx.Values[soid])
			a.charge(costStockDeser, 1)
			if serr != nil {
				return core.Outcome{Response: []byte("ERR stock")}
			}
			a.charge(costStockSer, 1)
			out.Writes = append(out.Writes, core.Write{OID: soid, Val: stock.updated(ctx, l, t.WID)})
		}
	}

	resp := ctx.Alloc(12)
	binary.LittleEndian.PutUint32(resp, uint32(oid))
	binary.LittleEndian.PutUint64(resp[4:], uint64(total))
	out.Response = resp
	return out
}

// applyStockUpdate implements clause 2.4.2.2's stock mutation.
func applyStockUpdate(s *Stock, l OrderLineReq, homeWID int32) {
	if s.Quantity-l.Quantity >= 10 {
		s.Quantity -= l.Quantity
	} else {
		s.Quantity += 91 - l.Quantity
	}
	s.YTD += int64(l.Quantity)
	s.OrderCnt++
	if l.SupplyWID != homeWID {
		s.RemoteCnt++
	}
}

// execPayment: the home partition updates district YTD and appends
// history; the customer's partition updates the customer row.
func (a *App) execPayment(ctx *core.ExecContext, t *Txn) core.Outcome {
	var out core.Outcome
	var balance int64
	if t.WID == a.wid {
		d := a.districts[t.DID]
		if d == nil {
			return core.Outcome{Response: []byte("ERR district")}
		}
		d.YTD += t.Amount
		a.history = append(a.history, History{
			CID: t.CID, CDID: t.CDID, CWID: t.CWID,
			DID: t.DID, WID: t.WID,
			Date: int64(ctx.Req.Ts), Amount: t.Amount,
			Data: d.Name,
		})
		a.charge(costAuxLookup, 1)
		a.charge(costAuxInsert, 1)
	}
	if t.CWID == a.wid || (a.singleExec && t.WID == a.wid) {
		coid := CustomerOID(int(t.CWID), int(t.CDID), int(t.CID))
		cust, err := parseCustomer(ctx.Values[coid])
		a.charge(costCustDeser, 1)
		if err != nil {
			return core.Outcome{Response: []byte("ERR customer")}
		}
		var row []byte
		row, balance = cust.paid(ctx, t)
		a.charge(costCustSer, 1)
		out.Writes = append(ctx.WriteList(1), core.Write{OID: coid, Val: row})
	}
	out.Response = encodeI64(ctx, balance)
	return out
}

// execOrderStatus: read-only, always local.
func (a *App) execOrderStatus(ctx *core.ExecContext, t *Txn) core.Outcome {
	cust, err := parseCustomer(ctx.Values[CustomerOID(int(t.WID), int(t.DID), int(t.CID))])
	a.charge(costCustDeser, 1)
	if err != nil {
		return core.Outcome{Response: []byte("ERR customer")}
	}
	last, ok := a.lastOrderOf[custKey{did: t.DID, cid: t.CID}]
	a.charge(costAuxLookup, 1)
	var olCnt int32
	if ok {
		if ord := a.orders[orderKey{did: t.DID, oid: last}]; ord != nil {
			olCnt = ord.OLCnt
			a.charge(costAuxLookup, int(olCnt)+1)
		}
	}
	resp := ctx.Alloc(9)
	binary.LittleEndian.PutUint64(resp, uint64(cust.balance()))
	resp[8] = byte(olCnt)
	return core.Outcome{Response: resp}
}

// execDelivery: always local; delivers the oldest undelivered order of
// every district, crediting each order's customer.
func (a *App) execDelivery(ctx *core.ExecContext, t *Txn) core.Outcome {
	out := core.Outcome{Writes: ctx.WriteList(a.ds.Scale.DistrictsPerWH)}
	var delivered int
	for did := int32(1); did <= int32(a.ds.Scale.DistrictsPerWH); did++ {
		fifo := a.newOrders[did]
		a.charge(costAuxLookup, 1)
		if len(fifo) == 0 {
			continue
		}
		oid := fifo[0]
		a.newOrders[did] = fifo[1:]
		key := orderKey{did: did, oid: oid}
		ord := a.orders[key]
		if ord == nil {
			continue
		}
		ord.CarrierID = t.CarrierID
		var sum int64
		lines := a.orderLines[key]
		for i := range lines {
			lines[i].DeliveryD = int64(ctx.Req.Ts)
			sum += lines[i].Amount
		}
		a.charge(costAuxLookup, len(lines)+2)

		coid := CustomerOID(int(a.wid), int(did), int(ord.CID))
		raw, ok := ctx.LocalGet(coid)
		if !ok {
			continue
		}
		cust, err := parseCustomer(raw)
		a.charge(costCustDeser, 1)
		if err != nil {
			continue
		}
		a.charge(costCustSer, 1)
		out.Writes = append(out.Writes, core.Write{OID: coid, Val: cust.delivered(ctx, sum)})
		delivered++
	}
	out.Response = ctx.Alloc(1)
	out.Response[0] = byte(delivered)
	return out
}

// execStockLevel: always local and heavy — it reads the stock row of
// every distinct item in the district's last 20 orders (the paper calls
// out its cost, charged as a full deserialization per row; Fig. 7).
func (a *App) execStockLevel(ctx *core.ExecContext, t *Txn) core.Outcome {
	d := a.districts[t.DID]
	if d == nil {
		return core.Outcome{Response: []byte("ERR district")}
	}
	a.charge(costAuxLookup, 1)
	lo := d.NextOID - 20
	if lo < 1 {
		lo = 1
	}
	items := a.stockLevelItems[:0]
	for o := lo; o < d.NextOID; o++ {
		for _, line := range a.orderLines[orderKey{did: t.DID, oid: o}] {
			items = append(items, line.IID)
		}
		a.charge(costAuxLookup, 1)
	}
	// Distinct items in ascending order, for reproducibility.
	slices.Sort(items)
	items = slices.Compact(items)
	a.stockLevelItems = items

	var low int32
	for _, iid := range items {
		raw, ok := ctx.LocalGet(StockOID(int(a.wid), int(iid)))
		if !ok {
			continue
		}
		stock, err := parseStock(raw)
		a.charge(costStockDeser, 1)
		if err != nil {
			continue
		}
		if stock.quantity() < t.Threshold {
			low++
		}
	}
	return core.Outcome{Response: encodeI64(ctx, int64(low))}
}

// encodeI64 returns v little-endian in 8 bytes of ctx's arena.
func encodeI64(ctx *core.ExecContext, v int64) []byte {
	b := ctx.Alloc(8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}
