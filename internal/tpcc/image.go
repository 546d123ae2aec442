package tpcc

import (
	"maps"
	"slices"
	"sync"

	"heron/internal/store"
)

// Every replica of a partition is a deterministic state machine that
// starts from the same state, so a warehouse's initial database is
// generated once per Dataset (its image) and installed into each replica:
// the store rows by copy into the replica's store (or by reference into a
// DynaStar replica, which only ever replaces a value), the warehouse-local
// tables by deep copy, because execution mutates them in place.

// auxTables are a warehouse's local map tables (the paper's HashMap
// tables): Heron's "non-serialized" state, kept outside the store.
type auxTables struct {
	districts   map[int32]*District
	orders      map[orderKey]*Order
	orderLines  map[orderKey][]OrderLine
	newOrders   map[int32][]int32 // district -> FIFO of undelivered order ids
	history     []History
	lastOrderOf map[custKey]int32
}

// emptyAux returns tables with no rows.
func emptyAux() auxTables {
	return auxTables{
		districts:   make(map[int32]*District),
		orders:      make(map[orderKey]*Order),
		orderLines:  make(map[orderKey][]OrderLine),
		newOrders:   make(map[int32][]int32),
		lastOrderOf: make(map[custKey]int32),
	}
}

// clone returns a deep copy of t: nothing a transaction can mutate in the
// copy (a district, an order, an order line, a FIFO) is shared with t.
// The copy's orders and order lines each sit in one backing array, each
// order's lines capped at their length.
func (t *auxTables) clone() auxTables {
	c := auxTables{
		districts:   make(map[int32]*District, len(t.districts)),
		orders:      make(map[orderKey]*Order, len(t.orders)),
		orderLines:  make(map[orderKey][]OrderLine, len(t.orderLines)),
		newOrders:   make(map[int32][]int32, len(t.newOrders)),
		history:     slices.Clone(t.history),
		lastOrderOf: maps.Clone(t.lastOrderOf),
	}
	for did, d := range t.districts {
		d := *d
		c.districts[did] = &d
	}
	ords := make([]Order, 0, len(t.orders))
	for k, o := range t.orders {
		ords = append(ords, *o)
		c.orders[k] = &ords[len(ords)-1]
	}
	n := 0
	for _, ls := range t.orderLines {
		n += len(ls)
	}
	lines := make([]OrderLine, 0, n)
	for k, ls := range t.orderLines {
		start := len(lines)
		lines = append(lines, ls...)
		c.orderLines[k] = lines[start:len(lines):len(lines)]
	}
	for did, fifo := range t.newOrders {
		c.newOrders[did] = slices.Clone(fifo)
	}
	return c
}

// genAux generates warehouse wid's initial local tables, every district
// with its initial orders.
func (d *Dataset) genAux(wid int32) auxTables {
	t := emptyAux()
	for did := int32(1); did <= int32(d.Scale.DistrictsPerWH); did++ {
		t.districts[did] = d.GenDistrict(int(wid), int(did))
		t.populateOrders(d.Scale, wid, did)
	}
	return t
}

// populateOrders primes Order/Order-Line/New-Order for one district: the
// newest third of the initial orders is undelivered (clause 4.3.3.1 uses
// the last 900 of 3000). Order o and its lines draw from the order's own
// stream, keyed by (wid, did, o) (see rowRand).
func (t *auxTables) populateOrders(sc Scale, wid, did int32) {
	n := sc.InitialOrders
	undeliveredFrom := n - n/3 + 1
	for o := 1; o <= n; o++ {
		rng := rowRand(orderStream, int(wid), int(did), o)
		cid := int32((o-1)%sc.CustomersPerDistrict + 1)
		ord := &Order{
			ID:       int32(o),
			DID:      did,
			WID:      wid,
			CID:      cid,
			EntryD:   int64(o),
			OLCnt:    int32(randRange(rng, 5, 15)),
			AllLocal: true,
		}
		if o < undeliveredFrom {
			ord.CarrierID = int32(randRange(rng, 1, 10))
		}
		key := orderKey{did: did, oid: int32(o)}
		t.orders[key] = ord
		lines := make([]OrderLine, ord.OLCnt)
		for i := range lines {
			lines[i] = OrderLine{
				OID:       int32(o),
				DID:       did,
				WID:       wid,
				Number:    int32(i + 1),
				IID:       int32(randRange(rng, 1, sc.Items)),
				SupplyWID: wid,
				Quantity:  5,
				DistInfo:  "initial",
			}
			if ord.CarrierID != 0 {
				// Delivered initial orders carry zero amounts (clause
				// 4.3.3.1), keeping customer balances consistent (C4).
				lines[i].DeliveryD = ord.EntryD
			} else {
				lines[i].Amount = int64(randRange(rng, 1, 999999))
			}
		}
		t.orderLines[key] = lines
		t.lastOrderOf[custKey{did: did, cid: cid}] = int32(o)
		if ord.CarrierID == 0 {
			t.newOrders[did] = append(t.newOrders[did], int32(o))
		}
	}
}

// imageRow is one initial store object of a warehouse.
type imageRow struct {
	oid store.OID
	max int // the registered maximum value size
	val []byte
}

// warehouseImage is one warehouse's initial database. Every replica
// reads it and none writes it.
type warehouseImage struct {
	rows []imageRow // stock by item id, then customers by (district, id)
	aux  auxTables
}

// lazyImage generates one warehouse's image on first use.
type lazyImage struct {
	once sync.Once
	img  *warehouseImage
}

// image returns warehouse wid's image, generating it on the first call.
// Safe for concurrent use.
func (d *Dataset) image(wid int32) *warehouseImage {
	l := &d.images[wid-1]
	l.once.Do(func() { l.img = d.genImage(wid) })
	return l.img
}

// DropImages lets go of every warehouse image generated so far, once
// each replica has installed its copy: a later Populate or
// PopulateObjects generates the image again, identical. Rows that
// PopulateObjects handed out stay with whoever keeps them. Not safe
// concurrently with Populate or PopulateObjects.
func (d *Dataset) DropImages() { clear(d.images) }

// genImage generates warehouse wid's rows, in the order replicas register
// them, and its local tables.
func (d *Dataset) genImage(wid int32) *warehouseImage {
	w := int(wid)
	img := &warehouseImage{
		rows: make([]imageRow, 0, d.Scale.Items+d.Scale.DistrictsPerWH*d.Scale.CustomersPerDistrict),
		aux:  d.genAux(wid),
	}
	for iid := 1; iid <= d.Scale.Items; iid++ {
		img.rows = append(img.rows, imageRow{StockOID(w, iid), StockMaxBytes, EncodeStock(d.GenStock(w, iid))})
	}
	for did := 1; did <= d.Scale.DistrictsPerWH; did++ {
		for cid := 1; cid <= d.Scale.CustomersPerDistrict; cid++ {
			img.rows = append(img.rows, imageRow{CustomerOID(w, did, cid), CustomerMaxBytes, EncodeCustomer(d.GenCustomer(w, did, cid))})
		}
	}
	return img
}
