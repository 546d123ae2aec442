package tpcc

import (
	"heron/internal/core"
	"heron/internal/store"
)

// Support for running TPCC on the DynaStar baseline, where one partition
// (the home warehouse's) executes the whole transaction against migrated
// object values instead of Heron's everyone-executes-with-remote-reads.

// SetSingleExecutor switches the app to DynaStar semantics: the executing
// partition writes every object the transaction updates, including rows
// owned by other warehouses (which the baseline migrates back afterward).
func (a *App) SetSingleExecutor(v bool) { a.singleExec = v }

// FullReadSet lists every store object the transaction reads, regardless
// of partition — what a single executing partition needs.
func (t *Txn) FullReadSet() []store.OID {
	var oids []store.OID
	switch t.Kind {
	case TxnNewOrder:
		for _, l := range t.Lines {
			oids = append(oids, StockOID(int(l.SupplyWID), int(l.IID)))
		}
		oids = append(oids, CustomerOID(int(t.WID), int(t.DID), int(t.CID)))
	case TxnPayment:
		oids = append(oids, CustomerOID(int(t.CWID), int(t.CDID), int(t.CID)))
	case TxnOrderStatus:
		oids = append(oids, CustomerOID(int(t.WID), int(t.DID), int(t.CID)))
	case TxnDelivery, TxnStockLevel:
		// State-dependent; always local to the executor.
	}
	return oids
}

// Router exposes the routing metadata the DynaStar oracle needs.
type Router struct{}

// Home returns the partition that executes the transaction (the home
// warehouse's partition, which owns the warehouse-local tables).
func (Router) Home(payload []byte) core.PartitionID {
	t, err := DecodeTxn(payload)
	if err != nil {
		return 0
	}
	return PartitionOfWarehouse(int(t.WID))
}

// Involved returns all partitions owning objects the transaction touches.
func (Router) Involved(payload []byte) []core.PartitionID {
	t, err := DecodeTxn(payload)
	if err != nil {
		return nil
	}
	return t.Partitions()
}

// Objects returns the full estimated object set of the transaction.
func (Router) Objects(payload []byte) []store.OID {
	t, err := DecodeTxn(payload)
	if err != nil {
		return nil
	}
	return t.FullReadSet()
}

// PopulateObjects is Populate for substrates that keep objects outside
// Heron's store: it passes each initial store row to load, in Populate's
// order. The rows are the image's own, shared by every replica of the
// warehouse: load may keep them but must never write them.
func (a *App) PopulateObjects(load func(oid store.OID, val []byte)) {
	img := a.ds.image(a.wid)
	for _, r := range img.rows {
		load(r.oid, r.val)
	}
	a.auxTables = img.aux.clone()
}
