package tpcc

import (
	"heron/internal/core"
	"heron/internal/store"
)

// Conflict estimation for the multi-threaded execution extension
// (core.ConflictEstimator, Section III-D.1 of the paper).
//
// Store rows conflict through their OIDs. Auxiliary (map-table) state
// conflicts through pseudo-OIDs that are never registered in the store:
// a per-district token covers the district row, its order tables, and its
// New-Order FIFO. Delivery and Stock-Level have state-dependent access
// sets, so they report ok=false and execute as barriers.

// tableDistrictToken tags pseudo-OIDs for district-scoped aux state.
const tableDistrictToken = 9

// districtToken is the conflict pseudo-OID of district (wid, did).
func districtToken(wid, did int32) store.OID {
	return store.OID(uint64(tableDistrictToken)<<56 | uint64(wid)<<40 | uint64(did))
}

var _ core.ConflictEstimator = (*App)(nil)

// ConflictSets implements core.ConflictEstimator.
func (a *App) ConflictSets(req *core.Request) (reads, writes []store.OID, ok bool) {
	t := &a.txn
	if err := t.decode(req.Payload); err != nil {
		return nil, nil, false
	}
	switch t.Kind {
	case TxnNewOrder:
		for _, l := range t.Lines {
			soid := StockOID(int(l.SupplyWID), int(l.IID))
			reads = append(reads, soid)
			writes = append(writes, soid)
		}
		reads = append(reads, CustomerOID(int(t.WID), int(t.DID), int(t.CID)))
		// Order insertion advances the district's next-order id and
		// mutates its order tables.
		writes = append(writes, districtToken(t.WID, t.DID))
		return reads, writes, true
	case TxnPayment:
		coid := CustomerOID(int(t.CWID), int(t.CDID), int(t.CID))
		reads = append(reads, coid)
		writes = append(writes, coid)
		// District YTD update + history append.
		writes = append(writes, districtToken(t.WID, t.DID))
		return reads, writes, true
	case TxnOrderStatus:
		reads = append(reads,
			CustomerOID(int(t.WID), int(t.DID), int(t.CID)),
			districtToken(t.WID, t.DID)) // reads the district's order tables
		return reads, nil, true
	case TxnDelivery, TxnStockLevel:
		// Access sets depend on state (oldest undelivered orders, the last
		// 20 orders' items): not estimable -> execute as a barrier.
		return nil, nil, false
	default:
		return nil, nil, false
	}
}
