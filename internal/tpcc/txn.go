package tpcc

import (
	"fmt"
	"math/rand"
	"slices"

	"heron/internal/core"
	"heron/internal/wire"
)

// TxnKind enumerates the five TPCC transaction types.
type TxnKind uint8

const (
	TxnNewOrder TxnKind = iota + 1
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
)

// String implements fmt.Stringer.
func (k TxnKind) String() string {
	switch k {
	case TxnNewOrder:
		return "NewOrder"
	case TxnPayment:
		return "Payment"
	case TxnOrderStatus:
		return "OrderStatus"
	case TxnDelivery:
		return "Delivery"
	case TxnStockLevel:
		return "StockLevel"
	default:
		return fmt.Sprintf("TxnKind(%d)", uint8(k))
	}
}

// OrderLineReq is one requested order line of a New-Order transaction.
type OrderLineReq struct {
	IID       int32
	SupplyWID int32
	Quantity  int32
}

// Txn is a decoded transaction request.
type Txn struct {
	Kind TxnKind
	WID  int32 // home warehouse
	DID  int32
	CID  int32

	// New-Order.
	Lines []OrderLineReq

	// Payment.
	CWID   int32 // customer's warehouse (may be remote)
	CDID   int32
	Amount int64

	// Stock-Level.
	Threshold int32

	// Delivery.
	CarrierID int32
}

// Encode serializes the transaction into a request payload.
func (t *Txn) Encode() []byte {
	w := wire.NewWriter(32 + 12*len(t.Lines))
	w.U8(uint8(t.Kind))
	w.U32(uint32(t.WID))
	w.U32(uint32(t.DID))
	w.U32(uint32(t.CID))
	switch t.Kind {
	case TxnNewOrder:
		w.U8(uint8(len(t.Lines)))
		for _, l := range t.Lines {
			w.U32(uint32(l.IID))
			w.U32(uint32(l.SupplyWID))
			w.U32(uint32(l.Quantity))
		}
	case TxnPayment:
		w.U32(uint32(t.CWID))
		w.U32(uint32(t.CDID))
		w.I64(t.Amount)
	case TxnStockLevel:
		w.U32(uint32(t.Threshold))
	case TxnDelivery:
		w.U32(uint32(t.CarrierID))
	}
	return w.Finish()
}

// DecodeTxn parses a request payload.
func DecodeTxn(b []byte) (*Txn, error) {
	t := new(Txn)
	if err := t.decode(b); err != nil {
		return nil, err
	}
	return t, nil
}

// decode parses a request payload into t, reusing the backing array of
// t.Lines. On error t holds a partial decode.
func (t *Txn) decode(b []byte) error {
	r := wire.NewReader(b)
	*t = Txn{
		Kind:  TxnKind(r.U8()),
		WID:   int32(r.U32()),
		DID:   int32(r.U32()),
		CID:   int32(r.U32()),
		Lines: t.Lines[:0],
	}
	switch t.Kind {
	case TxnNewOrder:
		n := int(r.U8())
		for i := 0; i < n; i++ {
			t.Lines = append(t.Lines, OrderLineReq{
				IID:       int32(r.U32()),
				SupplyWID: int32(r.U32()),
				Quantity:  int32(r.U32()),
			})
		}
	case TxnPayment:
		t.CWID = int32(r.U32())
		t.CDID = int32(r.U32())
		t.Amount = r.I64()
	case TxnStockLevel:
		t.Threshold = int32(r.U32())
	case TxnDelivery:
		t.CarrierID = int32(r.U32())
	case TxnOrderStatus:
	default:
		return fmt.Errorf("tpcc: unknown txn kind %d", t.Kind)
	}
	return r.Err()
}

// Partitions returns the partitions involved in the transaction (the
// multicast destination set), sorted.
func (t *Txn) Partitions() []core.PartitionID {
	set := map[core.PartitionID]bool{PartitionOfWarehouse(int(t.WID)): true}
	switch t.Kind {
	case TxnNewOrder:
		for _, l := range t.Lines {
			set[PartitionOfWarehouse(int(l.SupplyWID))] = true
		}
	case TxnPayment:
		set[PartitionOfWarehouse(int(t.CWID))] = true
	}
	out := make([]core.PartitionID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Workload generates transactions with the standard TPCC mix.
type Workload struct {
	rng        *rand.Rand
	scale      Scale
	warehouses int

	// LocalOnly forces all accesses to the home warehouse ("Local Tpcc"
	// in Fig. 4).
	LocalOnly bool
	// FixedPartitions, when > 0, makes every transaction a New-Order
	// whose order lines touch exactly this many distinct partitions
	// (Fig. 6's fixed-partition workloads).
	FixedPartitions int
	// Mix overrides the transaction mix; nil uses the standard mix.
	Mix *Mix
	// HomeWID pins the home warehouse (0 = uniform random), used to give
	// each closed-loop client its own home warehouse.
	HomeWID int
}

// Mix is a transaction mix in percent; fields must sum to 100.
type Mix struct {
	NewOrder, Payment, OrderStatus, Delivery, StockLevel int
}

// StandardMix is TPCC's official mix, as used in the paper.
func StandardMix() Mix {
	return Mix{NewOrder: 45, Payment: 43, OrderStatus: 4, Delivery: 4, StockLevel: 4}
}

// NewWorkload creates a generator over the given number of warehouses.
func NewWorkload(seed int64, warehouses int, scale Scale) *Workload {
	return &Workload{
		rng:        rand.New(rand.NewSource(seed)),
		scale:      scale,
		warehouses: warehouses,
	}
}

// Next generates one transaction.
func (w *Workload) Next() *Txn {
	if w.FixedPartitions > 0 {
		return w.genFixedNewOrder()
	}
	mix := StandardMix()
	if w.Mix != nil {
		mix = *w.Mix
	}
	p := w.rng.Intn(100)
	switch {
	case p < mix.NewOrder:
		return w.genNewOrder()
	case p < mix.NewOrder+mix.Payment:
		return w.genPayment()
	case p < mix.NewOrder+mix.Payment+mix.OrderStatus:
		return w.genOrderStatus()
	case p < mix.NewOrder+mix.Payment+mix.OrderStatus+mix.Delivery:
		return w.genDelivery()
	default:
		return w.genStockLevel()
	}
}

// home picks the home warehouse.
func (w *Workload) home() int {
	if w.HomeWID > 0 {
		return w.HomeWID
	}
	return randRange(w.rng, 1, w.warehouses)
}

// remoteWH picks a warehouse other than home (uniform).
func (w *Workload) remoteWH(home int) int {
	if w.warehouses == 1 {
		return home
	}
	for {
		wh := randRange(w.rng, 1, w.warehouses)
		if wh != home {
			return wh
		}
	}
}

// genNewOrder follows clause 2.4.1: 5-15 order lines; each line picks a
// remote supplying warehouse with 1% probability.
func (w *Workload) genNewOrder() *Txn {
	home := w.home()
	t := &Txn{
		Kind: TxnNewOrder,
		WID:  int32(home),
		DID:  int32(randRange(w.rng, 1, w.scale.DistrictsPerWH)),
		CID:  int32(nuRandCID(w.rng, w.scale.CustomersPerDistrict)),
	}
	n := randRange(w.rng, 5, 15)
	t.Lines = make([]OrderLineReq, 0, n)
	for i := 0; i < n; i++ {
		iid := t.newItem(w.rng, w.scale.Items)
		supply := home
		if !w.LocalOnly && w.warehouses > 1 && w.rng.Intn(100) == 0 {
			supply = w.remoteWH(home)
		}
		t.Lines = append(t.Lines, OrderLineReq{
			IID:       int32(iid),
			SupplyWID: int32(supply),
			Quantity:  int32(randRange(w.rng, 1, 10)),
		})
	}
	return t
}

// newItem draws an item id no line of t orders yet, redrawing on a repeat.
// A New-Order orders a handful of items, so the scan beats a set.
func (t *Txn) newItem(rng *rand.Rand, items int) int {
	for {
		iid := nuRandItem(rng, items)
		if !slices.ContainsFunc(t.Lines, func(l OrderLineReq) bool { return int(l.IID) == iid }) {
			return iid
		}
	}
}

// genFixedNewOrder builds a New-Order touching exactly FixedPartitions
// distinct warehouses (Fig. 6's modified workload).
func (w *Workload) genFixedNewOrder() *Txn {
	k := w.FixedPartitions
	if k > w.warehouses {
		k = w.warehouses
	}
	home := w.home()
	whs := []int{home}
	for len(whs) < k {
		cand := randRange(w.rng, 1, w.warehouses)
		dup := false
		for _, x := range whs {
			if x == cand {
				dup = true
			}
		}
		if !dup {
			whs = append(whs, cand)
		}
	}
	t := &Txn{
		Kind: TxnNewOrder,
		WID:  int32(home),
		DID:  int32(randRange(w.rng, 1, w.scale.DistrictsPerWH)),
		CID:  int32(nuRandCID(w.rng, w.scale.CustomersPerDistrict)),
	}
	n := randRange(w.rng, 5, 15)
	if n < k {
		n = k
	}
	t.Lines = make([]OrderLineReq, 0, n)
	for i := 0; i < n; i++ {
		iid := t.newItem(w.rng, w.scale.Items)
		// First k lines cover the k warehouses; the rest stay home.
		supply := home
		if i < len(whs) {
			supply = whs[i]
		}
		t.Lines = append(t.Lines, OrderLineReq{
			IID:       int32(iid),
			SupplyWID: int32(supply),
			Quantity:  int32(randRange(w.rng, 1, 10)),
		})
	}
	return t
}

// genPayment follows clause 2.5.1: 15% remote customers.
func (w *Workload) genPayment() *Txn {
	home := w.home()
	t := &Txn{
		Kind:   TxnPayment,
		WID:    int32(home),
		DID:    int32(randRange(w.rng, 1, w.scale.DistrictsPerWH)),
		Amount: int64(randRange(w.rng, 100, 500000)),
	}
	cwid := home
	if !w.LocalOnly && w.warehouses > 1 && w.rng.Intn(100) < 15 {
		cwid = w.remoteWH(home)
	}
	t.CWID = int32(cwid)
	t.CDID = int32(randRange(w.rng, 1, w.scale.DistrictsPerWH))
	t.CID = int32(nuRandCID(w.rng, w.scale.CustomersPerDistrict))
	return t
}

// genOrderStatus is always local (clause 2.6).
func (w *Workload) genOrderStatus() *Txn {
	return &Txn{
		Kind: TxnOrderStatus,
		WID:  int32(w.home()),
		DID:  int32(randRange(w.rng, 1, w.scale.DistrictsPerWH)),
		CID:  int32(nuRandCID(w.rng, w.scale.CustomersPerDistrict)),
	}
}

// genDelivery is always local (clause 2.7).
func (w *Workload) genDelivery() *Txn {
	return &Txn{
		Kind:      TxnDelivery,
		WID:       int32(w.home()),
		CarrierID: int32(randRange(w.rng, 1, 10)),
	}
}

// genStockLevel is always local (clause 2.8).
func (w *Workload) genStockLevel() *Txn {
	return &Txn{
		Kind:      TxnStockLevel,
		WID:       int32(w.home()),
		DID:       int32(randRange(w.rng, 1, w.scale.DistrictsPerWH)),
		Threshold: int32(randRange(w.rng, 10, 20)),
	}
}
