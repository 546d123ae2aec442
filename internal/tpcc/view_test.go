package tpcc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refPayment is Payment's customer update on a decoded row, the
// reference customerView.paid must match.
func refPayment(c *Customer, t *Txn) {
	c.Balance -= t.Amount
	c.YTDPayment += t.Amount
	c.PaymentCnt++
	if c.Credit == "BC" {
		info := fmt.Sprintf("%d %d %d %d %d %d|", t.CID, t.CDID, t.CWID, t.DID, t.WID, t.Amount)
		data := info + c.Data
		if len(data) > 500 {
			data = data[:500]
		}
		c.Data = data
	}
}

// refDelivery is Delivery's customer update on a decoded row.
func refDelivery(c *Customer, sum int64) {
	c.Balance += sum
	c.DeliveryCnt++
}

// viewStocks returns encoded stock rows of several warehouses.
func viewStocks() [][]byte {
	ds := NewDataset(3, 4, SmallScale())
	var rows [][]byte
	for wid := 1; wid <= 4; wid++ {
		for iid := wid; iid <= ds.Scale.Items; iid += 41 {
			s := ds.GenStock(wid, iid)
			if iid%3 == 0 {
				s.Quantity = int32(iid % 12) // both branches of the quantity rule
			}
			rows = append(rows, EncodeStock(s))
		}
	}
	return rows
}

// viewCustomers returns encoded customer rows of several warehouses,
// both credit ratings, and C_DATA below, near and at its 500-byte cap.
func viewCustomers() [][]byte {
	ds := NewDataset(3, 4, SmallScale())
	var rows [][]byte
	for wid := 1; wid <= 4; wid++ {
		for did := 1; did <= ds.Scale.DistrictsPerWH; did += 3 {
			for cid := 1; cid <= ds.Scale.CustomersPerDistrict; cid += 7 {
				rows = append(rows, EncodeCustomer(ds.GenCustomer(wid, did, cid)))
			}
		}
	}
	for _, n := range []int{0, 460, 499, 500} {
		c := ds.GenCustomer(2, 5, 9)
		c.Credit = "BC"
		c.Data = strings.Repeat("d", n)
		rows = append(rows, EncodeCustomer(c))
	}
	return rows
}

// withTrailer returns row followed by bytes that are not part of it;
// the codec ignores them, so the views must too.
func withTrailer(row []byte) []byte {
	return append(append([]byte(nil), row...), 0xde, 0xad, 0xbe, 0xef, 7)
}

// checkStockView compares every view read and update of raw against the
// codec. raw must decode.
func checkStockView(t *testing.T, raw []byte, rng *rand.Rand) {
	t.Helper()
	want, err := DecodeStock(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseStock(raw)
	if err != nil {
		t.Fatalf("parseStock rejects a row DecodeStock accepts: %v", err)
	}
	if v.quantity() != want.Quantity {
		t.Fatalf("quantity %d, want %d", v.quantity(), want.Quantity)
	}
	for i := range want.Dists {
		if got := string(v.dist(i)); got != want.Dists[i] {
			t.Fatalf("dist(%d) = %q, want %q", i, got, want.Dists[i])
		}
	}
	for k := 0; k < 4; k++ {
		l := OrderLineReq{IID: want.IID, SupplyWID: want.WID, Quantity: int32(1 + rng.Intn(10))}
		home := want.WID
		if k%2 == 1 {
			home = want.WID%4 + 1 // a remote line
		}
		mut := *want
		applyStockUpdate(&mut, l, home)
		if got, exp := v.updated(rowContext(), l, home), EncodeStock(&mut); !bytes.Equal(got, exp) {
			t.Fatalf("updated(%+v, home %d):\n got %x\nwant %x", l, home, got, exp)
		}
	}
}

// checkCustomerView compares every view read and update of raw against
// the codec. raw must decode.
func checkCustomerView(t *testing.T, raw []byte, rng *rand.Rand) {
	t.Helper()
	want, err := DecodeCustomer(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseCustomer(raw)
	if err != nil {
		t.Fatalf("parseCustomer rejects a row DecodeCustomer accepts: %v", err)
	}
	if v.discountBP() != want.Discount || v.balance() != want.Balance || v.badCredit() != (want.Credit == "BC") {
		t.Fatalf("view reads discount %d balance %d bad %v, want %d %d %q",
			v.discountBP(), v.balance(), v.badCredit(), want.Discount, want.Balance, want.Credit)
	}
	for _, amount := range []int64{int64(1 + rng.Intn(500000)), 0, -7, math.MaxInt64, math.MinInt64} {
		txn := &Txn{
			Kind: TxnPayment, WID: int32(1 + rng.Intn(4)), DID: int32(1 + rng.Intn(10)),
			CWID: want.WID, CDID: want.DID, CID: want.ID, Amount: amount,
		}
		mut := *want
		refPayment(&mut, txn)
		got, bal := v.paid(rowContext(), txn)
		if exp := EncodeCustomer(&mut); !bytes.Equal(got, exp) || bal != mut.Balance {
			t.Fatalf("paid(%d) = balance %d\n%x\nwant balance %d\n%x", amount, bal, got, mut.Balance, exp)
		}
	}
	sum := int64(rng.Intn(1 << 20))
	mut := *want
	refDelivery(&mut, sum)
	if got, exp := v.delivered(rowContext(), sum), EncodeCustomer(&mut); !bytes.Equal(got, exp) {
		t.Fatalf("delivered(%d):\n got %x\nwant %x", sum, got, exp)
	}
}

// TestViewsMatchCodec: every view read and every patched row equals the
// Decode/Encode round trip byte for byte, trailing bytes included.
func TestViewsMatchCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, raw := range viewStocks() {
		checkStockView(t, raw, rng)
		checkStockView(t, withTrailer(raw), rng)
	}
	bc := 0
	for _, raw := range viewCustomers() {
		if v, _ := parseCustomer(raw); v.badCredit() {
			bc++
		}
		checkCustomerView(t, raw, rng)
		checkCustomerView(t, withTrailer(raw), rng)
	}
	if bc < 5 {
		t.Fatalf("only %d bad-credit customers among the rows", bc)
	}
}

// TestViewsRejectLikeCodec: parseStock and parseCustomer reject exactly
// the rows the codec rejects — every proper prefix of a valid row, and
// rows whose length prefixes were overwritten — so Stock-Level's skip
// and the handlers' ERR replies are unchanged.
func TestViewsRejectLikeCodec(t *testing.T) {
	stockErr := func(b []byte) (error, error) {
		_, perr := parseStock(b)
		_, derr := DecodeStock(b)
		return perr, derr
	}
	custErr := func(b []byte) (error, error) {
		_, perr := parseCustomer(b)
		_, derr := DecodeCustomer(b)
		return perr, derr
	}
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		table string
		rows  [][]byte
		errs  func([]byte) (error, error)
		check func(*testing.T, []byte, *rand.Rand)
	}{
		{"stock", viewStocks(), stockErr, checkStockView},
		{"customer", viewCustomers(), custErr, checkCustomerView},
	} {
		for _, raw := range tc.rows[:8] {
			for k := 0; k < len(raw); k++ {
				if perr, derr := tc.errs(raw[:k]); (perr != nil) != (derr != nil) {
					t.Fatalf("%s prefix %d/%d: view err %v, codec err %v", tc.table, k, len(raw), perr, derr)
				}
			}
		}
		// Corrupt a 4-byte window, length prefixes included: the views
		// and the codec must still agree on acceptance, and on accepted
		// rows the views must still match the codec.
		accepted := 0
		for i := 0; i < 2000; i++ {
			raw := append([]byte(nil), tc.rows[rng.Intn(len(tc.rows))]...)
			off := rng.Intn(len(raw) - 3)
			val := uint32(rng.Intn(64))
			if rng.Intn(4) == 0 {
				val = rng.Uint32()
			}
			raw[off], raw[off+1], raw[off+2], raw[off+3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
			perr, derr := tc.errs(raw)
			if (perr != nil) != (derr != nil) {
				t.Fatalf("%s corrupted at %d with %d: view err %v, codec err %v", tc.table, off, val, perr, derr)
			}
			if derr == nil {
				accepted++
				tc.check(t, raw, rng)
			}
		}
		if accepted == 0 {
			t.Fatalf("%s: no corrupted row was accepted, the agreement check saw one side only", tc.table)
		}
	}
}
