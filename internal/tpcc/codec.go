package tpcc

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"heron/internal/core"
	"heron/internal/wire"
)

// Manual binary codecs for the serialized tables, mirroring the paper's
// hand-rolled (de)serialization ("a manually (de)serialization of objects
// rather than using a serializer library, and storing strings as byte
// buffers"). Only Stock and Customer are remotely readable and therefore
// serialized; other tables live in native maps.
//
// Execution does not decode whole rows: stockView and customerView (below)
// locate the fields a transaction reads or updates inside the serialized
// bytes, read them there, and build an updated row by patching a copy in
// the execution context's arena.
// Encode*/Decode* are the reference those views must agree with byte for
// byte; Populate and DynaStar encode with them, and CheckConsistency
// decodes with them.

// EncodeStock serializes a stock row.
func EncodeStock(s *Stock) []byte {
	w := wire.NewWriter(StockMaxBytes)
	w.U32(uint32(s.IID))
	w.U32(uint32(s.WID))
	w.U32(uint32(s.Quantity))
	for i := range s.Dists {
		w.String(s.Dists[i])
	}
	w.I64(s.YTD)
	w.U32(uint32(s.OrderCnt))
	w.U32(uint32(s.RemoteCnt))
	w.String(s.Data)
	return w.Finish()
}

// DecodeStock deserializes a stock row.
func DecodeStock(b []byte) (*Stock, error) {
	r := wire.NewReader(b)
	s := &Stock{
		IID:      int32(r.U32()),
		WID:      int32(r.U32()),
		Quantity: int32(r.U32()),
	}
	for i := range s.Dists {
		s.Dists[i] = r.String()
	}
	s.YTD = r.I64()
	s.OrderCnt = int32(r.U32())
	s.RemoteCnt = int32(r.U32())
	s.Data = r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tpcc: decode stock: %w", err)
	}
	return s, nil
}

// EncodeCustomer serializes a customer row.
func EncodeCustomer(c *Customer) []byte {
	w := wire.NewWriter(CustomerMaxBytes)
	w.U32(uint32(c.ID))
	w.U32(uint32(c.DID))
	w.U32(uint32(c.WID))
	w.String(c.First)
	w.String(c.Middle)
	w.String(c.Last)
	w.String(c.Street)
	w.String(c.City)
	w.String(c.State)
	w.String(c.Zip)
	w.String(c.Phone)
	w.I64(c.Since)
	w.String(c.Credit)
	w.I64(c.CreditLim)
	w.I64(c.Discount)
	w.I64(c.Balance)
	w.I64(c.YTDPayment)
	w.U32(uint32(c.PaymentCnt))
	w.U32(uint32(c.DeliveryCnt))
	w.String(c.Data)
	return w.Finish()
}

// DecodeCustomer deserializes a customer row.
func DecodeCustomer(b []byte) (*Customer, error) {
	r := wire.NewReader(b)
	c := &Customer{
		ID:  int32(r.U32()),
		DID: int32(r.U32()),
		WID: int32(r.U32()),
	}
	c.First = r.String()
	c.Middle = r.String()
	c.Last = r.String()
	c.Street = r.String()
	c.City = r.String()
	c.State = r.String()
	c.Zip = r.String()
	c.Phone = r.String()
	c.Since = r.I64()
	c.Credit = r.String()
	c.CreditLim = r.I64()
	c.Discount = r.I64()
	c.Balance = r.I64()
	c.YTDPayment = r.I64()
	c.PaymentCnt = int32(r.U32())
	c.DeliveryCnt = int32(r.U32())
	c.Data = r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tpcc: decode customer: %w", err)
	}
	return c, nil
}

// cDataMax caps C_DATA when Payment prepends to a bad-credit customer's.
const cDataMax = 500

// skipString returns the offset just past the length-prefixed string at
// off, or -1 when b ends first — wire.Reader's truncation rule.
func skipString(b []byte, off int) int {
	if off+4 > len(b) {
		return -1
	}
	end := off + 4 + int(binary.LittleEndian.Uint32(b[off:]))
	if end > len(b) {
		return -1
	}
	return end
}

// truncatedRow is the error of a view over a row that ends early. It is
// built only on that path: execution parses every row it touches.
func truncatedRow(table string, b []byte) error {
	return fmt.Errorf("tpcc: parse %s row of %d bytes: %w", table, len(b), wire.ErrTruncated)
}

// stockView is a serialized stock row read in place (EncodeStock's
// layout): S_I_ID, S_W_ID and S_QUANTITY, the ten S_DIST_xx strings, then
// S_YTD, S_ORDER_CNT, S_REMOTE_CNT and S_DATA.
type stockView struct {
	raw   []byte
	dists [10]int // offset of each S_DIST_xx length prefix
	ytd   int     // offset of S_YTD; S_ORDER_CNT and S_REMOTE_CNT follow
	end   int     // one past S_DATA; bytes after it are not part of the row
}

// stockQuantityOff is S_QUANTITY's offset, after S_I_ID and S_W_ID.
const stockQuantityOff = 8

// parseStock locates a stock row's fields. It rejects exactly the rows
// DecodeStock rejects.
func parseStock(b []byte) (stockView, error) {
	v := stockView{raw: b}
	off := stockQuantityOff + 4
	for i := range v.dists {
		v.dists[i] = off
		if off = skipString(b, off); off < 0 {
			return stockView{}, truncatedRow("stock", b)
		}
	}
	v.ytd = off
	if v.end = skipString(b, off+16); v.end < 0 {
		return stockView{}, truncatedRow("stock", b)
	}
	return v, nil
}

// quantity returns S_QUANTITY.
func (v stockView) quantity() int32 {
	return int32(binary.LittleEndian.Uint32(v.raw[stockQuantityOff:]))
}

// dist returns S_DIST_xx of district index i (0-based), a view of the row.
func (v stockView) dist(i int) []byte {
	off := v.dists[i]
	return v.raw[off+4 : skipString(v.raw, off)]
}

// updated returns a new row, built in ctx's arena: this one with
// applyStockUpdate's New-Order mutation for line l applied to S_QUANTITY,
// S_YTD, S_ORDER_CNT and S_REMOTE_CNT.
func (v stockView) updated(ctx *core.ExecContext, l OrderLineReq, homeWID int32) []byte {
	le := binary.LittleEndian
	row := ctx.Alloc(v.end)
	copy(row, v.raw)
	s := Stock{
		Quantity:  v.quantity(),
		YTD:       int64(le.Uint64(row[v.ytd:])),
		OrderCnt:  int32(le.Uint32(row[v.ytd+8:])),
		RemoteCnt: int32(le.Uint32(row[v.ytd+12:])),
	}
	applyStockUpdate(&s, l, homeWID)
	le.PutUint32(row[stockQuantityOff:], uint32(s.Quantity))
	le.PutUint64(row[v.ytd:], uint64(s.YTD))
	le.PutUint32(row[v.ytd+8:], uint32(s.OrderCnt))
	le.PutUint32(row[v.ytd+12:], uint32(s.RemoteCnt))
	return row
}

// customerView is a serialized customer row read in place
// (EncodeCustomer's layout): C_ID, C_D_ID, C_W_ID, eight strings from
// C_FIRST to C_PHONE, C_SINCE, C_CREDIT, C_CREDIT_LIM, then the fixed
// fields at the cust* offsets from C_DISCOUNT, and C_DATA.
type customerView struct {
	raw      []byte
	credit   int // offset of C_CREDIT's length prefix
	discount int // offset of C_DISCOUNT
	end      int // one past C_DATA; bytes after it are not part of the row
}

// Field offsets relative to C_DISCOUNT.
const (
	custBalance     = 8
	custYTDPayment  = 16
	custPaymentCnt  = 24
	custDeliveryCnt = 28
	custData        = 32 // C_DATA's length prefix
)

// parseCustomer locates a customer row's fields. It rejects exactly the
// rows DecodeCustomer rejects.
func parseCustomer(b []byte) (customerView, error) {
	v := customerView{raw: b}
	off := 12
	for i := 0; i < 8; i++ {
		if off = skipString(b, off); off < 0 {
			return customerView{}, truncatedRow("customer", b)
		}
	}
	v.credit = off + 8
	if off = skipString(b, v.credit); off < 0 {
		return customerView{}, truncatedRow("customer", b)
	}
	v.discount = off + 8
	if v.end = skipString(b, v.discount+custData); v.end < 0 {
		return customerView{}, truncatedRow("customer", b)
	}
	return v, nil
}

func (v customerView) i64(rel int) int64 {
	return int64(binary.LittleEndian.Uint64(v.raw[v.discount+rel:]))
}

// discountBP returns C_DISCOUNT in basis points.
func (v customerView) discountBP() int64 { return v.i64(0) }

// balance returns C_BALANCE.
func (v customerView) balance() int64 { return v.i64(custBalance) }

// badCredit reports whether C_CREDIT is "BC".
func (v customerView) badCredit() bool {
	return string(v.raw[v.credit+4:skipString(v.raw, v.credit)]) == "BC"
}

// paid returns a new row, built in ctx's arena, with Payment t applied:
// C_BALANCE less the amount, C_YTD_PAYMENT plus it, C_PAYMENT_CNT plus
// one, and for a bad-credit customer the payment's ids and amount
// prepended to C_DATA, cut to cDataMax bytes. It also returns the new
// balance.
func (v customerView) paid(ctx *core.ExecContext, t *Txn) ([]byte, int64) {
	dataOff := v.discount + custData
	var row []byte
	if v.badCredit() {
		var buf [96]byte
		info := appendPaymentInfo(buf[:0], t)
		old := v.raw[dataOff+4 : v.end]
		n := min(len(info)+len(old), cDataMax)
		row = ctx.Alloc(dataOff + 4 + n)
		copy(row, v.raw[:dataOff])
		binary.LittleEndian.PutUint32(row[dataOff:], uint32(n))
		copy(row[dataOff+4+copy(row[dataOff+4:], info):], old)
	} else {
		row = ctx.Alloc(v.end)
		copy(row, v.raw)
	}
	le := binary.LittleEndian
	bal := v.balance() - t.Amount
	le.PutUint64(row[v.discount+custBalance:], uint64(bal))
	le.PutUint64(row[v.discount+custYTDPayment:], uint64(v.i64(custYTDPayment)+t.Amount))
	le.PutUint32(row[v.discount+custPaymentCnt:], le.Uint32(row[v.discount+custPaymentCnt:])+1)
	return row, bal
}

// appendPaymentInfo appends the C_DATA prefix of payment t,
// "C_ID C_D_ID C_W_ID D_ID W_ID H_AMOUNT|".
func appendPaymentInfo(b []byte, t *Txn) []byte {
	for _, id := range [...]int32{t.CID, t.CDID, t.CWID, t.DID, t.WID} {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ' ')
	}
	b = strconv.AppendInt(b, t.Amount, 10)
	return append(b, '|')
}

// delivered returns a new row, built in ctx's arena, with Delivery's
// update applied: C_BALANCE plus the delivered order's amount sum,
// C_DELIVERY_CNT plus one.
func (v customerView) delivered(ctx *core.ExecContext, sum int64) []byte {
	le := binary.LittleEndian
	row := ctx.Alloc(v.end)
	copy(row, v.raw)
	le.PutUint64(row[v.discount+custBalance:], uint64(v.balance()+sum))
	le.PutUint32(row[v.discount+custDeliveryCnt:], le.Uint32(row[v.discount+custDeliveryCnt:])+1)
	return row
}
