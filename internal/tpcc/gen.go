package tpcc

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
)

// NURand constants from TPCC clause 2.1.6. CLoad is the per-run constant
// C; we fix it for reproducibility.
const (
	cLast = 123
	cCID  = 259
	cItem = 4211
)

// nuRand is TPCC's non-uniform random distribution.
func nuRand(rng *rand.Rand, a, c, x, y int) int {
	return (((randRange(rng, 0, a) | randRange(rng, x, y)) + c) % (y - x + 1)) + x
}

// randRange returns a uniform integer in [lo, hi].
func randRange(rng *rand.Rand, lo, hi int) int {
	return lo + rng.Intn(hi-lo+1)
}

// nuRandCID draws a customer id.
func nuRandCID(rng *rand.Rand, customers int) int {
	if customers >= 3000 {
		return nuRand(rng, 1023, cCID, 1, customers)
	}
	return randRange(rng, 1, customers)
}

// nuRandItem draws an item id.
func nuRandItem(rng *rand.Rand, items int) int {
	if items >= 100000 {
		return nuRand(rng, 8191, cItem, 1, items)
	}
	return randRange(rng, 1, items)
}

// lastNameSyllables per TPCC clause 4.3.2.3.
var lastNameSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName builds the TPCC synthetic last name for a number in [0, 999].
func LastName(num int) string {
	return lastNameSyllables[num/100] + lastNameSyllables[num/10%10] + lastNameSyllables[num%10]
}

// randAString returns a random alphanumeric string with length in
// [lo, hi].
func randAString(rng *rand.Rand, lo, hi int) string {
	const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := randRange(rng, lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = chars[rng.Intn(len(chars))]
	}
	return string(b)
}

// randNString returns a random numeric string with length in [lo, hi].
func randNString(rng *rand.Rand, lo, hi int) string {
	n := randRange(rng, lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}

// randZip builds a TPCC zip code: 4 random digits + "11111".
func randZip(rng *rand.Rand) string { return randNString(rng, 4, 4) + "11111" }

// Dataset is the generated initial database for a deployment: the
// replicated read-only tables plus per-warehouse rows. The seed draws the
// replicated tables; every warehouse row draws from a stream of its own
// (see rowRand), so the rows do not depend on it. Each warehouse's rows
// and local tables are generated once, on first use, into an image that
// every replica of its partition (and of the DynaStar baseline) installs.
// Safe for concurrent use.
type Dataset struct {
	Scale      Scale
	Warehouses int
	Items      []Item      // replicated, read-only; index = item id - 1
	WHs        []Warehouse // replicated, read-only; index = warehouse id - 1

	images []lazyImage // index = warehouse id - 1
}

// NewDataset generates the read-only tables for the given scale.
func NewDataset(seed int64, warehouses int, scale Scale) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Scale: scale, Warehouses: warehouses, images: make([]lazyImage, warehouses)}
	d.Items = make([]Item, scale.Items)
	for i := range d.Items {
		data := randAString(rng, 26, 50)
		if rng.Intn(10) == 0 {
			// 10% of items carry "ORIGINAL" (clause 4.3.3.1).
			data = "ORIGINAL" + data[8:]
		}
		d.Items[i] = Item{
			ID:    int32(i + 1),
			ImID:  int32(randRange(rng, 1, 10000)),
			Name:  randAString(rng, 14, 24),
			Price: int64(randRange(rng, 100, 10000)),
			Data:  data,
		}
	}
	d.WHs = make([]Warehouse, warehouses)
	for w := range d.WHs {
		d.WHs[w] = Warehouse{
			ID:     int32(w + 1),
			Name:   randAString(rng, 6, 10),
			Street: randAString(rng, 10, 20),
			City:   randAString(rng, 10, 20),
			State:  randAString(rng, 2, 2),
			Zip:    randZip(rng),
			Tax:    int64(randRange(rng, 0, 2000)),
		}
	}
	return d
}

// The tables whose initial rows draw from streams of their own: the
// second word of a row's PCG seed (see rowRand).
const (
	stockStream uint64 = iota + 1
	customerStream
	orderStream
	districtStream
)

// rowSource is a math/rand Source over a math/rand/v2 PCG, so that a row's
// own stream feeds the same draw helpers as the request streams.
type rowSource struct{ randv2.PCG }

func (s *rowSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *rowSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

// rowRand returns the stream of one initial row of table: a PCG seeded
// with the row's ids packed as wid<<40|did<<32|id, and with table. Rows
// with different ids or tables draw different streams, and no row depends
// on NewDataset's seed. Seeding a PCG sets two words; seeding math/rand
// runs 607 rounds.
func rowRand(table uint64, wid, did, id int) *rand.Rand {
	src := &rowSource{}
	src.PCG.Seed(uint64(wid)<<40|uint64(did)<<32|uint64(id), table)
	return rand.New(src)
}

// GenStock builds the initial stock row for (wid, iid), drawing from the
// row's own stream (see rowRand): deterministic and distinct in (wid, iid).
func (d *Dataset) GenStock(wid, iid int) *Stock {
	rng := rowRand(stockStream, wid, 0, iid)
	s := &Stock{
		IID:      int32(iid),
		WID:      int32(wid),
		Quantity: int32(randRange(rng, 10, 100)),
		Data:     randAString(rng, 26, 50),
	}
	for i := range s.Dists {
		s.Dists[i] = randAString(rng, 24, 24)
	}
	return s
}

// GenCustomer builds the initial customer row for (wid, did, cid), drawing
// from the row's own stream (see rowRand): deterministic and distinct in
// (wid, did, cid).
func (d *Dataset) GenCustomer(wid, did, cid int) *Customer {
	rng := rowRand(customerStream, wid, did, cid)
	lastNum := cid - 1
	if lastNum > 999 {
		lastNum = nuRand(rng, 255, cLast, 0, 999)
	}
	credit := "GC"
	if rng.Intn(10) == 0 {
		credit = "BC"
	}
	return &Customer{
		ID:         int32(cid),
		DID:        int32(did),
		WID:        int32(wid),
		First:      randAString(rng, 8, 16),
		Middle:     "OE",
		Last:       LastName(lastNum),
		Street:     randAString(rng, 10, 20),
		City:       randAString(rng, 10, 20),
		State:      randAString(rng, 2, 2),
		Zip:        randZip(rng),
		Phone:      randNString(rng, 16, 16),
		Since:      1,
		Credit:     credit,
		CreditLim:  5000000,
		Discount:   int64(randRange(rng, 0, 5000)),
		Balance:    -1000,
		YTDPayment: 1000,
		PaymentCnt: 1,
		Data:       randAString(rng, 300, 500),
	}
}

// GenDistrict builds the initial district row, drawing from the row's own
// stream (see rowRand).
func (d *Dataset) GenDistrict(wid, did int) *District {
	rng := rowRand(districtStream, wid, did, 0)
	return &District{
		ID:      int32(did),
		WID:     int32(wid),
		Name:    randAString(rng, 6, 10),
		Street:  randAString(rng, 10, 20),
		City:    randAString(rng, 10, 20),
		State:   randAString(rng, 2, 2),
		Zip:     randZip(rng),
		Tax:     int64(randRange(rng, 0, 2000)),
		NextOID: int32(d.Scale.InitialOrders + 1),
	}
}

// Validate sanity-checks the scale.
func (s Scale) Validate() error {
	if s.Items <= 0 || s.DistrictsPerWH <= 0 || s.CustomersPerDistrict <= 0 {
		return fmt.Errorf("tpcc: invalid scale %+v", s)
	}
	if s.InitialOrders > s.CustomersPerDistrict {
		return fmt.Errorf("tpcc: initial orders %d exceed customers %d", s.InitialOrders, s.CustomersPerDistrict)
	}
	return nil
}
