package rdma

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// A ring's data area lives in pages that come from the fabric's free list
// when a lap first writes them and go back once the head has passed them
// (Mailbox.place, Mailbox.pass). These tests pin where records land across
// pages, that what is not materialized reads as zero, that the memory a
// ring holds follows the bytes in flight and not the laps it has carried,
// and that the slot of a record not landed yet in a later lap reads zero,
// as in the first.

// materialized returns how many of the ring's data pages are materialized.
func materialized(mb *Mailbox) int {
	n := 0
	for _, pg := range mb.pages {
		if pg.buf != nil {
			n++
		}
	}
	return n
}

// pageBound is the most pages a ring may hold with inFlight bytes between
// its head and its tail: the pages those bytes touch, and the head's.
func pageBound(inFlight uint64) int { return int((inFlight+pageSize-1)/pageSize) + 1 }

// payload returns record i's bytes: n bytes that name i.
func payload(i, n int) []byte {
	b := bytes.Repeat([]byte{byte(i)}, n)
	copy(b, fmt.Sprintf("r%05d", i))
	return b
}

func TestRecordStraddlesPageBoundary(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 4*pageSize)
	w := mb.Connect(f, 1)
	first, second := payload(0, pageSize-100), payload(1, 300) // the second spans ring bytes [4008, 4320)
	run(t, s, func(p *sim.Proc) {
		if err := w.Send(p, first, second); err != nil {
			t.Error(err)
		}
		p.Sleep(5 * sim.Microsecond)
	})
	at := mailboxHdr + recordSpan(len(first))
	if at-mailboxHdr >= pageSize || at-mailboxHdr+recordSpan(len(second)) <= pageSize {
		t.Fatalf("the second record spans ring bytes [%d, %d), not page 0's end", at-mailboxHdr, at-mailboxHdr+recordSpan(len(second)))
	}
	if got := regionBytes(mb.reg, at+4, len(second)); !bytes.Equal(got, second) {
		t.Fatalf("ring bytes across the page boundary = %q, want %q", got, second)
	}
	if n := materialized(mb); n != 2 {
		t.Fatalf("%d pages materialized, want the 2 the records touch", n)
	}
	for i, want := range [][]byte{first, second} {
		if rec, ok := mb.TryRecv(); !ok || !bytes.Equal(rec, want) {
			t.Fatalf("record %d: %q, %v", i, rec, ok)
		}
	}
	// The head has passed page 0's end, not page 1's.
	if mb.pages[0].buf != nil || mb.pages[1].buf == nil || len(f.pages) != 1 {
		t.Fatalf("after draining: page 0 %v, page 1 %v, %d pages free; want page 0 freed, page 1 kept",
			mb.pages[0].buf != nil, mb.pages[1].buf != nil, len(f.pages))
	}
}

func TestWrapMarkerInLastPage(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	const ringCap = 2*pageSize + 1024 // the last page is partial
	mb := NewMailbox(b, ringCap)
	w := mb.Connect(f, 1)
	var got [][]byte
	big := 1000 // 1008-byte spans: the ninth ends at ring byte 9072, in the last page, and a tenth would not fit
	var sent [][]byte
	run(t, s, func(p *sim.Proc) {
		for i := 0; i < 9; i++ {
			sent = append(sent, payload(i, big))
			if err := w.Send(p, sent[i]); err != nil {
				t.Error(err)
			}
			p.Sleep(5 * sim.Microsecond)
			got = append(got, drain(p, mb)...)
		}
		if off := int(w.tail % ringCap); off < 2*pageSize || off+recordSpan(big) <= ringCap {
			t.Errorf("the next record starts at ring byte %d: no wrap marker in the last page", off)
		}
		markerAt := mailboxHdr + int(w.tail%ringCap)
		sent = append(sent, payload(9, big))
		if err := w.Send(p, sent[9]); err != nil {
			t.Error(err)
		}
		// Landed, not yet drained: the marker is in the last page, the
		// record at the start of the next lap.
		p.Sleep(5 * sim.Microsecond)
		if word := regionBytes(mb.reg, markerAt, 4); binary.LittleEndian.Uint32(word) != wrapMarker {
			t.Errorf("no wrap marker at ring byte %d: %x", markerAt-mailboxHdr, word)
		}
		if rec := regionBytes(mb.reg, mailboxHdr+4, big); !bytes.Equal(rec, sent[9]) {
			t.Errorf("the record after the marker is not at the ring's start: %q...", rec[:8])
		}
		got = append(got, drain(p, mb)...)
	})
	if len(got) != len(sent) {
		t.Fatalf("received %d records, want %d", len(got), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("record %d = %q..., want %q...", i, got[i][:8], sent[i][:8])
		}
	}
	// The head passed the last page's end and sits in page 0 of the next
	// lap: only page 0 is held.
	if mb.pages[0].buf == nil || mb.pages[1].buf != nil || mb.pages[2].buf != nil {
		t.Fatalf("pages held %v %v %v after the wrap, want only page 0",
			mb.pages[0].buf != nil, mb.pages[1].buf != nil, mb.pages[2].buf != nil)
	}
}

func TestUntouchedRingPageReadsZero(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 4*pageSize)
	w := mb.Connect(f, 1)
	qp := f.Connect(1, 2)
	rec := payload(0, 200)
	run(t, s, func(p *sim.Proc) {
		if err := w.Send(p, rec); err != nil {
			t.Error(err)
		}
		p.Sleep(5 * sim.Microsecond)
	})
	// A page nobody wrote, and a READ from the written page into it: the
	// record's last payload bytes, its stamp, then zeros.
	readBack(t, s, qp, mb.reg, mailboxHdr+2*pageSize+8, make([]byte, 64))
	want := binary.LittleEndian.AppendUint32(bytes.Clone(rec[190:]), stamp(0))
	want = append(want, make([]byte, 96)...)
	readBack(t, s, qp, mb.reg, mailboxHdr+4+190, want)
	if n := materialized(mb); n != 1 {
		t.Fatalf("READs materialized pages: %d held, want 1", n)
	}
	// A page the head has passed is freed and reads zero again.
	if got, ok := mb.TryRecv(); !ok || !bytes.Equal(got, rec) {
		t.Fatalf("TryRecv = %q, %v", got, ok)
	}
	readBack(t, s, qp, mb.reg, mailboxHdr, make([]byte, recordSpan(len(rec))))
}

func TestCreditReadsTheHeadWord(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	mb := NewMailbox(b, 2*pageSize)
	w := mb.Connect(f, 1)
	n := 0
	run(t, s, func(p *sim.Proc) {
		// Fill the ring while nobody drains it, drain half, then send on:
		// the producer's shadow says full, so it READs the head word.
		for int(w.tail)+recordSpan(500) <= mb.cap {
			if err := w.Send(p, payload(n, 500)); err != nil {
				t.Error(err)
			}
			n++
		}
		p.Sleep(5 * sim.Microsecond)
		for i := 0; i < n/2; i++ {
			if _, ok := mb.TryRecv(); !ok {
				t.Errorf("record %d not there", i)
			}
		}
		if err := w.Send(p, payload(n, 500)); err != nil {
			t.Error(err)
		}
	})
	if r := counter(m, "rdma/credit_reads"); r != 1 {
		t.Fatalf("%d credit READs, want 1", r)
	}
	if w.head != mb.head || mb.head == 0 {
		t.Fatalf("the credit READ saw head %d, the consumer's is %d", w.head, mb.head)
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], mb.head)
	readBack(t, s, f.Connect(1, 2), mb.reg, mailboxHead, word[:])
}

func TestMailboxResetFreesEveryPage(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 4*pageSize)
	w := mb.Connect(f, 1)
	run(t, s, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := w.Send(p, payload(i, 1000)); err != nil {
				t.Error(err)
			}
		}
		p.Sleep(5 * sim.Microsecond)
	})
	held := materialized(mb)
	if held < 3 {
		t.Fatalf("%d pages held before the reset, want the undrained records' 3", held)
	}
	free := len(f.pages)
	mb.reset()
	w.reset()
	if n := materialized(mb); n != 0 || len(f.pages) != free+held {
		t.Fatalf("after reset: %d pages held, %d free; want 0 and %d", n, len(f.pages), free+held)
	}
	for _, pg := range f.pages {
		if *pg != [pageSize]byte{} {
			t.Fatal("a page went back to the free list with bytes in it")
		}
	}
	qp := f.Connect(1, 2)
	readBack(t, s, qp, mb.reg, 0, make([]byte, mailboxHdr+pageSize))
}

// ringTraffic runs seeded bursts of random records through one ring for
// the given laps, with a consumer that lags by up to lag, checks every
// record arrives intact and in order, and after every step that the pages
// held stay within the bytes in flight. It returns the most bytes that
// were ever in flight, the pages the fabric ever allocated, and how many
// steps found the head's page holding the next lap's records too.
func ringTraffic(t *testing.T, seed int64, ringCap, laps int, lag sim.Duration) (maxInFlight uint64, allocated, shared int) {
	t.Helper()
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, ringCap)
	w := mb.Connect(f, 1)
	rng := rand.New(rand.NewSource(seed))
	check := func(when string) {
		inFlight := w.tail - mb.head // posted, whether or not it has landed
		maxInFlight = max(maxInFlight, inFlight)
		if n := materialized(mb); n > pageBound(inFlight) {
			t.Fatalf("seed %d, %s: %d pages held with %d bytes in flight, want <= %d", seed, when, n, inFlight, pageBound(inFlight))
		}
		if mb.pages != nil && mb.pages[int(mb.head%uint64(ringCap))/pageSize].lap > mb.head/uint64(ringCap) {
			shared++
		}
	}
	sent, got := 0, 0
	s.Spawn("producer", func(p *sim.Proc) {
		for w.tail < uint64(laps*ringCap) {
			burst := make([][]byte, 1+rng.Intn(4))
			for k := range burst {
				burst[k] = payload(sent+k, 8+rng.Intn(1500))
			}
			if err := w.Send(p, burst...); err != nil {
				t.Error(err)
				return
			}
			sent += len(burst)
			p.Sleep(sim.Duration(rng.Intn(3000)) * sim.Nanosecond)
		}
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		for idle := false; !idle; idle = !b.writeNotify.WaitTimeout(p, 100*sim.Microsecond) {
			check("woken")
			p.Sleep(sim.Duration(rng.Int63n(int64(lag)))) // more lands meanwhile
			check("lagged")
			for rec, ok := mb.TryRecv(); ok; rec, ok = mb.TryRecv() {
				if len(rec) < 6 || string(rec[:6]) != fmt.Sprintf("r%05d", got) || !bytes.Equal(rec, payload(got, len(rec))) {
					t.Fatalf("seed %d: record %d arrived as %q", seed, got, rec[:min(len(rec), 16)])
				}
				got++
				check("drained")
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != sent {
		t.Fatalf("seed %d: received %d of %d records", seed, got, sent)
	}
	if n := materialized(mb); n > 1 {
		t.Fatalf("seed %d: a drained ring holds %d pages, want at most the head's", seed, n)
	}
	return maxInFlight, materialized(mb) + len(f.pages), shared
}

// TestRingPagesFollowBytesInFlight: at every step the pages a ring holds
// are those its unread bytes touch plus the head's, and the fabric never
// allocates more pages than that bound at its highest — over four times as
// many laps as well as one. On the 4-page ring the producer often writes
// the next lap into the page the head is still in.
func TestRingPagesFollowBytesInFlight(t *testing.T) {
	for _, ring := range []struct {
		cap int
		lag sim.Duration
	}{{16 * pageSize, 4 * sim.Microsecond}, {4 * pageSize, 20 * sim.Microsecond}} {
		shared := 0
		for seed := int64(1); seed <= 4; seed++ {
			for _, laps := range []int{4, 16} {
				inFlight, allocated, sh := ringTraffic(t, seed, ring.cap, laps, ring.lag)
				if allocated > pageBound(inFlight) {
					t.Fatalf("seed %d, %d laps: the fabric allocated %d pages, with at most %d bytes in flight (bound %d)",
						seed, laps, allocated, inFlight, pageBound(inFlight))
				}
				if inFlight < 2*pageSize {
					t.Fatalf("seed %d: at most %d bytes in flight; the consumer must lag by pages", seed, inFlight)
				}
				shared += sh
				t.Logf("%d-byte ring, seed %d, %d laps: %d pages allocated, %d bytes in flight at most",
					ring.cap, seed, laps, allocated, inFlight)
			}
		}
		if ring.cap == 4*pageSize && shared == 0 {
			t.Fatal("the head's page never held the next lap's records on the small ring")
		}
	}
}

// TestPageSharedByTwoLaps: with the ring nearly full, the producer writes
// the next lap into the page the head is still reading. The head passing
// that page's end in the earlier lap must not free the later lap's records.
func TestPageSharedByTwoLaps(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 2*pageSize)
	w := mb.Connect(f, 1)
	var sent, got [][]byte
	run(t, s, func(p *sim.Proc) {
		send := func() {
			sent = append(sent, payload(len(sent), 1000))
			if err := w.Send(p, sent[len(sent)-1]); err != nil {
				t.Error(err)
			}
		}
		for range 8 { // 8064 of the ring's 8192 bytes
			send()
		}
		p.Sleep(5 * sim.Microsecond)
		for range 2 {
			rec, _ := mb.TryRecv()
			got = append(got, bytes.Clone(rec))
		}
		send() // a wrap marker, then ring bytes [0, 1008) of the next lap
		send() // [1008, 2016): page 0 now holds both laps
		p.Sleep(5 * sim.Microsecond)
		if mb.head/uint64(mb.cap) != 0 || w.tail/uint64(mb.cap) != 1 {
			t.Errorf("head %d, tail %d: want the head in the first lap, the tail in the second", mb.head, w.tail)
		}
		got = append(got, drain(p, mb)...)
	})
	if len(got) != len(sent) {
		t.Fatalf("received %d records, want %d", len(got), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("record %d = %q..., want %q...", i, got[i][:min(len(got[i]), 8)], sent[i][:8])
		}
	}
}

// TestLappedRingAllocatesNothing: past the first lap, a send through a
// ring of several pages, records straddling pages, takes every page it
// materializes from the free list.
func TestLappedRingAllocatesNothing(t *testing.T) {
	s, f, _, _ := testFabric(t)
	defer s.Close()
	const ringCap = 4 * pageSize
	tr := NewTransport(f, ringCap)
	w := tr.writer(1, 2)
	ep := tr.Endpoint(2)
	s.Spawn("consumer", func(p *sim.Proc) {
		for {
			if _, _, err := ep.Recv(p); err != nil {
				return
			}
		}
	})
	payloads := burstPayloads(0, 3, 700)
	n := allocsPerPeriod(t, s, func(p *sim.Proc) {
		if err := tr.Send(p, 1, 2, payloads...); err != nil {
			t.Error(err)
		}
	})
	if laps := w.tail / ringCap; laps < 20 {
		t.Fatalf("the ring was lapped %d times, want >= 20", laps)
	}
	if n != 0 {
		t.Fatalf("a lapped ring allocates %v per send, want 0", n)
	}
}

// TestLostRecordInLaterLapReadsZero: after the ring has lapped, the slot
// of a record whose WRITE has not landed yet reads zero, as in the first
// lap, though an earlier lap's record sat at the same ring bytes: the
// consumer finds nothing there, parses nothing stale, and delivers the
// record once, when it lands.
func TestLostRecordInLaterLapReadsZero(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	const (
		ringCap = 2 * pageSize
		size    = 500 // 512-byte spans: the lap holds 16 of them and wraps without a marker
		late    = 21  // in the second lap, at the bytes record 5 held in the first
	)
	mb := NewMailbox(b, ringCap)
	w := mb.Connect(f, 1)
	var got []int
	consume := func(p *sim.Proc) {
		for _, rec := range drain(p, mb) {
			var i int
			if _, err := fmt.Sscanf(string(rec[:6]), "r%05d", &i); err != nil || !bytes.Equal(rec, payload(i, size)) {
				t.Errorf("a torn record: %q", rec[:min(len(rec), 16)])
				continue
			}
			got = append(got, i)
		}
	}
	run(t, s, func(p *sim.Proc) {
		for i := 0; i < 24; i++ {
			if i == late {
				if int(w.tail%ringCap) != 5*recordSpan(size) || w.tail < ringCap {
					t.Errorf("record %d would start at ring byte %d of lap %d", i, w.tail%ringCap, w.tail/ringCap)
				}
				f.SetLinkDelay(1, 2, 50*sim.Microsecond, 0)
			}
			if err := w.Send(p, payload(i, size)); err != nil {
				t.Error(err)
			}
			if i == late {
				f.SetLinkDelay(1, 2, 0, 0)
				p.Sleep(5 * sim.Microsecond)
				consume(p)
				slot := regionBytes(mb.reg, mailboxHdr+int(mb.head%ringCap), recordSpan(size))
				if len(got) != late || mb.Pending() || !bytes.Equal(slot, make([]byte, len(slot))) {
					t.Errorf("with record %d in flight: delivered %d records, pending %v, slot %q...", late, len(got), mb.Pending(), slot[:16])
				}
				p.Sleep(50 * sim.Microsecond)
			}
			p.Sleep(5 * sim.Microsecond)
			consume(p)
		}
	})
	want := make([]int, 24)
	for i := range want {
		want[i] = i
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want every record once, in order", got)
	}
	if mb.head != w.tail {
		t.Fatalf("head %d, producer tail %d", mb.head, w.tail)
	}
}
