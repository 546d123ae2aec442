package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// RC loses no verb on a live link. A transmission a lossy link loses is
// sent again one RetransmitTimeout later, and go-back-N holds every later
// WR of the QP behind it; only RetryCount+1 losses in a row error the QP,
// which resets the link, and no WR posted before a reset lands after it.
// These tests pin each of those rules.

// dropSeed returns a fault seed whose first drop draws against frac come
// out as pattern, true for a lost transmission. The fault RNG draws
// nothing else while no link has jitter.
func dropSeed(t *testing.T, frac float64, pattern ...bool) int64 {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		match := true
		for _, lost := range pattern {
			if (rng.Float64() < frac) != lost {
				match = false
				break
			}
		}
		if match {
			return seed
		}
	}
	t.Fatalf("no seed draws %v at %v", pattern, frac)
	return 0
}

// retransmitRun posts three overlapping WRITEs and a READ of their bytes on
// one QP, the first WRITE on a link that loses the given transmissions,
// and returns when the target's memory first changed, what it holds then,
// what the READ returned, and how many retransmits the fabric counted.
type retransmitRun struct {
	landed      sim.Time
	memory      string
	read        string
	retransmits uint64
}

func runRetransmit(t *testing.T, lost ...bool) retransmitRun {
	t.Helper()
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	f.SetFaultSeed(dropSeed(t, 0.5, lost...))
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	cq := qp.Local().NewCQ()
	var run retransmitRun
	s.Spawn("watcher", func(p *sim.Proc) {
		if b.WriteNotify().WaitTimeout(p, sim.Millisecond) {
			run.landed = p.Now()
			run.memory = string(reg.mem(8))
		}
	})
	s.Spawn("issuer", func(p *sim.Proc) {
		if len(lost) > 0 {
			f.SetLinkDrop(1, 2, 0.5)
		}
		if err := qp.PostWrite(p, reg.Addr(0), []byte("AAAAAAAA")); err != nil {
			t.Error(err)
		}
		f.SetLinkDrop(1, 2, 0)
		if err := qp.PostWrites(p, WR{reg.Addr(2), []byte("BBBB")}, WR{reg.Addr(4), []byte("CC")}); err != nil {
			t.Error(err)
		}
		if _, err := qp.PostRead(p, cq, reg.Addr(0), 8); err != nil {
			t.Error(err)
		}
		h := cq.WaitAll(p)[0]
		if h.Err() != nil {
			t.Errorf("the READ failed: %v", h.Err())
			return
		}
		run.read = string(h.Data())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	run.retransmits = counter(m, "rdma/retransmits")
	return run
}

// TestDroppedWriteLandsOneTimeoutLate: a WRITE whose first transmission is
// lost lands exactly one RetransmitTimeout after it would have, and the
// WRITEs and the READ posted after it on its QP land after it, in post
// order: memory first changes to all three WRITEs placed in order, and the
// READ sees them.
func TestDroppedWriteLandsOneTimeoutLate(t *testing.T) {
	clean := runRetransmit(t)
	lossy := runRetransmit(t, true, false)
	if clean.retransmits != 0 || lossy.retransmits != 1 {
		t.Fatalf("%d and %d retransmits, want 0 and 1", clean.retransmits, lossy.retransmits)
	}
	if want := clean.landed + sim.Time(RetransmitTimeout); lossy.landed != want {
		t.Errorf("the lost WRITE landed at %d, want one RetransmitTimeout after %d (%d)", lossy.landed, clean.landed, want)
	}
	if lossy.memory != "AABBCCAA" {
		t.Errorf("memory at the first landing is %q, want the three WRITEs placed in post order (AABBCCAA)", lossy.memory)
	}
	if lossy.read != "AABBCCAA" || clean.read != "AABBCCAA" {
		t.Errorf("the READ behind the WRITEs returned %q (lossless %q), want AABBCCAA", lossy.read, clean.read)
	}
}

// TestDroppedReadIsDelayed: a READ, synchronous or posted, whose first two
// transmissions are lost completes with the target's bytes two
// RetransmitTimeouts late, not with an error.
func TestDroppedReadIsDelayed(t *testing.T) {
	read := func(posted bool, lost ...bool) (sim.Duration, string) {
		s, f, _, b := testFabric(t)
		defer s.Close()
		f.SetFaultSeed(dropSeed(t, 0.5, lost...))
		if len(lost) > 0 {
			f.SetLinkDrop(1, 2, 0.5)
		}
		reg := b.RegisterRegion(64)
		copy(reg.Bytes(), "payload!")
		qp := f.Connect(1, 2)
		var took sim.Duration
		var got string
		run(t, s, func(p *sim.Proc) {
			if posted {
				cq := qp.Local().NewCQ()
				if _, err := qp.PostRead(p, cq, reg.Addr(0), 8); err != nil {
					t.Error(err)
					return
				}
				h := cq.WaitAll(p)[0]
				if h.Err() != nil {
					t.Errorf("posted READ failed: %v", h.Err())
					return
				}
				took, got = sim.Duration(p.Now()), string(h.Data())
				return
			}
			data, err := qp.Read(p, reg.Addr(0), 8)
			if err != nil {
				t.Errorf("READ failed: %v", err)
			}
			took, got = sim.Duration(p.Now()), string(data)
		})
		return took, got
	}
	for _, posted := range []bool{false, true} {
		clean, _ := read(posted)
		took, got := read(posted, true, true, false)
		if got != "payload!" || took != clean+2*RetransmitTimeout {
			t.Errorf("posted=%v: %q after %d ns, want the bytes after %d ns", posted, got, took, clean+2*RetransmitTimeout)
		}
	}
}

// TestExhaustedRetriesResetTheLink: a verb whose transmission is lost on
// its first try and on all RetryCount retries errors the QP. A WRITE
// reports ErrLinkDown after the failure timeout, and the link resets: both
// rings between the pair restart from zero, and what the QP was given
// meanwhile never lands. The ring's QP and the test's exhaust theirs in
// the same incarnation, so the link resets once. Once the link is clean
// the rings carry traffic again.
func TestExhaustedRetriesResetTheLink(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	tr := NewTransport(f, 256)
	resets := 0
	f.OnLinkReset(func(x, y NodeID) { resets++ })
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	var got []string
	s.Spawn("consumer", func(p *sim.Proc) {
		for {
			pl, _, ok := tr.Endpoint(2).RecvTimeout(p, sim.Millisecond)
			if !ok {
				return
			}
			got = append(got, string(pl))
		}
	})
	s.Spawn("producer", func(p *sim.Proc) {
		for _, dg := range []string{"one", "two"} {
			if err := tr.Send(p, 1, 2, []byte(dg)); err != nil {
				t.Error(err)
			}
			if err := tr.Send(p, 2, 1, []byte(dg)); err != nil {
				t.Error(err)
			}
		}
		p.Sleep(10 * sim.Microsecond)
		if tr.writer(1, 2).tail == 0 || tr.writer(2, 1).tail == 0 {
			t.Error("the rings carried nothing before the loss")
		}
		f.SetLinkDrop(1, 2, 1)
		t0 := p.Now()
		if err := tr.Send(p, 1, 2, []byte("lost")); err != nil {
			t.Error(err)
		}
		err := qp.Write(p, reg.Addr(0), []byte("lost"))
		if !errors.Is(err, ErrLinkDown) {
			t.Errorf("a WRITE lost %d times returned %v, want ErrLinkDown", RetryCount+1, err)
		}
		if took := sim.Duration(p.Now() - t0); took < FailureTimeout {
			t.Errorf("the WRITE failed after %d ns, before the failure timeout", took)
		}
		if resets != 1 {
			t.Errorf("two QPs that exhausted their retries together reset the link %d times, want 1", resets)
		}
		if w, x := tr.writer(1, 2), tr.writer(2, 1); w.tail != 0 || x.tail != 0 {
			t.Errorf("after the reset the producers' tails are %d and %d, want 0", w.tail, x.tail)
		}
		if mb := tr.Endpoint(2).boxes[0]; mb.head != 0 || mb.Pending() {
			t.Errorf("after the reset the consumer's head is %d, pending %v", mb.head, mb.Pending())
		}
		f.SetLinkDrop(1, 2, 0)
		if err := tr.Send(p, 1, 2, []byte("after")); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[one two after]" {
		t.Fatalf("delivered %q, want one, two and after", got)
	}
	if !bytes.Equal(reg.mem(4), make([]byte, 4)) {
		t.Fatalf("the WRITE the QP flushed landed: %q", reg.mem(4))
	}
}

// TestNoWRPostedBeforeAResetLandsAfter: WRs in flight when the link resets
// — a WRITE, a posted READ, and a datagram's records — are discarded at
// their landing: the WRITE places nothing, the READ fails, and the ring
// delivers only what was sent after the reset.
func TestNoWRPostedBeforeAResetLandsAfter(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	tr := NewTransport(f, 256)
	reg := b.RegisterRegion(64)
	qp := f.Connect(1, 2)
	cq := qp.Local().NewCQ()
	var got []string
	s.Spawn("consumer", func(p *sim.Proc) {
		for {
			pl, _, ok := tr.Endpoint(2).RecvTimeout(p, sim.Millisecond)
			if !ok {
				return
			}
			got = append(got, string(pl))
		}
	})
	var readErr error
	s.Spawn("issuer", func(p *sim.Proc) {
		f.SetLinkDelay(1, 2, 50*sim.Microsecond, 0)
		if err := qp.PostWrite(p, reg.Addr(0), []byte("stale")); err != nil {
			t.Error(err)
		}
		if _, err := qp.PostRead(p, cq, reg.Addr(0), 8); err != nil {
			t.Error(err)
		}
		if err := tr.Send(p, 1, 2, []byte("stale")); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * sim.Microsecond)
		f.HealLink(1, 2) // clears the delay and resets the link
		if err := tr.Send(p, 1, 2, []byte("fresh")); err != nil {
			t.Error(err)
		}
		if err := qp.Write(p, reg.Addr(8), []byte("fresh")); err != nil {
			t.Errorf("a WRITE after the reset: %v", err)
		}
		readErr = cq.WaitAll(p)[0].Err()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if mem := reg.mem(13); !bytes.Equal(mem[:5], make([]byte, 5)) || string(mem[8:]) != "fresh" {
		t.Errorf("memory %q: want the WRITE posted before the reset discarded, the one after it placed", mem)
	}
	if readErr == nil {
		t.Error("a READ posted before the reset completed after it")
	}
	if fmt.Sprint(got) != "[fresh]" {
		t.Errorf("delivered %q, want only the datagram sent after the reset", got)
	}
}

// TestLossyLinkDeliversEveryRecordOnce: three producers send bursts to one
// consumer over links that lose 4 % of transmissions both ways. Every
// datagram arrives exactly once and each producer's in order, and the
// loss shows only as retransmits.
func TestLossyLinkDeliversEveryRecordOnce(t *testing.T) {
	s := sim.NewScheduler()
	defer s.Close()
	f := NewFabric(s, DefaultConfig())
	for id := NodeID(1); id <= 4; id++ {
		f.AddNode(id)
	}
	f.SetFaultSeed(7)
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	for id := NodeID(1); id <= 3; id++ {
		f.SetLinkDrop(id, 4, 0.04)
		f.SetLinkDrop(4, id, 0.04)
	}
	tr := NewTransport(f, 512)
	const perProducer = 300
	next := map[NodeID]int{}
	s.Spawn("consumer", func(p *sim.Proc) {
		ep := tr.Endpoint(4)
		for {
			pl, from, ok := ep.RecvTimeout(p, sim.Millisecond)
			if !ok {
				return
			}
			if want := fmt.Sprintf("p%d-%04d", from, next[from]); string(pl) != want {
				t.Errorf("from %d: %q, want %q", from, pl, want)
				return
			}
			next[from]++
			if next[from]%7 == 0 {
				p.Sleep(2 * sim.Microsecond)
			}
		}
	})
	for id := NodeID(1); id <= 3; id++ {
		rng := rand.New(rand.NewSource(int64(id)))
		s.Spawn(fmt.Sprintf("producer%d", id), func(p *sim.Proc) {
			for i := 0; i < perProducer; {
				burst := make([][]byte, min(1+rng.Intn(4), perProducer-i))
				for k := range burst {
					burst[k] = []byte(fmt.Sprintf("p%d-%04d", id, i+k))
				}
				if err := tr.Send(p, id, 4, burst...); err != nil {
					t.Errorf("producer %d: %v", id, err)
					return
				}
				i += len(burst)
				p.Sleep(sim.Duration(rng.Intn(3000)) * sim.Nanosecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for id := NodeID(1); id <= 3; id++ {
		if next[id] != perProducer {
			t.Errorf("producer %d: %d of %d datagrams delivered", id, next[id], perProducer)
		}
	}
	if r := counter(m, "rdma/retransmits"); r == 0 {
		t.Error("a 4 % lossy link retransmitted nothing")
	}
	if d := counter(m, "rdma/write_dropped"); d != 0 {
		t.Errorf("%d WRITEs dropped on live links", d)
	}
}

// TestTornRecordIsNotDelivered: a record is taken only once it has landed
// whole, length word first and stamp last. Its parts written raw, one
// WRITE each as a torn DMA would place them, deliver nothing until the
// stamp lands, and then the record, once.
func TestTornRecordIsNotDelivered(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 256)
	w := mb.Connect(f, 1)
	qp := f.Connect(1, 2)
	body := []byte("torn-record-payload!") // 20 bytes: a 32-byte span
	run(t, s, func(p *sim.Proc) {
		if err := w.Send(p, []byte("first")); err != nil {
			t.Error(err)
		}
		p.Sleep(5 * sim.Microsecond)
		if rec, ok := mb.TryRecv(); !ok || string(rec) != "first" {
			t.Errorf("first record: %q, %v", rec, ok)
		}
		slot := mailboxHdr + int(mb.head%256)
		var word [4]byte
		for _, part := range []struct {
			off  int
			data []byte
		}{
			{0, binary.LittleEndian.AppendUint32(word[:0], uint32(len(body))+1)},
			{4, body},
		} {
			if err := qp.Write(p, mb.reg.Addr(slot+part.off), part.data); err != nil {
				t.Error(err)
			}
			if rec, ok := mb.TryRecv(); ok || mb.Pending() {
				t.Errorf("a record without its stamp was delivered: %q", rec)
			}
		}
		last := slot + recordSpan(len(body)) - 4
		if err := qp.Write(p, mb.reg.Addr(last), binary.LittleEndian.AppendUint32(word[:0], stamp(0))); err != nil {
			t.Error(err)
		}
		if rec, ok := mb.TryRecv(); !ok || !bytes.Equal(rec, body) {
			t.Errorf("the record with its stamp landed: %q, %v; want %q", rec, ok, body)
		}
		if rec, ok := mb.TryRecv(); ok {
			t.Errorf("delivered %q twice", rec)
		}
	})
}
