package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// The ring's cost model: a datagram is one doorbell carrying a chain of
// WRITEs that lands in one event, and credit is a READ the producer issues
// only when its shadow of the consumer's head says the ring is full. These
// tests pin the counts, the landing order, and what faults do to a chain.

// counter reads a metrics counter by name.
func counter(m *obs.Metrics, name string) uint64 { return m.Counter(name).Value() }

// TestDatagramIsOneDoorbell: N datagrams on a ring that never fills cost N
// doorbells and 2N WRITE verbs (record, tail) on the producer's QP, and
// nothing at all — no credit write, no credit read — anywhere else.
func TestDatagramIsOneDoorbell(t *testing.T) {
	s, f, _, _ := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	tr := NewTransport(f, 1<<16)

	const n = 50
	got := 0
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := tr.Send(p, 1, 2, []byte(fmt.Sprintf("datagram-%02d", i))); err != nil {
				t.Error(err)
			}
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for ; got < n; got++ {
			pl, from, err := tr.Endpoint(2).Recv(p)
			if err != nil || from != 1 || string(pl) != fmt.Sprintf("datagram-%02d", got) {
				t.Errorf("datagram %d: %q from %d, %v", got, pl, from, err)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("received %d of %d", got, n)
	}
	for name, want := range map[string]uint64{
		"rdma/qp/n1->n2/doorbells": n,
		"rdma/qp/n1->n2/write_ops": 2 * n,
		"rdma/qp/n1->n2/read_ops":  0,
		"rdma/qp/n2->n1/write_ops": 0, // the consumer posts nothing back
		"rdma/qp/n2->n1/doorbells": 0,
		"rdma/doorbells":           n,
		"rdma/credit_reads":        0,
		"rdma/write_dropped":       0,
	} {
		if v := counter(m, name); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

// chainProbe posts one three-WR chain whose WRs overlap — so the bytes left
// behind tell the placement order — and records what a poller of the
// target's write-notify condition saw, and when.
type chainProbe struct {
	reg    *Region
	wakes  []sim.Time // instants the poller was woken
	seen   [][]byte   // region prefix at each wake
	posted sim.Time   // when PostWrites returned
}

func (c *chainProbe) run(s *sim.Scheduler, qp *QP, t *testing.T) {
	s.Spawn("poller", func(p *sim.Proc) {
		for c.reg.node.writeNotify.WaitTimeout(p, 100*sim.Microsecond) {
			c.wakes = append(c.wakes, p.Now())
			c.seen = append(c.seen, append([]byte(nil), c.reg.mem()[:8]...))
		}
	})
	s.Spawn("issuer", func(p *sim.Proc) {
		err := qp.PostWrites(p,
			WR{c.reg.Addr(0), []byte("AAAAAAAA")},
			WR{c.reg.Addr(2), []byte("BBBB")},
			WR{c.reg.Addr(4), []byte("CC")})
		if err != nil {
			t.Error(err)
		}
		c.posted = p.Now()
	})
}

func (c *chainProbe) check(t *testing.T, cfg Config) {
	t.Helper()
	if c.posted != sim.Time(cfg.PostOverhead) {
		t.Errorf("the post cost the issuer %d ns, want one PostOverhead (%d)", c.posted, cfg.PostOverhead)
	}
	if len(c.wakes) != 1 {
		t.Fatalf("the chain woke the target's pollers %d times at %v, want once", len(c.wakes), c.wakes)
	}
	if string(c.seen[0]) != "AABBCCAA" {
		t.Fatalf("memory at the landing is %q, want the WRs placed in order (AABBCCAA)", c.seen[0])
	}
	// Nothing lands before the last WR could have: three verbs' occupancy
	// on a NIC, then the base latency.
	if min := sim.Time(2*cfg.VerbOverhead + cfg.WriteBase/2); c.wakes[0] < min {
		t.Fatalf("the chain landed at %d, before its last WR could complete (%d)", c.wakes[0], min)
	}
}

// TestChainLandsInOrderInOneEvent: a chain is one post for the issuer and
// one landing for the target, at the last WR's completion instant, with the
// WRs placed in posting order.
func TestChainLandsInOrderInOneEvent(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	c := &chainProbe{reg: b.RegisterRegion(64)}
	c.run(s, f.Connect(1, 2), t)
	before := s.EventCount()
	if err := s.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	c.check(t, f.Config())
	// The chain's completion is the completion of a 2-byte WRITE admitted
	// behind an 8- and a 4-byte one on both NICs.
	cfg := f.Config()
	occ := func(n int) sim.Time { return sim.Time(cfg.VerbOverhead) + sim.Time(float64(n)/cfg.BytesPerNS) }
	want := occ(8) + occ(4) + sim.Time(cfg.WriteBase) + sim.Time(2/cfg.BytesPerNS)
	if c.wakes[0] != want {
		t.Errorf("the chain landed at %d, want the last WR's completion %d", c.wakes[0], want)
	}
	// Spawn x2, the post's sleep, ONE landing, the poller's wake and its
	// final timeout.
	if got := s.EventCount() - before; got != 6 {
		t.Errorf("the run took %d events, want 6 (one landing for three WRs)", got)
	}
	if d, w := counter(m, "rdma/qp/n1->n2/doorbells"), counter(m, "rdma/qp/n1->n2/write_ops"); d != 1 || w != 3 {
		t.Errorf("%d doorbells and %d write verbs, want 1 and 3", d, w)
	}
}

// TestPostWritesBadAddressSendsNothing: a chain with one WR out of bounds
// fails as a whole, before any WR is admitted or counted.
func TestPostWritesBadAddressSendsNothing(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	reg := b.RegisterRegion(16)
	qp := f.Connect(1, 2)
	var err error
	s.Spawn("issuer", func(p *sim.Proc) {
		err = qp.PostWrites(p, WR{reg.Addr(0), []byte("ok")}, WR{reg.Addr(12), []byte("too long")})
	})
	if rerr := s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("err = %v, want ErrOutOfBounds", err)
	}
	if w := counter(m, "rdma/qp/n1->n2/write_ops"); w != 0 || !bytes.Equal(reg.mem()[:2], []byte{0, 0}) {
		t.Fatalf("a failed post sent %d verbs, memory %q", w, reg.mem()[:2])
	}
}

// TestChainDroppedWhole: a crash, or a partition, between the post and the
// landing loses every WR of the chain, counted one by one.
func TestChainDroppedWhole(t *testing.T) {
	for _, fault := range []string{"crash", "partition"} {
		t.Run(fault, func(t *testing.T) {
			s, f, _, b := testFabric(t)
			defer s.Close()
			m := obs.NewMetrics()
			f.Observe(obs.New(nil, m))
			mb := NewMailbox(b, 64)
			w := mb.Connect(f, 1)
			s.Spawn("producer", func(p *sim.Proc) {
				// The ring holds 64 bytes: the second record wraps, so its
				// chain is marker, record, tail.
				if err := w.Send(p, bytes.Repeat([]byte{'a'}, 36)); err != nil {
					t.Error(err)
				}
				p.Sleep(10 * sim.Microsecond)
				if rec, ok := mb.TryRecv(p); !ok || len(rec) != 36 {
					t.Errorf("first record: %q, %v", rec, ok)
				}
				if err := w.Send(p, bytes.Repeat([]byte{'b'}, 36)); err != nil {
					t.Error(err)
				}
				// Posted one PostOverhead ago, a WriteBase from landing.
				if fault == "crash" {
					b.Crash()
				} else {
					f.PartitionLink(1, 2)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got := counter(m, "rdma/write_dropped"); got != 3 {
				t.Fatalf("rdma/write_dropped = %d, want 3 (marker, record, tail)", got)
			}
			if tail := mb.tailShadow(); tail != uint64(recordSpan(36)) {
				t.Fatalf("consumer tail = %d: part of the dropped chain landed", tail)
			}
		})
	}
}

// lossyPayload is a self-describing record: whatever the consumer delivers
// after a loss must be one of these, whole.
func lossyPayload(i int) []byte {
	return append([]byte(fmt.Sprintf("dg-%03d-", i)), bytes.Repeat([]byte{0xE0 | byte(i%16)}, 9+i%11)...)
}

func validLossyPayload(rec []byte) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(string(rec[:min(len(rec), 7)]), "dg-%03d-", &i); err != nil {
		return 0, false
	}
	return i, bytes.Equal(rec, lossyPayload(i))
}

// TestLossyLinkTearsAChain: a lossy link draws per WR, so it can take a
// chain's tail and leave its record, or the reverse. Either way the ring
// must deliver nothing torn and come back into step: a lost tail is made
// good by the next datagram's, and a lost record leaves a stale lap under
// the published tail, which the consumer parses as old records or drops as
// garbage up to the tail (TryRecv). Seeds are scanned until both tears
// have happened.
func TestLossyLinkTearsAChain(t *testing.T) {
	const (
		ringCap = 256
		warm    = 14 // datagrams before the loss: more than a lap, so stale bytes are old records
		after   = 6  // datagrams after it
	)
	tornTail, tornRecord := 0, 0
	for seed := int64(1); seed <= 64 && (tornTail == 0 || tornRecord == 0); seed++ {
		s, f, _, b := testFabric(t)
		f.SetFaultSeed(seed)
		mb := NewMailbox(b, ringCap)
		w := mb.Connect(f, 1)
		var got []int
		var recLanded, tailLanded bool
		s.Spawn("producer", func(p *sim.Proc) {
			send := func(i int) {
				if err := w.Send(p, lossyPayload(i)); err != nil {
					t.Errorf("seed %d: send %d: %v", seed, i, err)
				}
				p.Sleep(5 * sim.Microsecond) // landed, and drained by the consumer
			}
			for i := 0; i < warm; i++ {
				send(i)
			}
			off := mailboxHdr + int(w.tail%ringCap)
			if off+recordSpan(len(lossyPayload(warm))) > mailboxHdr+ringCap {
				t.Errorf("seed %d: the lossy datagram wraps; pick another warm-up count", seed)
			}
			f.SetLinkDrop(1, 2, 0.5)
			send(warm)
			f.SetLinkDrop(1, 2, 0)
			recLanded = bytes.Equal(mb.reg.mem()[off+4:off+4+len(lossyPayload(warm))], lossyPayload(warm))
			tailLanded = mb.tailShadow() == w.tail
			for i := warm + 1; i <= warm+after; i++ {
				send(i)
			}
		})
		s.Spawn("consumer", func(p *sim.Proc) {
			for idle := false; !idle; idle = !b.writeNotify.WaitTimeout(p, 100*sim.Microsecond) {
				for rec, ok := mb.TryRecv(p); ok; rec, ok = mb.TryRecv(p) {
					if len(rec) == 0 {
						continue // zeroed ring bytes parse as empty records
					}
					i, valid := validLossyPayload(rec)
					if !valid {
						t.Errorf("seed %d: delivered a torn record %q", seed, rec)
					}
					got = append(got, i)
				}
			}
		})
		if err := s.RunUntil(sim.Time(sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if mb.head != w.tail || mb.Pending() {
			t.Fatalf("seed %d: ring out of step after the loss: head %d, producer tail %d", seed, mb.head, w.tail)
		}
		// The ring is back in step: what follows the loss arrives, in order.
		// Only the first datagram after a lost record may go with it, when
		// the consumer drops the stale lap up to the tail that covers both.
		sure := after - 1
		if len(got) < sure {
			t.Fatalf("seed %d: delivered %v", seed, got)
		}
		for k, i := range got[len(got)-sure:] {
			if i != warm+2+k {
				t.Fatalf("seed %d (record landed %v, tail landed %v): delivered %v, want it to end with %d..%d",
					seed, recLanded, tailLanded, got, warm+2, warm+after)
			}
		}
		switch {
		case recLanded && !tailLanded:
			tornTail++
			// Nothing was lost for good: the next tail published the record.
			if len(got) != warm+1+after {
				t.Fatalf("seed %d: lost tail: delivered %v, want all %d", seed, got, warm+1+after)
			}
		case !recLanded && tailLanded:
			tornRecord++
			for _, i := range got {
				if i == warm {
					t.Fatalf("seed %d: delivered datagram %d, whose record never landed", seed, warm)
				}
			}
		}
	}
	t.Logf("chains torn: %d lost only the tail, %d only the record", tornTail, tornRecord)
	if tornTail == 0 || tornRecord == 0 {
		t.Fatalf("64 seeds tore %d tails and %d records off their chains; want both", tornTail, tornRecord)
	}
}

// lapRing sends n records through a ring far smaller than their sum to a
// consumer slower than the producer, and returns how many arrived in order.
func lapRing(t *testing.T, s *sim.Scheduler, mb *Mailbox, w *MailboxWriter, n int) *int {
	got := new(int)
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := w.Send(p, bytes.Repeat([]byte{byte(i)}, 20+i%9)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		for *got < n {
			rec, err := mb.Recv(p)
			if err != nil || !bytes.Equal(rec, bytes.Repeat([]byte{byte(*got)}, 20+*got%9)) {
				t.Errorf("record %d: %v, %v", *got, rec, err)
				return
			}
			*got++
			p.Sleep(2 * sim.Microsecond)
		}
	})
	return got
}

// TestCreditOnDemand: a producer laps a slowly drained ring many times. It
// fetches credit only when its shadow says the ring is full — every fetch
// is one READ of the published head, the consumer sends nothing — and it
// never sees ErrMailboxFull.
func TestCreditOnDemand(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	mb := NewMailbox(b, 256)
	w := mb.Connect(f, 1)
	const n = 60 // x 32 bytes = 7.5 laps
	got := lapRing(t, s, mb, w, n)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if *got != n {
		t.Fatalf("received %d of %d", *got, n)
	}
	if laps := w.tail / 256; laps < 3 {
		t.Fatalf("the producer lapped the ring %d times, want >= 3", laps)
	}
	reads := counter(m, "rdma/credit_reads")
	if reads < 3 || reads >= n {
		t.Errorf("%d credit reads for %d records over %d laps: want some per lap, not one per record", reads, n, w.tail/256)
	}
	if r := counter(m, "rdma/qp/n1->n2/read_ops"); r != reads {
		t.Errorf("%d READs on the producer's QP for %d credit refreshes, want one each", r, reads)
	}
	if v := counter(m, "rdma/qp/n2->n1/write_ops"); v != 0 {
		t.Errorf("the consumer posted %d writes, want 0", v)
	}
	if w.head == 0 || w.head > mb.head {
		t.Errorf("shadow head %d, consumer head %d", w.head, mb.head)
	}
	if pub := binary.LittleEndian.Uint64(mb.reg.mem()[mailboxHead:]); pub != mb.head {
		t.Errorf("published head %d, consumer head %d", pub, mb.head)
	}
}

// TestCrashedConsumerIsMailboxFull: writes to a crashed consumer vanish
// while the producer's tail advances; once the shadow says the ring is
// full the credit READ fails, and the send reports ErrMailboxFull one
// failure timeout later.
func TestCrashedConsumerIsMailboxFull(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 128)
	w := mb.Connect(f, 1)
	b.Crash()
	var sendErr error
	var took sim.Duration
	sent := 0
	s.Spawn("producer", func(p *sim.Proc) {
		for sendErr == nil {
			t0 := p.Now()
			sendErr = w.Send(p, make([]byte, 28))
			took = sim.Duration(p.Now() - t0)
			sent++
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, ErrMailboxFull) {
		t.Fatalf("err = %v, want ErrMailboxFull", sendErr)
	}
	if sent != 128/32+1 {
		t.Errorf("send %d failed, want the first one past a full ring (%d)", sent, 128/32+1)
	}
	if took != f.Config().FailureTimeout {
		t.Errorf("the failing send took %d ns, want FailureTimeout (%d)", took, f.Config().FailureTimeout)
	}
}

// TestLinkResetZeroesHeadAndShadow: a healed link restarts the ring from
// zero on both sides, the published head and the producer's shadow of it
// included.
func TestLinkResetZeroesHeadAndShadow(t *testing.T) {
	s, f, _, _ := testFabric(t)
	defer s.Close()
	tr := NewTransport(f, 256)
	w := tr.writer(1, 2)
	mb := tr.Endpoint(2).boxes[0]
	s.Spawn("traffic", func(p *sim.Proc) {
		for i := 0; i < 20; i++ { // 2.5 laps: the shadow has been refreshed
			if err := tr.Send(p, 1, 2, make([]byte, 20)); err != nil {
				t.Error(err)
			}
			p.Sleep(3 * sim.Microsecond)
			if _, _, ok := tr.Endpoint(2).TryRecv(p); !ok {
				t.Errorf("datagram %d not delivered", i)
			}
		}
		pub := binary.LittleEndian.Uint64(mb.reg.mem()[mailboxHead:])
		if w.head == 0 || mb.head == 0 || pub != mb.head {
			t.Errorf("before the reset: shadow %d, head %d, published %d", w.head, mb.head, pub)
		}
		f.PartitionLink(1, 2)
		f.HealLink(1, 2)
		pub = binary.LittleEndian.Uint64(mb.reg.mem()[mailboxHead:])
		if w.head != 0 || w.tail != 0 || mb.head != 0 || pub != 0 || mb.tailShadow() != 0 {
			t.Errorf("after the reset: shadow %d, producer tail %d, head %d, published %d, tail %d; want zeros",
				w.head, w.tail, mb.head, pub, mb.tailShadow())
		}
		// And the ring works again from the start.
		if err := tr.Send(p, 1, 2, []byte("after")); err != nil {
			t.Error(err)
		}
		p.Sleep(3 * sim.Microsecond)
		if pl, _, ok := tr.Endpoint(2).TryRecv(p); !ok || string(pl) != "after" {
			t.Errorf("after the reset: %q, %v", pl, ok)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
