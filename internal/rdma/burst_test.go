package rdma

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// A burst — Send with several payloads — is one chain: the records laid end
// to end as ONE WRITE (two where the lap wraps), then the tail. These tests
// pin its cost, its landing, its layout at the ring's end, and what faults
// do to it; the one-payload case is chain_test.go's, unchanged.

// burstPayloads returns k distinguishable payloads of n bytes, numbered
// from first.
func burstPayloads(first, k, n int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte(first + i)}, n)
	}
	return out
}

// drain returns every record the ring holds right now.
func drain(p *sim.Proc, mb *Mailbox) [][]byte {
	var got [][]byte
	for rec, ok := mb.TryRecv(p); ok; rec, ok = mb.TryRecv(p) {
		got = append(got, rec)
	}
	return got
}

// TestBurstIsOneDoorbell: k payloads cost one doorbell and two WRITE verbs
// — three when the burst crosses the lap's end — and land, in order, in
// one event.
func TestBurstIsOneDoorbell(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	tr := NewTransport(f, 256)
	w := tr.writer(1, 2)
	mb := tr.Endpoint(2).boxes[0]

	wakes := 0
	s.Spawn("poller", func(p *sim.Proc) {
		for b.writeNotify.WaitTimeout(p, 50*sim.Microsecond) {
			wakes++
		}
	})
	// A datagram of n bytes is a record of 8+n (the sender prefix): 12 bytes
	// make a 24-byte span.
	step := func(p *sim.Proc, name string, first, k int, doorbells, verbs uint64) {
		d0, v0, w0 := counter(m, "rdma/qp/n1->n2/doorbells"), counter(m, "rdma/qp/n1->n2/write_ops"), wakes
		want := burstPayloads(first, k, 12)
		if err := tr.Send(p, 1, 2, want...); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		p.Sleep(10 * sim.Microsecond)
		if d, v := counter(m, "rdma/qp/n1->n2/doorbells")-d0, counter(m, "rdma/qp/n1->n2/write_ops")-v0; d != doorbells || v != verbs {
			t.Errorf("%s: %d doorbells and %d write verbs, want %d and %d", name, d, v, doorbells, verbs)
		}
		if wakes-w0 != 1 {
			t.Errorf("%s: the burst woke the consumer's pollers %d times, want once", name, wakes-w0)
		}
		for i, pl := range want {
			got, from, ok := tr.Endpoint(2).TryRecv(p)
			if !ok || from != 1 || !bytes.Equal(got, pl) {
				t.Errorf("%s: datagram %d: %v from %d, %v; want %v", name, i, got, from, ok, pl)
			}
		}
		if mb.Pending() || mb.head != w.tail {
			t.Errorf("%s: ring not drained: head %d, tail %d", name, mb.head, w.tail)
		}
	}
	s.Spawn("producer", func(p *sim.Proc) {
		step(p, "one datagram", 0, 1, 1, 2)
		step(p, "five datagrams", 1, 5, 1, 2) // offsets 24..144
		// Offsets 144..240, then 16 bytes are left: a marker closes the
		// first WRITE and the last two records start the next lap.
		step(p, "across the lap's end", 6, 6, 1, 3)
		if w.tail != 256+48 {
			t.Errorf("producer tail %d, want %d", w.tail, 256+48)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r := counter(m, "rdma/qp/n1->n2/read_ops"); r != 1 {
		t.Errorf("%d credit READs, want 1 (at the lap's end, where the shadow head was stale)", r)
	}
}

// TestBurstRecordEndingAtRingEnd: a record that ends exactly at the ring's
// end leaves no room for a wrap marker and needs none; the next record of
// the burst starts at offset 0 and therefore a WRITE of its own.
func TestBurstRecordEndingAtRingEnd(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	m := obs.NewMetrics()
	f.Observe(obs.New(nil, m))
	mb := NewMailbox(b, 64)
	w := mb.Connect(f, 1)
	s.Spawn("producer", func(p *sim.Proc) {
		if err := w.Send(p, make([]byte, 12)); err != nil { // offsets 0..16
			t.Error(err)
		}
		p.Sleep(10 * sim.Microsecond)
		if got := drain(p, mb); len(got) != 1 {
			t.Errorf("first record: %v", got)
		}
		v0 := counter(m, "rdma/qp/n1->n2/write_ops")
		// Spans 24 + 24 fill offsets 16..64; the third record is the next lap's.
		want := [][]byte{bytes.Repeat([]byte{'a'}, 20), bytes.Repeat([]byte{'b'}, 20), bytes.Repeat([]byte{'c'}, 12)}
		if err := w.Send(p, want...); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * sim.Microsecond)
		if v := counter(m, "rdma/qp/n1->n2/write_ops") - v0; v != 3 {
			t.Errorf("%d write verbs, want 3 (two record WRITEs and the tail)", v)
		}
		if got := drain(p, mb); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("received %q, want %q", got, want)
		}
		if w.tail != 64+16 || mb.head != w.tail {
			t.Errorf("producer tail %d, consumer head %d, want both %d: no lap end was skipped", w.tail, mb.head, 64+16)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d := counter(m, "rdma/write_dropped"); d != 0 {
		t.Fatalf("%d writes dropped", d)
	}
}

// burstTraffic sends random bursts of random-size records through a
// 128-byte ring — many of them larger than the ring — to a consumer with
// random pauses, and checks exact FIFO delivery. It returns how often the
// ring was lapped and how many records ended exactly at the ring's end.
func burstTraffic(t *testing.T, seed int64, s *sim.Scheduler, mb *Mailbox, w *MailboxWriter) (laps, exactEnds int) {
	t.Helper()
	const ringCap = 128
	prng := rand.New(rand.NewSource(seed))
	crng := rand.New(rand.NewSource(seed + 1))
	var sent [][]byte
	var bursts [][][]byte
	for pos := 0; len(sent) < 150; {
		burst := make([][]byte, 1+prng.Intn(12))
		for i := range burst {
			burst[i] = make([]byte, 4*prng.Intn(13)) // spans 8..56, ring 128
			prng.Read(burst[i])
			span := recordSpan(len(burst[i]))
			if pos%ringCap+span > ringCap {
				pos += ringCap - pos%ringCap
			}
			if pos += span; pos%ringCap == 0 {
				exactEnds++
			}
		}
		sent = append(sent, burst...)
		bursts = append(bursts, burst)
	}
	got := 0
	s.Spawn("producer", func(p *sim.Proc) {
		for _, burst := range bursts {
			if err := w.Send(p, burst...); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			if prng.Intn(3) == 0 {
				p.Sleep(sim.Duration(prng.Intn(10)) * sim.Microsecond)
			}
		}
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		for ; got < len(sent); got++ {
			rec, err := mb.Recv(p)
			if err != nil || !bytes.Equal(rec, sent[got]) {
				t.Errorf("seed %d: record %d = %v, %v; want %v", seed, got, rec, err, sent[got])
				return
			}
			if crng.Intn(4) == 0 {
				p.Sleep(sim.Duration(crng.Intn(20)) * sim.Microsecond)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != len(sent) {
		t.Fatalf("seed %d: received %d of %d records", seed, got, len(sent))
	}
	return int(w.tail / ringCap), exactEnds
}

// TestBurstRoundTrip: random bursts, among them bursts several times the
// ring's size (posted in as many chains as it takes) and records ending
// exactly at the ring's end, arrive whole and in order.
func TestBurstRoundTrip(t *testing.T) {
	exact := 0
	for seed := int64(1); seed <= 20; seed++ {
		s, f, _, b := testFabric(t)
		mb := NewMailbox(b, 128)
		laps, ends := burstTraffic(t, seed, s, mb, mb.Connect(f, 1))
		s.Close()
		if laps < 3 {
			t.Fatalf("seed %d: the ring was lapped %d times, want >= 3", seed, laps)
		}
		exact += ends
	}
	if exact == 0 {
		t.Fatal("no record ended exactly at the ring's end; change the sizes")
	}
}

// TestBurstDroppedWhole: a crash, or a partition, between the post and the
// landing loses every WR of a burst's chain, counted one by one, and none
// of it lands.
func TestBurstDroppedWhole(t *testing.T) {
	for _, fault := range []string{"crash", "partition"} {
		t.Run(fault, func(t *testing.T) {
			s, f, _, b := testFabric(t)
			defer s.Close()
			m := obs.NewMetrics()
			f.Observe(obs.New(nil, m))
			mb := NewMailbox(b, 64)
			w := mb.Connect(f, 1)
			s.Spawn("producer", func(p *sim.Proc) {
				if err := w.Send(p, burstPayloads(0, 2, 12)...); err != nil { // offsets 0..32
					t.Error(err)
				}
				p.Sleep(10 * sim.Microsecond)
				if got := drain(p, mb); len(got) != 2 {
					t.Errorf("first burst: %v", got)
				}
				// Offsets 32..48, a marker at 48, then the next lap: the
				// chain is records+marker, record, tail.
				if err := w.Send(p, make([]byte, 12), make([]byte, 20)); err != nil {
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
				t.Fatalf("rdma/write_dropped = %d, want 3 (records and marker, record, tail)", got)
			}
			if tail := mb.tailShadow(); tail != 32 {
				t.Fatalf("consumer tail = %d: part of the dropped chain landed", tail)
			}
		})
	}
}

// TestLossyLinkTearsABurst: a lossy link draws per WR, so it can take a
// burst's tail and leave its records, or the reverse. A lost tail is made
// good by the next burst's: nothing is lost. Lost records leave a stale lap
// under the published tail, which the consumer parses as old records or
// drops as garbage — never past the tail, never anything torn, never a
// record of the burst that did not land — and the ring is back in step for
// what follows. Seeds are scanned until both tears have happened.
func TestLossyLinkTearsABurst(t *testing.T) {
	const (
		ringCap  = 512
		perBurst = 3
		warm     = 8 // bursts before the loss: more than a lap, so stale bytes are old records
		after    = 4 // bursts after it
	)
	burst := func(b int) [][]byte {
		return [][]byte{lossyPayload(perBurst * b), lossyPayload(perBurst*b + 1), lossyPayload(perBurst*b + 2)}
	}
	tornTail, tornRecords := 0, 0
	for seed := int64(1); seed <= 64 && (tornTail == 0 || tornRecords == 0); seed++ {
		s, f, _, b := testFabric(t)
		f.SetFaultSeed(seed)
		mb := NewMailbox(b, ringCap)
		w := mb.Connect(f, 1)
		var got []int
		var recsLanded, tailLanded bool
		s.Spawn("producer", func(p *sim.Proc) {
			send := func(i int) {
				if err := w.Send(p, burst(i)...); err != nil {
					t.Errorf("seed %d: burst %d: %v", seed, i, err)
				}
				p.Sleep(5 * sim.Microsecond) // landed, and drained by the consumer
			}
			for i := 0; i < warm; i++ {
				send(i)
			}
			off := mailboxHdr + int(w.tail%ringCap)
			first := burst(warm)[0]
			if off+3*recordSpan(len(first)+10) > mailboxHdr+ringCap {
				t.Errorf("seed %d: the lossy burst wraps; pick another warm-up count", seed)
			}
			f.SetLinkDrop(1, 2, 0.5)
			send(warm)
			f.SetLinkDrop(1, 2, 0)
			recsLanded = bytes.Equal(mb.reg.mem()[off+4:off+4+len(first)], first)
			tailLanded = mb.tailShadow() == w.tail
			for i := warm + 1; i <= warm+after; i++ {
				send(i)
			}
		})
		s.Spawn("consumer", func(p *sim.Proc) {
			for idle := false; !idle; idle = !b.writeNotify.WaitTimeout(p, 100*sim.Microsecond) {
				for rec, ok := mb.TryRecv(p); ok; rec, ok = mb.TryRecv(p) {
					if mb.head > mb.tailShadow() {
						t.Errorf("seed %d: consumed to %d, past the published tail %d", seed, mb.head, mb.tailShadow())
					}
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
		// Back in step: what follows the loss arrives, in order. Only the
		// first burst after lost records may go with them, when the consumer
		// drops the stale lap up to the tail that covers both.
		sure := perBurst * (after - 1)
		if len(got) < sure {
			t.Fatalf("seed %d: delivered %v", seed, got)
		}
		for k, i := range got[len(got)-sure:] {
			if i != perBurst*(warm+2)+k {
				t.Fatalf("seed %d (records landed %v, tail landed %v): delivered %v, want it to end with %d..%d",
					seed, recsLanded, tailLanded, got, perBurst*(warm+2), perBurst*(warm+after+1)-1)
			}
		}
		switch {
		case recsLanded && !tailLanded:
			tornTail++
			// Nothing was lost for good: the next tail published the burst.
			if want := perBurst * (warm + 1 + after); len(got) != want {
				t.Fatalf("seed %d: lost tail: delivered %v, want all %d", seed, got, want)
			}
		case !recsLanded && tailLanded:
			tornRecords++
			for _, i := range got {
				if i/perBurst == warm {
					t.Fatalf("seed %d: delivered datagram %d of the burst whose records never landed", seed, i)
				}
			}
		}
	}
	t.Logf("bursts torn: %d lost only the tail, %d only the records", tornTail, tornRecords)
	if tornTail == 0 || tornRecords == 0 {
		t.Fatalf("64 seeds tore %d tails and %d record WRITEs off their chains; want both", tornTail, tornRecords)
	}
}

// TestBurstOversizedRecordSendsNothing: one record the ring could never
// hold fails the whole burst before anything is posted.
func TestBurstOversizedRecordSendsNothing(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 64)
	w := mb.Connect(f, 1)
	var err error
	s.Spawn("producer", func(p *sim.Proc) {
		err = w.Send(p, []byte("fits"), make([]byte, 128))
	})
	if rerr := s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil || w.tail != 0 || mb.tailShadow() != 0 {
		t.Fatalf("err = %v, producer tail %d, consumer tail %d; want an error and nothing sent", err, w.tail, mb.tailShadow())
	}
}
