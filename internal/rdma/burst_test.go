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
// to end as ONE WRITE (two where the lap wraps). These tests
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

// drain returns copies of every record the ring holds right now.
func drain(p *sim.Proc, mb *Mailbox) [][]byte {
	var got [][]byte
	for rec, ok := mb.TryRecv(); ok; rec, ok = mb.TryRecv() {
		got = append(got, bytes.Clone(rec)) // valid until the next receive
	}
	return got
}

// TestBurstIsOneDoorbell: k payloads cost one doorbell and one WRITE verb
// — two when the burst crosses the lap's end — and land, in order, in one
// event.
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
	// A datagram of n bytes is a record of 8+n (the sender prefix): 8 bytes
	// make a 24-byte span with the length word and the stamp.
	step := func(p *sim.Proc, name string, first, k int, doorbells, verbs uint64) {
		d0, v0, w0 := counter(m, "rdma/qp/n1->n2/doorbells"), counter(m, "rdma/qp/n1->n2/write_ops"), wakes
		want := burstPayloads(first, k, 8)
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
			got, from, ok := tr.Endpoint(2).TryRecv()
			if !ok || from != 1 || !bytes.Equal(got, pl) {
				t.Errorf("%s: datagram %d: %v from %d, %v; want %v", name, i, got, from, ok, pl)
			}
		}
		if mb.Pending() || mb.head != w.tail {
			t.Errorf("%s: ring not drained: head %d, tail %d", name, mb.head, w.tail)
		}
	}
	s.Spawn("producer", func(p *sim.Proc) {
		step(p, "one datagram", 0, 1, 1, 1)
		step(p, "five datagrams", 1, 5, 1, 1) // offsets 24..144
		// Offsets 144..240, then 16 bytes are left: a marker closes the
		// first WRITE and the last two records start the next lap.
		step(p, "across the lap's end", 6, 6, 1, 2)
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
		if err := w.Send(p, make([]byte, 8)); err != nil { // offsets 0..16
			t.Error(err)
		}
		p.Sleep(10 * sim.Microsecond)
		if got := drain(p, mb); len(got) != 1 {
			t.Errorf("first record: %v", got)
		}
		v0 := counter(m, "rdma/qp/n1->n2/write_ops")
		// Spans 24 + 24 fill offsets 16..64; the third record is the next lap's.
		want := [][]byte{bytes.Repeat([]byte{'a'}, 16), bytes.Repeat([]byte{'b'}, 16), bytes.Repeat([]byte{'c'}, 8)}
		if err := w.Send(p, want...); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * sim.Microsecond)
		if v := counter(m, "rdma/qp/n1->n2/write_ops") - v0; v != 2 {
			t.Errorf("%d write verbs, want 2 (one record WRITE per lap)", v)
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
				if err := w.Send(p, burstPayloads(0, 2, 8)...); err != nil { // offsets 0..32
					t.Error(err)
				}
				p.Sleep(10 * sim.Microsecond)
				if got := drain(p, mb); len(got) != 2 {
					t.Errorf("first burst: %v", got)
				}
				// Offsets 32..48, a marker at 48, then the next lap: the
				// chain is records+marker, record.
				if err := w.Send(p, make([]byte, 8), make([]byte, 20)); err != nil {
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
			if got := counter(m, "rdma/write_dropped"); got != 2 {
				t.Fatalf("rdma/write_dropped = %d, want 2 (records and marker, record)", got)
			}
			if ring := regionBytes(mb.reg, mailboxHdr, 64); mb.Pending() || !bytes.Equal(ring, make([]byte, 64)) {
				t.Fatalf("part of the dropped chain landed: ring bytes %x", ring)
			}
		})
	}
}

// TestLossyLinkDelaysABurst: as TestLossyLinkDelaysAChain, with three
// records to a chain: a burst lands whole and late, never in part.
func TestLossyLinkDelaysABurst(t *testing.T) { checkLossyDelays(t, 3) }

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
	if err == nil || w.tail != 0 || mb.Pending() {
		t.Fatalf("err = %v, producer tail %d, pending %v; want an error and nothing sent", err, w.tail, mb.Pending())
	}
}
