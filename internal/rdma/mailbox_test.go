package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"heron/internal/sim"
)

func TestMailboxSendRecv(t *testing.T) {
	s, f, _, b := testFabric(t)
	mb := NewMailbox(b, 4096)
	w := mb.Connect(f, 1)

	var got [][]byte
	s.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			rec, err := mb.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, bytes.Clone(rec)) // valid until the next receive
		}
	})
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := w.Send(p, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	for i, rec := range got {
		want := fmt.Sprintf("msg-%d", i)
		if string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestMailboxWrapAround(t *testing.T) {
	// A small ring forces wrap markers; ordering and contents must hold.
	s, f, _, b := testFabric(t)
	mb := NewMailbox(b, 64)
	w := mb.Connect(f, 1)

	const n = 50
	var got [][]byte
	s.Spawn("consumer", func(p *sim.Proc) {
		for len(got) < n {
			rec, err := mb.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, bytes.Clone(rec))
		}
	})
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 5+i%13)
			if err := w.Send(p, msg); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range got {
		want := bytes.Repeat([]byte{byte(i)}, 5+i%13)
		if !bytes.Equal(rec, want) {
			t.Fatalf("record %d = %v, want %v", i, rec, want)
		}
	}
}

func TestMailboxBackpressure(t *testing.T) {
	// Producer outruns a slow consumer: sends must block on credit, and
	// nothing may be lost or reordered.
	s, f, _, b := testFabric(t)
	mb := NewMailbox(b, 128)
	w := mb.Connect(f, 1)

	const n = 40
	var got int
	s.Spawn("slow-consumer", func(p *sim.Proc) {
		for got < n {
			rec, err := mb.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			if int(rec[0]) != got {
				t.Errorf("out of order: got %d want %d", rec[0], got)
			}
			got++
			p.Sleep(20 * sim.Microsecond)
		}
	})
	s.Spawn("fast-producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := w.Send(p, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("consumed %d of %d", got, n)
	}
}

func TestMailboxFullConsumerDead(t *testing.T) {
	s, f, _, b := testFabric(t)
	mb := NewMailbox(b, 64)
	w := mb.Connect(f, 1)
	_ = mb

	var sendErr error
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if err := w.Send(p, bytes.Repeat([]byte{1}, 16)); err != nil {
				sendErr = err
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, ErrMailboxFull) {
		t.Fatalf("err = %v, want ErrMailboxFull", sendErr)
	}
}

func TestMailboxOversizedRecord(t *testing.T) {
	s, f, _, b := testFabric(t)
	mb := NewMailbox(b, 64)
	w := mb.Connect(f, 1)
	_ = mb
	var err error
	s.Spawn("producer", func(p *sim.Proc) {
		err = w.Send(p, make([]byte, 128))
	})
	if rerr := s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("want error for record larger than ring")
	}
}

func TestMailboxPending(t *testing.T) {
	s, f, _, b := testFabric(t)
	mb := NewMailbox(b, 256)
	w := mb.Connect(f, 1)

	s.Spawn("producer", func(p *sim.Proc) {
		if err := w.Send(p, []byte("x")); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("checker", func(p *sim.Proc) {
		if mb.Pending() {
			t.Error("pending before any send arrived")
		}
		p.Sleep(100 * sim.Microsecond)
		if !mb.Pending() {
			t.Error("not pending after send")
		}
		if rec, ok := mb.TryRecv(); !ok || string(rec) != "x" {
			t.Errorf("TryRecv = %q, %v", rec, ok)
		}
		if mb.Pending() {
			t.Error("still pending after drain")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxRecvReusesItsBuffer: a record is valid until the next receive
// on its ring, which copies the next record into the same bytes — the
// consumer's copy out of the ring allocates only to grow.
func TestMailboxRecvReusesItsBuffer(t *testing.T) {
	s, f, _, b := testFabric(t)
	defer s.Close()
	mb := NewMailbox(b, 256)
	w := mb.Connect(f, 1)
	s.Spawn("producer", func(p *sim.Proc) {
		if err := w.Send(p, []byte("first record"), []byte("second")); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * sim.Microsecond)
		first, ok := mb.TryRecv()
		if !ok || string(first) != "first record" {
			t.Errorf("first receive: %q, %v", first, ok)
			return
		}
		second, ok := mb.TryRecv()
		if !ok || string(second) != "second" {
			t.Errorf("second receive: %q, %v", second, ok)
			return
		}
		if &first[0] != &second[0] {
			t.Error("the second receive did not reuse the first receive's bytes")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxPropertyRoundTrip drives random payload sequences through a
// small ring and checks exact FIFO delivery (property-based).
func TestMailboxPropertyRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = make([]byte, 1+rng.Intn(40))
			rng.Read(msgs[i])
		}

		s := sim.NewScheduler()
		f := NewFabric(s, DefaultConfig())
		a := f.AddNode(1)
		b := f.AddNode(2)
		_ = a
		mb := NewMailbox(b, 96)
		w := mb.Connect(f, 1)

		ok := true
		s.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				rec, err := mb.Recv(p)
				if err != nil || !bytes.Equal(rec, msgs[i]) {
					ok = false
					return
				}
				if rng.Intn(3) == 0 {
					p.Sleep(sim.Duration(rng.Intn(30)) * sim.Microsecond)
				}
			}
		})
		s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if err := w.Send(p, msgs[i]); err != nil {
					ok = false
					return
				}
				if rng.Intn(3) == 0 {
					p.Sleep(sim.Duration(rng.Intn(10)) * sim.Microsecond)
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxConcurrentSenders is a regression test: two processes on the
// SAME producing node (like a Heron replica's executor and control
// process) share one MailboxWriter. Send yields the virtual CPU
// internally, so without the writer's lock the interleaved sends corrupt
// the ring's tail bookkeeping.
func TestMailboxConcurrentSenders(t *testing.T) {
	s := sim.NewScheduler()
	f := NewFabric(s, DefaultConfig())
	f.AddNode(1)
	b := f.AddNode(2)
	mb := NewMailbox(b, 512) // small ring: credit waits force yields
	w := mb.Connect(f, 1)

	const perSender = 40
	for sender := 0; sender < 2; sender++ {
		sender := sender
		s.Spawn(fmt.Sprintf("sender%d", sender), func(p *sim.Proc) {
			for i := 0; i < perSender; i++ {
				msg := bytes.Repeat([]byte{byte(sender)}, 8+i%16)
				if err := w.Send(p, msg); err != nil {
					t.Errorf("sender %d: %v", sender, err)
					return
				}
			}
		})
	}
	var got [][]byte
	s.Spawn("consumer", func(p *sim.Proc) {
		for len(got) < 2*perSender {
			rec, err := mb.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, bytes.Clone(rec))
			p.Sleep(3 * sim.Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*perSender {
		t.Fatalf("received %d of %d", len(got), 2*perSender)
	}
	// Every record must be intact: uniform bytes from one sender.
	counts := map[byte]int{}
	for i, rec := range got {
		if len(rec) < 8 {
			t.Fatalf("record %d truncated: %v", i, rec)
		}
		for _, c := range rec {
			if c != rec[0] {
				t.Fatalf("record %d interleaved/corrupt: %v", i, rec)
			}
		}
		counts[rec[0]]++
	}
	if counts[0] != perSender || counts[1] != perSender {
		t.Fatalf("per-sender counts %v", counts)
	}
}
