package rdma

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"heron/internal/sim"
)

// Endpoint.Recv, Endpoint.RecvTimeout and Mailbox.Recv park on the node's
// write-notify condition behind a wake filter. These tests hold them to
// the unfiltered loops they replaced, kept here as the reference: under
// the same traffic — datagrams, unrelated WRITEs that broadcast the same
// condition, crashes, link resets — both must see every datagram, error
// and timeout at the same virtual instant.

// refRecv is Endpoint.Recv as it was: woken by every broadcast.
func refRecv(e *Endpoint, p *sim.Proc) ([]byte, NodeID, error) {
	for {
		if pl, from, ok := e.TryRecv(); ok {
			return pl, from, nil
		}
		if e.node.crashed {
			return nil, 0, fmt.Errorf("%w: node %d", ErrLocalFailure, e.node.id)
		}
		e.node.writeNotify.Wait(p)
	}
}

// refRecvTimeout is Endpoint.RecvTimeout as it was.
func refRecvTimeout(e *Endpoint, p *sim.Proc, d sim.Duration) ([]byte, NodeID, bool) {
	deadline := p.Now() + sim.Time(d)
	for {
		if pl, f, got := e.TryRecv(); got {
			return pl, f, true
		}
		if e.node.crashed {
			return nil, 0, false
		}
		remaining := sim.Duration(deadline - p.Now())
		if remaining <= 0 {
			return nil, 0, false
		}
		if !e.node.writeNotify.WaitTimeout(p, remaining) {
			if pl, f, got := e.TryRecv(); got {
				return pl, f, true
			}
			return nil, 0, false
		}
	}
}

// refMailboxRecv is Mailbox.Recv as it was.
func refMailboxRecv(m *Mailbox, p *sim.Proc) ([]byte, error) {
	for {
		if rec, ok := m.TryRecv(); ok {
			return rec, nil
		}
		if m.node.crashed {
			return nil, fmt.Errorf("%w: node %d", ErrLocalFailure, m.node.id)
		}
		m.node.writeNotify.Wait(p)
	}
}

// receivers is one implementation of the three blocking receives.
type receivers struct {
	recv        func(*Endpoint, *sim.Proc) ([]byte, NodeID, error)
	recvTimeout func(*Endpoint, *sim.Proc, sim.Duration) ([]byte, NodeID, bool)
	mailboxRecv func(*Mailbox, *sim.Proc) ([]byte, error)
}

var (
	filtered   = receivers{(*Endpoint).Recv, (*Endpoint).RecvTimeout, (*Mailbox).Recv}
	unfiltered = receivers{refRecv, refRecvTimeout, refMailboxRecv}
)

// filterWorld is a three-node fabric: node 1 sends datagrams to node 2,
// node 3 makes noise — WRITEs into a scratch region of node 2, each of
// which broadcasts node 2's write-notify condition.
type filterWorld struct {
	s       *sim.Scheduler
	f       *Fabric
	tr      *Transport
	scratch *Region
	trace   []string
}

func newFilterWorld() *filterWorld {
	w := &filterWorld{s: sim.NewScheduler()}
	w.f = NewFabric(w.s, DefaultConfig())
	for id := NodeID(1); id <= 3; id++ {
		w.f.AddNode(id)
	}
	w.tr = NewTransport(w.f, 512) // small ring: wrap markers and credit waits happen
	w.scratch = w.f.Node(2).RegisterRegion(64)
	return w
}

func (w *filterWorld) logf(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf("%d ", w.s.Now())+fmt.Sprintf(format, args...))
}

// noise posts n scratch writes from node 3, one every gap.
func (w *filterWorld) noise(n int, gap sim.Duration) {
	qp := w.f.Connect(3, 2)
	w.s.Spawn("noise", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := qp.PostWrite(p, w.scratch.Addr(0), []byte{byte(i)}); err != nil {
				w.logf("noise: %v", err)
				return
			}
			p.Sleep(gap)
		}
	})
}

// send posts n datagrams from node 1 at irregular intervals.
func (w *filterWorld) send(n int) {
	w.s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Duration(700+i%7*450) * sim.Nanosecond)
			if err := w.tr.Send(p, 1, 2, []byte(fmt.Sprintf("datagram-%02d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxx"[:i%24]))); err != nil {
				w.logf("send %d: %v", i, err)
				return
			}
		}
		w.logf("sender done")
	})
}

var filterCases = []struct {
	name string
	run  func(w *filterWorld, r receivers)
}{
	{"recv-amid-noise", func(w *filterWorld, r receivers) {
		w.noise(400, 150*sim.Nanosecond)
		w.send(40)
		ep := w.tr.Endpoint(2)
		w.s.Spawn("receiver", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				pl, from, err := r.recv(ep, p)
				w.logf("recv %q from %d err=%v", pl, from, err)
			}
		})
	}},
	{"recv-timeout-amid-noise", func(w *filterWorld, r receivers) {
		w.noise(400, 150*sim.Nanosecond)
		w.send(12)
		ep := w.tr.Endpoint(2)
		w.s.Spawn("receiver", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				pl, _, ok := r.recvTimeout(ep, p, 1500*sim.Nanosecond)
				w.logf("recv %q ok=%v", pl, ok)
			}
		})
	}},
	{"crash-while-parked", func(w *filterWorld, r receivers) {
		w.noise(50, 200*sim.Nanosecond)
		ep := w.tr.Endpoint(2)
		w.tr.Prewire([][2]NodeID{{1, 2}})
		w.s.Spawn("receiver", func(p *sim.Proc) {
			_, _, err := r.recv(ep, p)
			w.logf("recv err=%v", err)
		})
		w.s.Spawn("timed-receiver", func(p *sim.Proc) {
			_, _, ok := r.recvTimeout(ep, p, sim.Millisecond)
			w.logf("timed recv ok=%v", ok)
		})
		w.s.At(sim.Time(5*sim.Microsecond), w.f.Node(2).Crash)
	}},
	{"link-reset-while-parked", func(w *filterWorld, r receivers) {
		// Writes dropped under the partition leave the producer's tail
		// ahead; the heal resets both halves, and the in-flight state makes
		// the consumer see a tail behind its head.
		ep := w.tr.Endpoint(2)
		w.s.Spawn("receiver", func(p *sim.Proc) {
			for {
				pl, _, ok := r.recvTimeout(ep, p, 200*sim.Microsecond)
				w.logf("recv %q ok=%v", pl, ok)
				if !ok {
					return
				}
			}
		})
		w.s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				_ = w.tr.Send(p, 1, 2, []byte(fmt.Sprintf("before%d", i)))
			}
			p.Sleep(10 * sim.Microsecond)
			w.f.PartitionLink(1, 2)
			for i := 0; i < 5; i++ {
				_ = w.tr.Send(p, 1, 2, []byte(fmt.Sprintf("lost%d", i)))
			}
			w.f.HealLink(1, 2)
			for i := 0; i < 3; i++ {
				_ = w.tr.Send(p, 1, 2, []byte(fmt.Sprintf("after%d", i)))
			}
		})
	}},
	{"mailbox-recv-amid-noise", func(w *filterWorld, r receivers) {
		w.noise(300, 150*sim.Nanosecond)
		mb := NewMailbox(w.f.Node(2), 256)
		wr := mb.Connect(w.f, 1)
		w.s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				p.Sleep(sim.Duration(300+i%5*400) * sim.Nanosecond)
				if err := wr.Send(p, []byte(fmt.Sprintf("record-%02d", i))); err != nil {
					w.logf("send: %v", err)
				}
			}
		})
		w.s.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				rec, err := r.mailboxRecv(mb, p)
				w.logf("recv %q err=%v", rec, err)
			}
			w.s.At(w.s.Now()+sim.Time(sim.Microsecond), w.f.Node(2).Crash)
			_, err := r.mailboxRecv(mb, p)
			w.logf("recv after crash err=%v", err)
		})
	}},
}

func TestFilteredReceiveMatchesUnfiltered(t *testing.T) {
	for _, c := range filterCases {
		t.Run(c.name, func(t *testing.T) {
			run := func(r receivers) ([]string, uint64) {
				w := newFilterWorld()
				defer w.s.Close()
				c.run(w, r)
				if err := w.s.Run(); err != nil {
					t.Fatal(err)
				}
				return w.trace, w.s.EventCount()
			}
			want, refEvents := run(unfiltered)
			got, events := run(filtered)
			if len(want) == 0 {
				t.Fatal("the reference run logged nothing")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("filtered receive diverges from the unfiltered loop\n got  %q\n want %q", got, want)
			}
			// Filtering removes switches, never events: each wake is still
			// one event in its original slot.
			if events != refEvents {
				t.Fatalf("filtered run executed %d events, unfiltered %d", events, refEvents)
			}
		})
	}
}

// The payloads Send and returnCredit frame in reused scratch must be
// copied at post time: a second Send may not rewrite a record still in
// flight, and padding may not leak an earlier, longer record.
func TestMailboxScratchReuse(t *testing.T) {
	s := sim.NewScheduler()
	defer s.Close()
	f := NewFabric(s, DefaultConfig())
	f.AddNode(1)
	f.AddNode(2)
	mb := NewMailbox(f.Node(2), 1<<10)
	wr := mb.Connect(f, 1)
	payloads := [][]byte{[]byte("a-long-first-record-0123456789"), []byte("b"), []byte("ccc"), {}}
	var got [][]byte
	s.Spawn("producer", func(p *sim.Proc) {
		for _, pl := range payloads { // back to back: all in flight together
			if err := wr.Send(p, pl); err != nil {
				t.Error(err)
			}
		}
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		// Everything has landed; nothing is drained yet, which would zero it.
		p.Sleep(20 * sim.Microsecond)
		// The padding after the short record "b" (bytes 5..12 of its span,
		// before its stamp) must be zero, not the long record framed before
		// it.
		off := mailboxHdr + recordSpan(len(payloads[0]))
		if pad := regionBytes(mb.reg, off+4+1, recordSpan(1)-8-1); string(pad) != string(make([]byte, 7)) {
			t.Errorf("padding carries stale bytes: %q", pad)
		}
		for range payloads {
			rec, err := mb.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, bytes.Clone(rec)) // valid until the next receive
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("received %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if string(got[i]) != string(payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}
