package rdma

import (
	"encoding/binary"
	"fmt"
	"testing"

	"heron/internal/sim"
)

// crossFixture is a two-domain fabric: node 1 on domain 0, node 2 on
// domain 1, connected both ways, with an 8-slot region on each.
type crossFixture struct {
	doms   *sim.Domains
	fab    *Fabric
	n1, n2 *Node
	r1, r2 *Region
	q12    *QP // node1 -> node2
	q21    *QP
}

func newCrossFixture() *crossFixture {
	cfg := DefaultConfig()
	doms := sim.NewDomains(2, cfg.CrossLookahead())
	fab := NewFabric(doms.Domain(0), cfg)
	f := &crossFixture{doms: doms, fab: fab}
	f.n1 = fab.AddNodeOn(1, doms.Domain(0))
	f.n2 = fab.AddNodeOn(2, doms.Domain(1))
	f.r1 = f.n1.RegisterRegion(64)
	f.r2 = f.n2.RegisterRegion(64)
	f.q12 = fab.Connect(1, 2)
	f.q21 = fab.Connect(2, 1)
	return f
}

// TestCrossDomainVerbs drives every verb across the domain boundary and
// checks values and blocking semantics.
func TestCrossDomainVerbs(t *testing.T) {
	f := newCrossFixture()
	var got []byte
	var casOld uint64
	var posted *ReadHandle

	f.doms.Domain(0).Spawn("issuer", func(p *sim.Proc) {
		// WRITE then READ back.
		if err := f.q12.Write(p, f.r2.Addr(0), []byte("heron!!!")); err != nil {
			t.Error(err)
			return
		}
		b, err := f.q12.Read(p, f.r2.Addr(0), 8)
		if err != nil {
			t.Error(err)
			return
		}
		got = b

		// CAS on remote memory (offset 8, zeroed).
		casOld, err = f.q12.CompareAndSwap(p, f.r2.Addr(8), 0, 42)
		if err != nil {
			t.Error(err)
			return
		}

		// Unsignaled write, then a posted READ via a CQ.
		if err := f.q12.PostWrite(p, f.r2.Addr(16), []byte("postpost")); err != nil {
			t.Error(err)
			return
		}
		cq := f.n1.NewCQ()
		h, err := f.q12.PostRead(p, cq, f.r2.Addr(16), 8)
		if err != nil {
			t.Error(err)
			return
		}
		cq.WaitAll(p)
		posted = h

		// Two-sided SEND into node 2's inbox.
		if err := f.q12.Send(p, "hello-cross"); err != nil {
			t.Error(err)
		}
	})

	var inboxGot any
	f.doms.Domain(1).Spawn("receiver", func(p *sim.Proc) {
		m, ok := f.n2.Inbox().Recv(p)
		if ok {
			inboxGot = m.Payload
		}
	})

	if err := f.doms.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if string(got) != "heron!!!" {
		t.Fatalf("read back %q", got)
	}
	if casOld != 0 {
		t.Fatalf("CAS old = %d, want 0", casOld)
	}
	if v := binary.LittleEndian.Uint64(f.r2.mem()[8:16]); v != 42 {
		t.Fatalf("CAS did not land: remote word = %d", v)
	}
	if posted == nil || !posted.Done() || posted.Err() != nil || string(posted.Data()) != "postpost" {
		t.Fatalf("posted read: %+v", posted)
	}
	if inboxGot != "hello-cross" {
		t.Fatalf("inbox got %v", inboxGot)
	}
}

// TestCrossDomainMailbox runs the ring-buffer transport across the
// boundary in both directions.
func TestCrossDomainMailbox(t *testing.T) {
	f := newCrossFixture()
	tr := NewTransport(f.fab, 1<<12)
	tr.Prewire([][2]NodeID{{1, 2}, {2, 1}})

	const n = 20
	var recvd []string
	f.doms.Domain(0).Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := tr.Send(p, 1, 2, []byte(fmt.Sprintf("msg%d", i))); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(sim.Microsecond)
		}
	})
	f.doms.Domain(1).Spawn("drain", func(p *sim.Proc) {
		ep := tr.Endpoint(2)
		for len(recvd) < n {
			pl, from, err := ep.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			if from != 1 {
				t.Errorf("from = %d", from)
				return
			}
			recvd = append(recvd, string(pl))
		}
	})
	if err := f.doms.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(recvd) != n || recvd[0] != "msg0" || recvd[n-1] != fmt.Sprintf("msg%d", n-1) {
		t.Fatalf("received %v", recvd)
	}
}

// TestCrossDomainDeterministic: the same cross-domain verb mix lands at
// identical virtual times across runs.
func TestCrossDomainDeterministic(t *testing.T) {
	run := func() string {
		f := newCrossFixture()
		// One trace per domain: each is written only by its own domain's
		// thread during the parallel run.
		var traces [2][]string
		f.doms.Domain(0).Spawn("a", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				if _, err := f.q12.Read(p, f.r2.Addr(0), 8); err != nil {
					t.Error(err)
					return
				}
				traces[0] = append(traces[0], fmt.Sprintf("read@%d", p.Now()))
				if err := f.q12.PostWrite(p, f.r2.Addr(0), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		})
		f.doms.Domain(1).Spawn("b", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				if err := f.q21.Write(p, f.r1.Addr(0), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				traces[1] = append(traces[1], fmt.Sprintf("write@%d", p.Now()))
			}
		})
		if err := f.doms.RunUntil(sim.Time(sim.Second)); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(traces)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("cross-domain traces diverged:\n%s\n%s", a, b)
	}
}
