package multicast

import (
	"fmt"
	"reflect"
	"testing"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// scribbler is a Transport whose endpoints spoil every datagram they
// returned, filling it with 0xAA, before they receive the next one: a
// received datagram is valid only until the next receive on its endpoint
// (rdma.Endpoint.TryRecv), and a process that kept an alias of one past
// that would read the fill.
type scribbler struct {
	Transport
	kinds map[uint8]int // datagrams received, by kind
}

func (s *scribbler) Endpoint(id rdma.NodeID) Endpoint {
	return &scribbled{Endpoint: s.Transport.Endpoint(id), kinds: s.kinds}
}

type scribbled struct {
	Endpoint
	kinds map[uint8]int
	last  []byte
}

// spoil fills the datagram returned last.
func (e *scribbled) spoil() {
	for i := range e.last {
		e.last[i] = 0xAA
	}
	e.last = nil
}

// keep remembers a returned datagram for the next spoil.
func (e *scribbled) keep(pl []byte, from rdma.NodeID, ok bool) ([]byte, rdma.NodeID, bool) {
	if ok && len(pl) > 0 {
		e.last = pl
		e.kinds[pl[0]]++
	}
	return pl, from, ok
}

func (e *scribbled) TryRecv(p *sim.Proc) ([]byte, rdma.NodeID, bool) {
	e.spoil()
	return e.keep(e.Endpoint.TryRecv(p))
}

func (e *scribbled) RecvTimeout(p *sim.Proc, d sim.Duration) ([]byte, rdma.NodeID, bool) {
	e.spoil()
	return e.keep(e.Endpoint.RecvTimeout(p, d))
}

// aliasScript runs two groups of three through a lossy window on group 1's
// leader (resync), a crash of group 0's leader (view change) and mixed
// single- and two-group traffic, and returns every member's deliveries.
func aliasScript(t *testing.T, wrap func(Transport) Transport) [][][]Delivery {
	t.Helper()
	c := newClusterOver(t, 2, 3, wrap)
	defer c.s.Close()
	c.fab.SetFaultSeed(42)
	lossy := rdma.NodeID(4) // group 1's initial leader
	setDrop := func(frac float64) {
		for id := rdma.NodeID(1); id <= 6; id++ {
			if id != lossy {
				c.fab.SetLinkDrop(lossy, id, frac)
				c.fab.SetLinkDrop(id, lossy, frac)
			}
		}
	}
	c.s.After(500*sim.Microsecond, func() { setDrop(0.3) })
	c.s.After(4*sim.Millisecond, func() { setDrop(0) })
	c.s.After(6*sim.Millisecond, func() { c.procs[0][0].Crash() })
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 90; i++ {
			dst := []GroupID{GroupID(i % 2)}
			if i%3 == 0 {
				dst = []GroupID{0, 1}
			}
			cl.Multicast(p, dst, []byte(fmt.Sprintf("payload-%02d", i)))
			p.Sleep(100 * sim.Microsecond)
		}
	})
	c.run(60 * sim.Millisecond)
	return c.deliveries
}

// TestNoAliasOfReceivedDatagrams: the script's deliveries — id, timestamp,
// destinations and payload at every member — are the same whether or not
// every datagram is spoiled once the next receive starts, and the spoiled
// run went through a view change and a resync.
func TestNoAliasOfReceivedDatagrams(t *testing.T) {
	want := aliasScript(t, func(tr Transport) Transport { return tr })
	sc := &scribbler{kinds: make(map[uint8]int)}
	got := aliasScript(t, func(tr Transport) Transport { sc.Transport = tr; return sc })
	for _, kind := range []uint8{kindViewReq, kindViewState, kindResync, kindProposal, kindRepProposal} {
		if sc.kinds[kind] == 0 {
			t.Fatalf("no datagram of kind %d was received: the script does not exercise it", kind)
		}
	}
	delivered := 0
	for g := range want {
		for r := range want[g] {
			delivered += len(want[g][r])
			if !reflect.DeepEqual(got[g][r], want[g][r]) {
				t.Fatalf("group %d member %d delivered differently with spoiled datagrams:\n got  %v\n want %v", g, r, got[g][r], want[g][r])
			}
		}
	}
	if delivered == 0 {
		t.Fatal("nothing was delivered")
	}
}
