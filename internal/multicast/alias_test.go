package multicast

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// scribbler is a Transport whose endpoints spoil every datagram they
// returned, filling it with 0xAA, before they receive the next one: a
// received datagram is valid only until the next receive on its endpoint
// (rdma.Endpoint.TryRecv), and a process that kept an alias of one past
// that would read the fill. With poison set, each receive also spoils the
// pendingMsgs its process released since the last one and takes them off
// the free list for good, so a pointer kept past the release reads the
// fill instead of whichever message the struct would have served next.
// Either way it logs every proposal the processes send.
type scribbler struct {
	Transport
	spoil, poison bool
	procs         map[rdma.NodeID]*Process
	kinds         map[uint8]int // datagrams received, by kind
	sent          []sentProposal
	// committedAt is when each group's leader replicated each message's
	// log append; late counts proposals pushed for a message after that.
	committedAt map[GroupID]map[MsgID]sim.Time
	late        int
}

// sentProposal is one proposal handed to the substrate.
type sentProposal struct {
	at       sim.Time
	from, to rdma.NodeID
	msg      proposalMsg
}

func newScribbler(spoil, poison bool) *scribbler {
	return &scribbler{spoil: spoil, poison: poison, procs: make(map[rdma.NodeID]*Process),
		kinds: make(map[uint8]int), committedAt: make(map[GroupID]map[MsgID]sim.Time)}
}

func (s *scribbler) Endpoint(id rdma.NodeID) Endpoint {
	return &scribbled{Endpoint: s.Transport.Endpoint(id), s: s, id: id}
}

func (s *scribbler) Send(p *sim.Proc, from, to rdma.NodeID, payloads ...[]byte) error {
	now := s.Scheduler().Now()
	for _, pl := range payloads {
		kind, r, err := decodeKind(pl)
		if err != nil {
			continue
		}
		switch kind {
		case kindProposal:
			m := decodeProposal(&r)
			s.sent = append(s.sent, sentProposal{at: now, from: from, to: to, msg: m})
			if at, ok := s.committedAt[m.fromGroup][m.id]; ok && at < now {
				s.late++
			}
		case kindRepCommit:
			var dsts dstTable
			m := decodeRepCommit(&r, &dsts)
			g := s.procs[from].group
			if s.committedAt[g] == nil {
				s.committedAt[g] = make(map[MsgID]sim.Time)
			}
			if _, ok := s.committedAt[g][m.id]; !ok {
				s.committedAt[g][m.id] = now
			}
		}
	}
	return s.Transport.Send(p, from, to, payloads...)
}

type scribbled struct {
	Endpoint
	s    *scribbler
	id   rdma.NodeID
	last []byte
}

// before runs ahead of every receive: it spoils the datagram returned
// last and, with poison, the pendingMsgs released since.
func (e *scribbled) before() {
	if e.s.spoil {
		for i := range e.last {
			e.last[i] = 0xAA
		}
	}
	e.last = nil
	if pr := e.s.procs[e.id]; e.s.poison && pr != nil {
		for _, pend := range pr.freePend {
			*pend = pendingMsg{
				msg:     clientMsg{id: MsgID{Node: 0xAAAA, Seq: 0xAAAA}, dst: []GroupID{0xAA}},
				ownProp: 0xAAAA,
				props:   []Timestamp{0xAAAA},
				final:   0xAAAA,
			}
		}
		pr.freePend = nil
	}
}

// keep remembers a returned datagram for the next spoil.
func (e *scribbled) keep(pl []byte, from rdma.NodeID, ok bool) ([]byte, rdma.NodeID, bool) {
	if ok && len(pl) > 0 {
		e.last = pl
		e.s.kinds[pl[0]]++
	}
	return pl, from, ok
}

func (e *scribbled) TryRecv(p *sim.Proc) ([]byte, rdma.NodeID, bool) {
	e.before()
	return e.keep(e.Endpoint.TryRecv(p))
}

func (e *scribbled) RecvTimeout(p *sim.Proc, d sim.Duration) ([]byte, rdma.NodeID, bool) {
	e.before()
	return e.keep(e.Endpoint.RecvTimeout(p, d))
}

// aliasScript runs two groups of three through a window in which group
// 0's leader hears no ack (so it decides, appends and recycles messages
// whose proposals are not quorum-replicated yet), a lossy window on group
// 1's leader whose link resets lose records (resync), a crash of group 0's
// leader (view change) and
// mixed single- and two-group traffic, and returns every member's
// deliveries.
func aliasScript(t *testing.T, sc *scribbler) [][][]Delivery {
	t.Helper()
	c := newClusterOver(t, 2, 3, func(tr Transport) Transport { sc.Transport = tr; return sc })
	defer c.s.Close()
	for _, g := range c.procs {
		for _, pr := range g {
			sc.procs[pr.id] = pr
		}
	}
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
	deaf := func(frac float64) { // group 0's followers' writes to their leader
		c.fab.SetLinkDrop(2, 1, frac)
		c.fab.SetLinkDrop(3, 1, frac)
	}
	c.s.After(300*sim.Microsecond, func() { deaf(1) })
	c.s.After(700*sim.Microsecond, func() { deaf(0) })
	c.s.After(1000*sim.Microsecond, func() { setDrop(0.7) })
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
// destinations and payload at every member — and every proposal sent are
// the same whether or not every datagram is spoiled once the next receive
// starts and every released pendingMsg is spoiled before it could be
// reused; the spoiled run went through a view change, a resync, and
// proposals pushed for messages already appended. Each member's delivered
// destination lists are interned: equal lists share one array, capped at
// its length.
func TestNoAliasOfReceivedDatagrams(t *testing.T) {
	plain := newScribbler(false, false)
	want := aliasScript(t, plain)
	sc := newScribbler(true, true)
	got := aliasScript(t, sc)
	for _, kind := range []uint8{kindViewReq, kindViewState, kindResync, kindProposal, kindRepProposal} {
		if sc.kinds[kind] == 0 {
			t.Fatalf("no datagram of kind %d was received: the script does not exercise it", kind)
		}
	}
	if sc.late == 0 {
		t.Fatal("no proposal was pushed after its message was appended: the script does not recycle a pendingMsg under a live milestone")
	}
	if !reflect.DeepEqual(sc.sent, plain.sent) {
		t.Fatalf("the proposals sent differ once released pendingMsgs are spoiled (%d sent, %d without)", len(sc.sent), len(plain.sent))
	}
	delivered := 0
	for g := range want {
		for r := range want[g] {
			delivered += len(want[g][r])
			if !reflect.DeepEqual(got[g][r], want[g][r]) {
				t.Fatalf("group %d member %d delivered differently with spoiled datagrams:\n got  %v\n want %v", g, r, got[g][r], want[g][r])
			}
			interned := make(map[string]*GroupID)
			for _, d := range got[g][r] {
				key := fmt.Sprint(d.Dst)
				if first, ok := interned[key]; !ok {
					interned[key] = unsafe.SliceData(d.Dst)
				} else if first != unsafe.SliceData(d.Dst) {
					t.Fatalf("group %d member %d delivered %v in two arrays: destination lists are not interned", g, r, d.Dst)
				}
				if cap(d.Dst) != len(d.Dst) {
					t.Fatalf("group %d member %d delivered %v with capacity %d: an append would write the shared list", g, r, d.Dst, cap(d.Dst))
				}
			}
		}
	}
	if delivered == 0 {
		t.Fatal("nothing was delivered")
	}
}
