package multicast

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// flushLog is a Transport whose Send only records what it was handed.
type flushLog struct {
	Transport
	sends []string // "to:payload,payload,..."
	n     int      // datagrams seen
}

func (fl *flushLog) Send(_ *sim.Proc, _, to rdma.NodeID, payloads ...[]byte) error {
	s := fmt.Sprintf("%d:", to)
	for i, pl := range payloads {
		if i > 0 {
			s += ","
		}
		s += string(pl)
	}
	fl.sends = append(fl.sends, s)
	fl.n += len(payloads)
	return nil
}

// countOnly is a Transport whose Send allocates nothing.
type countOnly struct {
	Transport
	sends, datagrams int
}

func (co *countOnly) Send(_ *sim.Proc, _, _ rdma.NodeID, payloads ...[]byte) error {
	co.sends++
	co.datagrams += len(payloads)
	return nil
}

// outboxProcess returns an unstarted process whose sends go to tr.
func outboxProcess(t *testing.T, wrap func(Transport) Transport) *Process {
	t.Helper()
	s := sim.NewScheduler()
	t.Cleanup(s.Close)
	fab := rdma.NewFabric(s, rdma.DefaultConfig())
	layout := [][]rdma.NodeID{{1, 2, 3}}
	for _, id := range layout[0] {
		fab.AddNode(id)
	}
	cfg := DefaultConfig(layout)
	return NewProcess(wrap(OverRDMA(rdma.NewTransport(fab, 1<<12))), &cfg, 0, 0)
}

// TestOutboxFIFOAcrossFlushes: a flush is one Send per destination, in
// first-use order, each carrying that destination's datagrams in the order
// they were queued; nothing is left behind for, or repeated in, the next
// flush, whose first-use order is its own.
func TestOutboxFIFOAcrossFlushes(t *testing.T) {
	fl := &flushLog{}
	pr := outboxProcess(t, func(tr Transport) Transport { fl.Transport = tr; return fl })
	queue := func(to rdma.NodeID, payload string) { pr.send(to, []byte(payload)) }

	queue(7, "a1")
	queue(8, "b1")
	queue(7, "a2")
	pr.broadcastGroup([]byte("hb")) // members 2 and 3
	queue(8, "b2")
	queue(7, "a3")
	pr.flushOutboxes(nil)
	pr.flushOutboxes(nil) // empty: sends nothing
	queue(8, "b3")
	queue(2, "c1")
	queue(8, "b4")
	pr.flushOutboxes(nil)

	want := []string{"7:a1,a2,a3", "8:b1,b2", "2:hb", "3:hb", "8:b3,b4", "2:c1"}
	if fmt.Sprint(fl.sends) != fmt.Sprint(want) {
		t.Fatalf("flushes sent %v, want %v", fl.sends, want)
	}
	if fl.n != 10 {
		t.Fatalf("%d datagrams sent, want 10", fl.n)
	}
}

// TestOutboxAllocationFree: once every destination has been used, queueing
// and flushing allocate nothing — the queues keep their capacity.
func TestOutboxAllocationFree(t *testing.T) {
	co := &countOnly{}
	pr := outboxProcess(t, func(tr Transport) Transport { co.Transport = tr; return co })
	payload := []byte("datagram")
	burst := func() {
		for i := 0; i < 4; i++ {
			pr.broadcastGroup(payload)
			pr.send(9, payload)
		}
		pr.flushOutboxes(nil)
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("%v allocs per burst, want 0", allocs)
	}
	if co.datagrams != 12*co.sends/3 || co.sends != 3*102 {
		t.Fatalf("%d sends carried %d datagrams, want 3 sends of 4 per burst", co.sends, co.datagrams)
	}
}

// TestQuorumAckedSelectsInPlace: the f-th largest follower ack, for every
// group size in use, against a sorting reference — and without allocating.
func TestQuorumAckedSelectsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 5, 7} {
		layout := [][]rdma.NodeID{make([]rdma.NodeID, n)}
		cfg := DefaultConfig(layout)
		for rank := 0; rank < n; rank++ {
			pr := &Process{cfg: &cfg, rank: rank, ackedRep: make([]uint64, n)}
			for trial := 0; trial < 200; trial++ {
				var others []uint64
				for i := range pr.ackedRep {
					pr.ackedRep[i] = uint64(rng.Intn(6)) // ties included
					if i != rank {
						others = append(others, pr.ackedRep[i])
					}
				}
				want := ^uint64(0)
				if f := (n - 1) / 2; f > 0 {
					sort.Slice(others, func(i, j int) bool { return others[i] > others[j] })
					want = others[f-1]
				}
				if got := pr.quorumAcked(); got != want {
					t.Fatalf("n=%d rank=%d acks %v: quorumAcked = %d, want %d", n, rank, pr.ackedRep, got, want)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { _ = pr.quorumAcked() }); allocs != 0 {
				t.Fatalf("n=%d: quorumAcked allocates %v times a call", n, allocs)
			}
		}
	}
}

// TestKilledProcessSendsNothing: a leader killed mid-burst — a record
// queued, the flush not reached — sends none of it.
func TestKilledProcessSendsNothing(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	leader := c.procs[0][0]
	// Two submissions land in one burst: the leader queues the first's
	// record, then pays HandlerCPU for the second with its outbox non-empty.
	client := c.addClientNode(0)
	c.s.Spawn("client", func(p *sim.Proc) {
		var recs [][]byte
		for seq := uint64(1); seq <= 2; seq++ {
			recs = append(recs, encodeClient(nil, &clientMsg{id: MsgID{Node: client, Seq: seq}, dst: []GroupID{0}, payload: []byte("m")}))
		}
		if err := c.over.Send(p, client, leader.NodeID(), recs...); err != nil {
			t.Error(err)
		}
	})
	var killedAt sim.Time
	var queued int
	var watch func()
	watch = func() {
		if len(leader.outOrder) > 0 {
			killedAt, queued = c.s.Now(), len(leader.outboxes[leader.outOrder[0]].msgs)
			leader.Crash()
			return
		}
		c.s.After(50*sim.Nanosecond, watch)
	}
	c.s.After(sim.Microsecond, watch) // after the start-up heartbeat's flush
	c.run(100 * sim.Microsecond)
	if killedAt == 0 || queued == 0 {
		t.Fatal("the leader's outbox was never caught non-empty between two handlers")
	}
	for _, d := range tp.log {
		if d.from == leader.NodeID() && (d.at >= killedAt || d.kind == kindRepCommit) {
			t.Fatalf("the killed leader sent kind %d at %d (killed at %d with %d datagrams queued)", d.kind, d.at, killedAt, queued)
		}
	}
	for r := 1; r < 3; r++ {
		if c.procs[0][r].LogLen() != 0 {
			t.Fatalf("follower %d holds a record the leader never sent", r)
		}
	}
}
