package multicast

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// Installing handed-over state (install.go), case by case, on a member of
// an idle 3-member group: the log placed by each mode, the commit index,
// the freshest-first union of pendings and the settling of unproposed.

// instID names message seq of the test's submitting node.
func instID(seq uint64) MsgID { return MsgID{Node: 7, Seq: seq} }

// instLog returns entries for messages base..base+n-1, each logged at
// the clock one past its index.
func instLog(base, n uint64) []logEntry {
	var log []logEntry
	for i := base; i < base+n; i++ {
		log = append(log, logEntry{id: instID(i), ts: MakeTimestamp(i+1, 0), dst: []GroupID{0}})
	}
	return log
}

// instState is a snapshot with the log base..base+n-1 and the pendings.
func instState(lastAccepted, base, n, commitIdx uint64, pending ...pendingState) *viewState {
	return &viewState{
		view: lastAccepted, lastAcceptedView: lastAccepted, lc: base + n,
		commitIdx: commitIdx, logBase: base, log: instLog(base, n), pending: pending,
	}
}

// instPending is a two-group message seq with this group's proposal at
// clock, or an unproposed one at clock 0.
func instPending(seq, clock uint64) pendingState {
	ps := pendingState{msg: clientMsg{id: instID(seq), dst: []GroupID{0, 1}}, props: make([]Timestamp, 2)}
	if clock > 0 {
		ps.ownProp = MakeTimestamp(clock, 0)
	}
	return ps
}

func logSeqs(log []logEntry) []uint64 {
	var seqs []uint64
	for _, e := range log {
		seqs = append(seqs, e.id.Seq)
	}
	return seqs
}

func TestInstall(t *testing.T) {
	renamed := func(st *viewState, node rdma.NodeID) *viewState {
		for i := range st.log {
			st.log[i].id.Node = node
		}
		return st
	}
	cases := []struct {
		name string
		// The member's own state before the install.
		base, n, commitIdx uint64
		unproposed         []uint64
		pending            []pendingState
		mode               placement
		states             []*viewState
		// What it holds after; misaligned: install refused and changed
		// nothing.
		misaligned     bool
		wantBase       uint64
		wantLog        []uint64
		wantCommitIdx  uint64
		wantPending    map[uint64]uint64 // seq -> own proposal's clock
		wantUnproposed []uint64
		wantLogNode    rdma.NodeID // if set, the node every log entry came from
	}{
		{
			name: "graft onto a base above the member's",
			base: 2, n: 3, commitIdx: 3, mode: graft,
			states:   []*viewState{instState(1, 3, 4, 5)},
			wantBase: 2, wantLog: []uint64{2, 3, 4, 5, 6}, wantCommitIdx: 5,
		},
		{
			name: "graft from a base below the member's",
			base: 4, n: 1, commitIdx: 4, mode: graft,
			states:   []*viewState{instState(1, 2, 5, 6)},
			wantBase: 4, wantLog: []uint64{4, 5, 6}, wantCommitIdx: 6,
		},
		{
			name: "misaligned graft: a hole above the member's log",
			base: 0, n: 1, commitIdx: 1, mode: graft,
			unproposed: []uint64{20}, pending: []pendingState{instPending(21, 3)},
			states:     []*viewState{instState(1, 3, 2, 5, instPending(22, 9))},
			misaligned: true,
			wantBase:   0, wantLog: []uint64{0}, wantCommitIdx: 1,
			wantPending: map[uint64]uint64{21: 3}, wantUnproposed: []uint64{20},
		},
		{
			name: "misaligned graft: a snapshot ending below the member's base",
			base: 5, n: 1, commitIdx: 6, mode: graft,
			states:     []*viewState{instState(1, 1, 2, 3)},
			misaligned: true,
			wantBase:   5, wantLog: []uint64{5}, wantCommitIdx: 6,
			wantPending: map[uint64]uint64{},
		},
		{
			name: "a commit index past the adopted log's end is clamped",
			mode: replace,
			states: []*viewState{
				instState(2, 0, 2, 1),
				instState(1, 0, 1, 4),
			},
			wantBase: 0, wantLog: []uint64{0, 1}, wantCommitIdx: 2,
		},
		{
			name: "a pending held by two states takes the freshest proposal",
			mode: replace,
			states: []*viewState{
				instState(1, 0, 1, 1, instPending(10, 5)),
				instState(2, 0, 1, 1, instPending(10, 8)),
			},
			wantBase: 0, wantLog: []uint64{0}, wantCommitIdx: 1,
			wantPending: map[uint64]uint64{10: 8},
		},
		{
			name: "a tie on (lastAcceptedView, length) goes to the earlier state",
			mode: replace,
			states: []*viewState{
				renamed(instState(1, 0, 2, 2), 8),
				renamed(instState(1, 1, 1, 2), 9),
				instState(1, 0, 2, 2),
			},
			wantBase: 0, wantLog: []uint64{0, 1}, wantCommitIdx: 2, wantLogNode: 8,
		},
		{
			name: "unproposed keeps the member's own, adds the states', drops committed and pending",
			base: 0, n: 0, mode: replace, unproposed: []uint64{1, 11, 12},
			states: []*viewState{
				instState(1, 0, 2, 2, instPending(11, 4), instPending(13, 0), instPending(1, 0)),
			},
			wantBase: 0, wantLog: []uint64{0, 1}, wantCommitIdx: 2,
			wantPending: map[uint64]uint64{11: 4}, wantUnproposed: []uint64{12, 13},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2, 3)
			defer c.s.Close()
			pr := c.procs[0][1]
			pr.logBase, pr.log, pr.commitIdx = tc.base, instLog(tc.base, tc.n), tc.commitIdx
			pr.lc = tc.base + tc.n
			for _, seq := range tc.unproposed {
				pr.unproposed[instID(seq)] = clientMsg{id: instID(seq), dst: []GroupID{0}}
			}
			for _, ps := range tc.pending {
				pr.pending[ps.msg.id] = pr.newPending(ps.msg, ps.ownProp)
			}
			if best := pr.install(tc.states, tc.mode); (best == nil) != tc.misaligned {
				t.Fatalf("install returned %v, misaligned %v", best, tc.misaligned)
			}
			if pr.logBase != tc.wantBase || !slices.Equal(logSeqs(pr.log), tc.wantLog) {
				t.Fatalf("log %v at base %d, want %v at %d", logSeqs(pr.log), pr.logBase, tc.wantLog, tc.wantBase)
			}
			if pr.commitIdx != tc.wantCommitIdx {
				t.Fatalf("commit index %d, want %d", pr.commitIdx, tc.wantCommitIdx)
			}
			for _, e := range pr.log {
				if tc.wantLogNode != 0 && e.id.Node != tc.wantLogNode {
					t.Fatalf("log entry %v, want every entry from node %d", e.id, tc.wantLogNode)
				}
				if !tc.misaligned && !pr.isCommitted(e.id) {
					t.Fatalf("%v logged but not committed", e.id)
				}
			}
			if tc.wantPending != nil {
				got := make(map[uint64]uint64)
				for id, pend := range pr.pending {
					got[id.Seq] = pend.ownProp.Clock()
				}
				if !maps.Equal(got, tc.wantPending) {
					t.Fatalf("pending %v, want %v", got, tc.wantPending)
				}
			}
			var unproposed []uint64
			for id := range pr.unproposed {
				unproposed = append(unproposed, id.Seq)
			}
			slices.Sort(unproposed)
			if !slices.Equal(unproposed, tc.wantUnproposed) {
				t.Fatalf("unproposed %v, want %v", unproposed, tc.wantUnproposed)
			}
		})
	}
}

// TestAdoptDropsCommittedUnproposed: the next leader buffered a client
// message whose log record it never received, while another follower
// logged it. Adopting that follower's log commits the message, so the new
// leader must stop holding it as unproposed: left there, it would ride
// every later snapshot, and once truncation drops its entry no rebuilt
// committed set would cover it.
func TestAdoptDropsCommittedUnproposed(t *testing.T) {
	c, tp := newTappedCluster(t, 1, 3)
	defer c.s.Close()
	leader, next := c.cfg.Groups[0][0], c.cfg.Groups[0][1]
	tp.drop = func(d tapped) bool {
		return d.kind == kindAck || (d.kind == kindRepCommit && d.from == leader && d.to == next)
	}
	cl := NewClient(c.over, &c.cfg, c.addClientNode(0))
	var id MsgID
	c.s.Spawn("client", func(p *sim.Proc) { id = cl.Multicast(p, []GroupID{0}, []byte("m")) })
	c.run(20 * sim.Microsecond)
	nl := c.procs[0][1]
	if _, ok := nl.unproposed[id]; !ok || nl.LogLen() != 0 {
		t.Fatal("set-up: the next leader does not hold the message as unproposed only")
	}
	c.procs[0][0].Crash()
	tp.drop = nil
	c.run(10 * sim.Millisecond)
	if !nl.IsLeader() || !nl.isCommitted(id) {
		t.Fatal("the next leader did not adopt the follower's log")
	}
	if _, ok := nl.unproposed[id]; ok {
		t.Fatalf("%v is committed and still unproposed after adopt", id)
	}
}

// TestCheckInstalledNamesTheBrokenInvariant breaks each invariant of an
// installed state in turn — the first as a merge that keeps committed ids
// in unproposed leaves it — and expects checkInstalled to panic naming the
// member and the offending message.
func TestCheckInstalledNamesTheBrokenInvariant(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(pr *Process)
		want    string
	}{
		{"committed and unproposed", func(pr *Process) {
			pr.unproposed[instID(1)] = clientMsg{id: instID(1)}
		}, instID(1).String()},
		{"committed and pending", func(pr *Process) {
			ps := instPending(1, 2)
			pr.pending[instID(1)] = pr.newPending(ps.msg, ps.ownProp)
		}, instID(1).String()},
		{"pending and unproposed", func(pr *Process) {
			pr.unproposed[instID(10)] = clientMsg{id: instID(10)}
		}, instID(10).String()},
		{"commit index past the log", func(pr *Process) { pr.commitIdx = 3 }, "commit index 3"},
		{"clock behind the log", func(pr *Process) {
			pr.dropAllPending()
			pr.lc = 1
		}, instID(1).String()},
		{"clock behind a proposal", func(pr *Process) { pr.pending[instID(10)].ownProp = MakeTimestamp(99, 0) }, instID(10).String()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2, 3)
			defer c.s.Close()
			pr := c.procs[0][1]
			pr.install([]*viewState{instState(1, 0, 2, 2, instPending(10, 2))}, replace)
			tc.corrupt(pr)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "group 0 rank 1") || !strings.Contains(msg, tc.want) {
					t.Fatalf("checkInstalled panicked with %q, want the member and %q", msg, tc.want)
				}
			}()
			pr.checkInstalled()
		})
	}
}
