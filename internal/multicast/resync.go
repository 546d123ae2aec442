package multicast

import (
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Intra-view gap repair. Followers never apply or ack past a hole in the
// replication stream. Over RC one follows only an event the leader sees
// (DESIGN §23): a reset of its link to the member, or a failed Send to
// it. Either makes the leader owe the member one resync, a full state
// snapshot stamped with the stream position it covers, paid at the
// member's first ack that trails the stream. A member that stays down
// never acks, so it is sent nothing.

// owedInc marks a rank whose Send failed: no link incarnation equals it.
const owedInc = ^uint64(0)

// seeLinks starts a replication stream, which owes no member a resync.
func (pr *Process) seeLinks() {
	pr.linkInc = pr.linkInc[:0]
	for _, m := range pr.members() {
		pr.linkInc = append(pr.linkInc, pr.tr.Incarnation(pr.id, m))
	}
}

// repair runs at an ack from rank (node to) that trails the stream, and
// pays the resync the leader owes it, if any.
func (pr *Process) repair(rank int, to rdma.NodeID) {
	inc := pr.tr.Incarnation(pr.id, to)
	if inc == pr.linkInc[rank] {
		return
	}
	pr.linkInc[rank] = inc
	rec := pr.rec(encodeResync(pr.arena, &resyncMsg{repSeq: pr.repSeq, st: pr.snapshotState()}))
	pr.send(to, rec)
	pr.obsResyncs.Inc()
	pr.obsResyncBytes.Add(uint64(len(rec)))
}

// onResync installs a leader state snapshot, repairing every replication
// record lost since the follower's last contiguously applied one.
func (pr *Process) onResync(p *sim.Proc, m *resyncMsg) {
	st := m.st
	if !pr.acceptView(st.view) {
		return
	}
	pr.lastAcceptedView = st.view
	pr.leaderDeadline = p.Now() + sim.Time(pr.cfg.LeaderTimeout)
	if m.repSeq <= pr.repSeq {
		// We already hold everything the snapshot covers (the reset lost
		// nothing of the stream); just refresh our position with it.
		pr.needAck = true
		return
	}

	// Graft the snapshot around our own logBase (see install). A snapshot
	// that leaves a hole below its base (impossible per the truncation
	// invariant) or ends below ours is stale beyond use.
	if pr.install([]*viewState{st}, graft) == nil {
		return
	}
	pr.repSeq = m.repSeq
	pr.needAck = true
	pr.deliverCommitted()
}
