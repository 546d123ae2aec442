package multicast

import (
	"heron/internal/sim"
)

// Intra-view gap repair.
//
// Replication records (repProposal, repCommit) carry a per-view sequence
// number and followers apply them strictly in order: a record whose
// predecessor was lost on the fabric (dropped one-sided write, desynced
// ring) is ignored and never acknowledged. That keeps acks truthful —
// the leader never counts a follower toward a quorum for state it does
// not hold — but it also means a single lost record stalls the
// follower's ack stream for the rest of the view, and if enough
// followers stall, commit stalls with them while heartbeats keep
// flowing, so no view change ever repairs the gap.
//
// The leader closes the loop: a follower whose cumulative ack trails the
// replication stream for longer than resyncInterval is shipped a full
// state snapshot (the same viewState the view-change path exchanges),
// stamped with the stream position it covers. One delivered snapshot
// repairs any number of lost records, so under a lossy link repair
// simply retries until a snapshot gets through.

// resyncInterval is how long a follower's cumulative replication ack may
// trail the leader's stream before the leader re-replicates by snapshot.
const resyncInterval = 400 * sim.Microsecond

// checkResyncs runs on every leader tick: detect followers whose acks
// have stalled behind the stream and re-replicate to them by snapshot.
func (pr *Process) checkResyncs(now sim.Time) {
	for rank := range pr.ackedRep {
		if rank == pr.rank {
			continue
		}
		if pr.ackedRep[rank] >= pr.repSeq {
			pr.lagSince[rank] = 0
			continue
		}
		if pr.lagSince[rank] == 0 {
			pr.lagSince[rank] = now
			continue
		}
		if now-pr.lagSince[rank] < sim.Time(resyncInterval) {
			continue
		}
		pr.send(pr.members()[rank], pr.rec(encodeResync(pr.arena, &resyncMsg{repSeq: pr.repSeq, st: pr.snapshotState()})))
		pr.lagSince[rank] = now // wait a full interval before retrying
	}
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
		// We already hold everything the snapshot covers (the leader acted
		// on a stale ack); just refresh our position with it.
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
