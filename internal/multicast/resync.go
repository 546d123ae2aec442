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
// replication stream for longer than ResyncInterval is shipped a full
// state snapshot (the same viewState the view-change path exchanges),
// stamped with the stream position it covers. One delivered snapshot
// repairs any number of lost records, so under a lossy link repair
// simply retries until a snapshot gets through.

// resyncInterval returns how long a follower's ack may trail before the
// leader re-replicates by snapshot.
func (pr *Process) resyncInterval() sim.Duration {
	if pr.cfg.ResyncInterval > 0 {
		return pr.cfg.ResyncInterval
	}
	return 400 * sim.Microsecond
}

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
		if now-pr.lagSince[rank] < sim.Time(pr.resyncInterval()) {
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

	// Graft the snapshot log onto ours. The snapshot may start above our
	// logBase (the leader truncated further than we have); entries below
	// its base were acked by every member, so our prefix already holds
	// them and delivery progress is preserved.
	switch {
	case st.logBase >= pr.logBase:
		n := st.logBase - pr.logBase
		if n > uint64(len(pr.log)) {
			return // hole below the snapshot; impossible per the truncation invariant
		}
		pr.log = append(pr.log[:n], st.log...)
	default:
		skip := pr.logBase - st.logBase
		if skip > uint64(len(st.log)) {
			return // snapshot ends below our base; stale beyond use
		}
		pr.log = append(pr.log[:0], st.log[skip:]...)
	}
	if st.commitIdx > pr.commitIdx {
		pr.commitIdx = st.commitIdx
	}
	if max := pr.logBase + uint64(len(pr.log)); pr.commitIdx > max {
		pr.commitIdx = max
	}
	if st.lc > pr.lc {
		pr.lc = st.lc
	}
	pr.committed = make(map[MsgID]bool, len(pr.log))
	for i := range pr.log {
		pr.committed[pr.log[i].id] = true
	}
	pr.dropAllPending()
	for i := range st.pending {
		ps := &st.pending[i]
		if pr.committed[ps.msg.id] {
			continue
		}
		if ps.ownProp == 0 {
			// A client message the leader has buffered but not proposed
			// yet; remember it in case we become leader.
			if _, ok := pr.unproposed[ps.msg.id]; !ok {
				pr.unproposed[ps.msg.id] = ps.msg
			}
			continue
		}
		pend := pr.pendingFrom(ps)
		pr.mergeRemoteProps(pend)
		pr.pending[ps.msg.id] = pend
		delete(pr.unproposed, ps.msg.id)
	}
	for id := range pr.unproposed {
		if pr.committed[id] {
			delete(pr.unproposed, id)
		}
	}
	pr.repSeq = m.repSeq
	pr.needAck = true
	pr.deliverCommitted()
}
