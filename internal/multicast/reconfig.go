package multicast

import (
	"sort"

	"heron/internal/sim"
)

// Elastic reconfiguration support for the ordering layer. A group reshape
// (members added or removed) is performed by the reconfiguration driver at
// one virtual instant: it collects SnapshotForRecovery from every live
// member, mutates the shared Config.Groups in place, realigns every
// surviving member with PrepareReshape, bootstraps joiners with
// Restore+AlignView, and starts fresh groups with SeedClock. All of it
// happens without yielding, so no protocol message can interleave with a
// half-reshaped group.

// VotedView returns the highest view this member has voted for. The
// reconfiguration driver jumps a reshaped group strictly past the maximum
// voted view of its live members, so records from any pre-reshape leader
// or candidate are rejected by acceptView afterwards.
func (pr *Process) VotedView() uint64 { return pr.votedView }

// SeedClock raises the member's logical clock to at least c. Members of a
// freshly created group are seeded with the clock of the configuration
// command that created them, so every timestamp the new group proposes
// exceeds the timestamps of the requests migrated into it.
func (pr *Process) SeedClock(c uint64) {
	if c > pr.lc {
		pr.lc = c
	}
}

// AlignView aligns a joiner — a fresh process bootstrapped with Restore —
// with the view its reshaped group resumed at. Restore leaves the joiner
// at the pre-reshape view; without the jump it would reject the new
// leader's records (stale view) or, worse, vote old views back to life.
func (pr *Process) AlignView(v uint64) {
	pr.role = roleFollower
	pr.view = v
	pr.votedView = v
	pr.suspectView = v
	pr.lastAcceptedView = v
}

// PrepareReshape realigns a surviving member after the shared Config's
// group membership was mutated. states holds snapshots of ALL members
// that were live at the instant of the reshape — including members being
// removed — so any entry committed by a quorum that intersects only
// removed members, and any message buffered only on one, still reaches
// the survivors. newView is the view the reshaped group resumes at; it
// must exceed every live member's VotedView and must map (mod the new
// group size) to a surviving live rank.
//
// Unlike Restore this preserves the member's delivery progress: the
// freshest log is grafted around the member's own logBase (see install),
// so `delivered` keeps pointing at the first undelivered entry and nothing
// is handed to the application twice. The graft is always alignable
// because truncation only ever advances logBase to a point at or below
// every member's delivered index; were it not, install would leave the
// member's own state untouched.
func (pr *Process) PrepareReshape(states []*RecoveryState, newView uint64) {
	if len(states) > 0 {
		pr.install(viewStates(states), graft)
	}

	// Resume in the post-reshape view, as a follower unless newView's
	// leader. Quorum bookkeeping is per-view and per-layout, so it
	// restarts from zero at the new group size.
	pr.vcSpan.End()
	pr.AlignView(newView)
	n := pr.n()
	pr.ackedRep = make([]uint64, n)
	pr.seeLinks()
	pr.repSeq = 0
	pr.milestones.reset()
	pr.repToGseq = nil
	pr.vcStates = nil
	pr.needAck = false
	now := pr.sched.Now()
	if pr.leaderRank(newView) == pr.rank {
		pr.role = roleLeader
		// The new view's replication stream is empty: every retained entry
		// and pending must be re-replicated before quorum milestones can
		// fire again. Doing it from the event loop (not here) keeps the
		// reshape instant free of sends from a proc that isn't running.
		pr.reshapePending = true
		pr.nextHeartbeat = now
	} else {
		pr.leaderDeadline = now + 2*sim.Time(pr.cfg.LeaderTimeout)
	}
	pr.deliverCommitted()
}

// rereplicate pushes the leader's entire retained state into the current
// view's replication stream: the log (bodies inline — followers may lack
// them), then the pendings in proposal order, then everything buffered but
// never proposed. It is the common tail of adopting a view and resuming
// after a reshape; the caller is responsible for scheduling the next
// heartbeat.
func (pr *Process) rereplicate(p *sim.Proc) {
	// Re-replicate the retained log. Entries below logBase were delivered
	// by every member before truncation, so no correct member needs them.
	for i := range pr.log {
		e := &pr.log[i]
		pr.repSeq++
		rec := pr.rec(encodeRepCommit(pr.arena, &repCommit{
			view:    pr.view,
			repSeq:  pr.repSeq,
			gseq:    pr.logBase + uint64(i),
			id:      e.id,
			ts:      e.ts,
			hasBody: true,
			dst:     e.dst,
			payload: e.payload,
		}))
		pr.broadcastGroup(rec)
		pr.recordRepGseq(pr.repSeq, pr.logBase+uint64(i)+1)
	}
	pr.addMilestone(p, milestone{seq: pr.repSeq, kind: msRereplicated, upTo: pr.logBase + uint64(len(pr.log))})

	// Re-replicate pending proposals and resume their ordering. The list
	// holds copies: with f = 0 a milestone fires at once and may commit,
	// and recycle, a pending listed earlier.
	pendings := make([]pendingState, 0, len(pr.pending))
	for _, pend := range pr.pending {
		pendings = append(pendings, pendingState{msg: pend.msg, ownProp: pend.ownProp})
	}
	sort.Slice(pendings, func(i, j int) bool {
		if pendings[i].ownProp != pendings[j].ownProp {
			return pendings[i].ownProp < pendings[j].ownProp
		}
		return lessMsgID(pendings[i].msg.id, pendings[j].msg.id)
	})
	for i := range pendings {
		ps := &pendings[i]
		if pend := pr.pending[ps.msg.id]; pend != nil {
			pend.propStable = false
		}
		pr.repSeq++
		rec := pr.rec(encodeRepProposal(pr.arena, &repProposal{view: pr.view, repSeq: pr.repSeq, msg: ps.msg, prop: ps.ownProp}))
		pr.broadcastGroup(rec)
		pr.addMilestone(p, milestone{seq: pr.repSeq, kind: msProposal, id: ps.msg.id, dst: ps.msg.dst, prop: ps.ownProp})
	}

	// Propose every buffered client message that never got ordered, in
	// message-ID order so their proposal timestamps are deterministic.
	ids := make([]MsgID, 0, len(pr.unproposed))
	for id := range pr.unproposed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return lessMsgID(ids[i], ids[j]) })
	for _, id := range ids {
		if m, ok := pr.unproposed[id]; ok && !pr.isCommitted(id) && pr.pending[id] == nil {
			pr.propose(p, &m)
		}
	}
}
