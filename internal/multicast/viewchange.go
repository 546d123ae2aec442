package multicast

import (
	"slices"
	"sort"

	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// suspectNext advances leader suspicion to the next view. If this replica
// is the candidate for the suspected view it starts a candidacy,
// otherwise it waits one more leader-timeout for that view's candidate to
// show up.
func (pr *Process) suspectNext(p *sim.Proc) {
	pr.suspectView++
	if pr.suspectView <= pr.votedView {
		pr.suspectView = pr.votedView + 1
	}
	if pr.leaderRank(pr.suspectView) == pr.rank {
		pr.startCandidacy(p, pr.suspectView)
		return
	}
	pr.leaderDeadline = p.Now() + sim.Time(pr.cfg.LeaderTimeout)
}

// startCandidacy requests view v from all group members and waits for a
// quorum of view states.
func (pr *Process) startCandidacy(p *sim.Proc, v uint64) {
	pr.obsViewChanges.Inc()
	pr.obsFlight.Record(p.Now(), obs.FltViewChange, uint32(pr.id), v, uint64(pr.group))
	pr.vcSpan.End() // close any earlier, failed candidacy span
	if pr.obsTrack != nil {
		pr.vcSpan = pr.obsTrack.BeginAsync("mc", "view_change").Arg("view", v)
	}
	pr.role = roleCandidate
	pr.vcView = v
	pr.votedView = v
	pr.vcStates = map[int]*viewState{pr.rank: pr.snapshotState()}
	pr.vcDeadline = p.Now() + sim.Time(pr.cfg.LeaderTimeout)
	pr.broadcastGroup(pr.rec(encodeViewReq(pr.arena, &viewReq{view: v})))
	pr.maybeAdopt(p) // n=1 groups win immediately
}

// snapshotState captures this replica's protocol state for view change.
// Each pending's proposals are copied: the pendingMsg goes back to the
// free list once its message commits, and the snapshot may outlive that.
func (pr *Process) snapshotState() *viewState {
	st := &viewState{
		view:             pr.votedView,
		lastAcceptedView: pr.lastAcceptedView,
		lc:               pr.lc,
		commitIdx:        pr.commitIdx,
		logBase:          pr.logBase,
		log:              pr.log,
	}
	for _, pend := range pr.pending {
		st.pending = append(st.pending, pendingState{
			msg:     pend.msg,
			ownProp: pend.ownProp,
			props:   slices.Clone(pend.props),
		})
	}
	// Buffered-but-unordered client messages ride along as pendings with
	// no proposal, so a new leader learns about them even if the client's
	// write to it was lost.
	for _, m := range pr.unproposed {
		st.pending = append(st.pending, pendingState{msg: m})
	}
	// Sort by message ID: both source loops range over maps, and the slice
	// order decides the union order in adopt (and hence re-proposal
	// timestamps), so it must not inherit randomized map iteration.
	sort.Slice(st.pending, func(i, j int) bool {
		return lessMsgID(st.pending[i].msg.id, st.pending[j].msg.id)
	})
	return st
}

// onViewReq votes for a candidate's view and ships it our state.
func (pr *Process) onViewReq(p *sim.Proc, m *viewReq, from rdma.NodeID) {
	if m.view < pr.votedView {
		return
	}
	if m.view > pr.votedView || pr.role != roleCandidate {
		pr.votedView = m.view
		pr.suspectView = m.view
		pr.role = roleFollower
		pr.milestones.reset()
		// Give the candidate room before suspecting this view too.
		pr.leaderDeadline = p.Now() + 2*sim.Time(pr.cfg.LeaderTimeout)
	}
	pr.send(from, pr.rec(encodeViewState(pr.arena, pr.snapshotState())))
}

// onViewState collects a member's state during candidacy.
func (pr *Process) onViewState(p *sim.Proc, m *viewState, from rdma.NodeID) {
	if pr.role != roleCandidate || m.view != pr.vcView {
		return
	}
	rank := pr.rankOf(from)
	if rank < 0 {
		return
	}
	pr.vcStates[rank] = m
	pr.maybeAdopt(p)
}

// maybeAdopt becomes leader once a quorum of states (including our own)
// has been collected.
func (pr *Process) maybeAdopt(p *sim.Proc) {
	if pr.role != roleCandidate || len(pr.vcStates) < pr.f()+1 {
		return
	}
	pr.adopt(p)
}

// adopt installs the collected states (see install), replacing the log
// with the freshest, and resumes as leader of vcView; everything is
// re-replicated so all members converge.
func (pr *Process) adopt(p *sim.Proc) {
	pr.vcSpan.Arg("won", true).End()
	// Collect in rank order: install breaks ties on (lastAcceptedView, log
	// length) by slice order, so rank lowest-first, never randomized map
	// order, picks the adopted log.
	states := make([]*viewState, 0, len(pr.vcStates))
	for rank := 0; rank < len(pr.cfg.Groups[pr.group]); rank++ {
		if st, ok := pr.vcStates[rank]; ok {
			states = append(states, st)
		}
	}
	pr.install(states, replace)

	pr.role = roleLeader
	pr.view = pr.vcView
	pr.lastAcceptedView = pr.vcView
	pr.repSeq = 0
	clear(pr.ackedRep)
	pr.seeLinks()
	pr.milestones.reset()
	pr.vcStates = nil
	pr.repToGseq = nil
	pr.deliverCommitted()

	// Push the adopted state into the new view's replication stream so all
	// members converge (bodies inline, pendings re-proposed, buffered
	// client messages proposed fresh).
	pr.rereplicate(p)

	pr.nextHeartbeat = p.Now()
	pr.tick(p)
}
