package multicast

import (
	"fmt"
	"sort"

	"heron/internal/rdma"
	"heron/internal/sim"
)

// propose assigns this group's proposal timestamp to a client message and
// starts its ordering. Single-group messages skip the proposal round and
// are decided immediately; multi-group messages replicate the proposal to
// a quorum before it is sent to the other destination groups (so the
// promise survives leader failure). m's payload is a body the process
// keeps.
func (pr *Process) propose(p *sim.Proc, m *clientMsg) {
	pr.lc++
	prop := MakeTimestamp(pr.lc, pr.group)
	pend := pr.newPending(*m, prop)
	pr.pending[m.id] = pend
	pr.mergeRemoteProps(pend)
	delete(pr.unproposed, m.id)

	if len(m.dst) == 1 {
		// Fast path: the only proposal is ours, so the message is decided.
		pend.final = prop
		pend.propStable = true
		pr.tryCommit(p)
		return
	}

	pr.repSeq++
	rec := pr.rec(encodeRepProposal(pr.arena, &repProposal{view: pr.view, repSeq: pr.repSeq, msg: *m, prop: prop}))
	pr.broadcastGroup(rec)
	pr.addMilestone(p, milestone{seq: pr.repSeq, kind: msProposal, id: m.id, dst: m.dst, prop: prop})
}

// proposalStable runs a msProposal milestone: this group's proposal for
// m.id is quorum-replicated, so it goes out to the other destination
// groups, and the message is decided if every proposal is in. The
// message may be committed already, its pendingMsg recycled: the
// proposal still goes out, from what the milestone carries.
func (pr *Process) proposalStable(p *sim.Proc, m *milestone) {
	pend := pr.pending[m.id]
	if pend != nil {
		pend.propStable = true
		pend.lastSend = p.Now()
	}
	pr.sendProposals(m.id, m.dst, m.prop)
	if pend != nil {
		pr.tryDecide(p, pend)
	}
}

// sendProposals transmits this group's proposal prop for message id to
// every member of every other destination group in dst (members, not just
// leaders, so the proposal survives remote leader changes).
func (pr *Process) sendProposals(id MsgID, dst []GroupID, prop Timestamp) {
	rec := pr.rec(encodeProposal(pr.arena, &proposalMsg{fromGroup: pr.group, id: id, prop: prop}))
	for _, h := range dst {
		if h == pr.group {
			continue
		}
		for _, member := range pr.cfg.Groups[h] {
			pr.send(member, rec)
		}
	}
}

// retryProposals retransmits proposals for messages stuck waiting on
// other groups (heals protocol messages lost to crashes), and re-requests
// the proposals this group is still missing — the push alone cannot heal
// a proposal lost on the way here, because the remote group stops pushing
// once it has decided.
func (pr *Process) retryProposals(p *sim.Proc, now sim.Time) {
	var stuck []*pendingMsg
	for _, pend := range pr.pending {
		if pend.final != 0 || !pend.propStable || len(pend.msg.dst) == 1 {
			continue
		}
		if now-pend.lastSend >= sim.Time(pr.cfg.RetryInterval) {
			stuck = append(stuck, pend)
		}
	}
	sort.Slice(stuck, func(i, j int) bool { return lessMsgID(stuck[i].msg.id, stuck[j].msg.id) })
	for _, pend := range stuck {
		pr.sendProposals(pend.msg.id, pend.msg.dst, pend.ownProp)
		pend.lastSend = now
		pr.requestMissingProps(pend)
	}
}

// requestMissingProps asks the members of every destination group whose
// proposal for pend has not arrived to re-send it.
func (pr *Process) requestMissingProps(pend *pendingMsg) {
	pr.obsPropPulls.Inc()
	rec := pr.rec(encodePropRequest(pr.arena, &propRequest{id: pend.msg.id}))
	for i, h := range pend.msg.dst {
		if h == pr.group || pend.props[i] != 0 {
			continue
		}
		for _, member := range pr.cfg.Groups[h] {
			pr.send(member, rec)
		}
	}
}

// onPropRequest answers another group's pull for our proposal. A committed
// entry's final timestamp is a safe answer: it is the maximum over every
// destination group's proposal, so the requester's own max computation
// yields exactly it. An uncommitted proposal may only be served by the
// leader once quorum-replicated (propStable) — the same externally-visible
// bar sendProposals enforces — so the promise still survives leader
// failure. Anything else stays unanswered; the requester retries.
func (pr *Process) onPropRequest(m *propRequest, from rdma.NodeID) {
	if gseq, ok := pr.logIdx[m.id]; ok {
		pr.send(from, pr.rec(encodeProposal(pr.arena, &proposalMsg{fromGroup: pr.group, id: m.id, prop: pr.log[gseq-pr.logBase].ts})))
		return
	}
	// Truncated here: fall back to the snapshot of commit metadata
	// dropPrefix retained. A message truncated before this member's state
	// was restored has no memo and stays unanswered; another member or a
	// retry covers it.
	if ts, ok := pr.truncTs[m.id]; ok {
		pr.send(from, pr.rec(encodeProposal(pr.arena, &proposalMsg{fromGroup: pr.group, id: m.id, prop: ts})))
		return
	}
	if pr.role != roleLeader {
		return
	}
	if pend := pr.pending[m.id]; pend != nil && pend.propStable && pend.ownProp != 0 {
		pr.send(from, pr.rec(encodeProposal(pr.arena, &proposalMsg{fromGroup: pr.group, id: m.id, prop: pend.ownProp})))
	}
}

// tryDecide checks whether all destination groups have proposed for pend
// and, if so, fixes the final timestamp (the maximum proposal).
func (pr *Process) tryDecide(p *sim.Proc, pend *pendingMsg) {
	if pend.final != 0 || pend.ownProp == 0 {
		return
	}
	final := pend.ownProp
	for i, h := range pend.msg.dst {
		if h == pr.group {
			continue
		}
		ts := pend.props[i]
		if ts == 0 {
			return
		}
		if ts > final {
			final = ts
		}
	}
	pend.final = final
	if c := final.Clock(); c > pr.lc {
		pr.lc = c
	}
	pr.tryCommit(p)
}

// tryCommit appends decided messages to the group log in final-timestamp
// order. A decided message may be appended only when no undecided pending
// message could still receive a smaller final timestamp — i.e. when every
// undecided proposal in this group exceeds the candidate's final
// timestamp (a final timestamp is the max over proposals, so it can only
// grow).
func (pr *Process) tryCommit(p *sim.Proc) {
	for {
		var candidate *pendingMsg
		minUndecided := Timestamp(0)
		for _, pend := range pr.pending {
			if pend.final == 0 {
				if minUndecided == 0 || pend.ownProp < minUndecided {
					minUndecided = pend.ownProp
				}
			} else if candidate == nil || pend.final < candidate.final {
				candidate = pend
			}
		}
		if candidate == nil {
			return
		}
		if minUndecided != 0 && minUndecided < candidate.final {
			return
		}
		pr.appendEntry(p, candidate)
	}
}

// appendEntry commits one decided message: append to the log, replicate,
// and register the quorum milestone that advances the leader's commit
// index. Followers that can see the quorum themselves have committed on
// receipt (onRepCommit) and are not told; the others are. pend goes back
// to the free list.
func (pr *Process) appendEntry(p *sim.Proc, pend *pendingMsg) {
	if n := len(pr.log); n > 0 && pend.final <= pr.log[n-1].ts {
		panic(fmt.Sprintf("multicast: group %d appending ts %v after %v",
			pr.group, pend.final, pr.log[n-1].ts))
	}
	gseq := pr.logBase + uint64(len(pr.log))
	entry := logEntry{id: pend.msg.id, ts: pend.final, dst: pend.msg.dst, payload: pend.msg.payload}
	pr.log = append(pr.log, entry)
	pr.logIdx[pend.msg.id] = gseq
	delete(pr.pending, pend.msg.id)
	pr.dropRemoteProps(pend.msg.id)

	pr.repSeq++
	rec := pr.rec(encodeRepCommit(pr.arena, &repCommit{
		view:    pr.view,
		repSeq:  pr.repSeq,
		gseq:    gseq,
		id:      pend.msg.id,
		ts:      pend.final,
		hasBody: len(pend.msg.dst) == 1, // multi-group bodies rode the proposal record
		dst:     pend.msg.dst,
		payload: pend.msg.payload,
	}))
	pr.broadcastGroup(rec)
	pr.recordRepGseq(pr.repSeq, gseq+1)
	pr.releasePending(pend)
	pr.addMilestone(p, milestone{seq: pr.repSeq, kind: msCommit, upTo: gseq + 1})
}

// announceCommit tells followers that cannot see the quorum themselves how
// far the leader has committed. The others learn nothing from it; their
// commit index and truncation point ride the heartbeat.
func (pr *Process) announceCommit() {
	if pr.followerSeesQuorum() {
		return
	}
	pr.broadcastGroup(pr.rec(encodeCommitIdx(pr.arena, kindCommitIdx, &commitIdxMsg{view: pr.view, commitIdx: pr.commitIdx, truncate: pr.truncateTo})))
}

// addMilestone registers m to fire once a quorum of followers has acked
// replication records up to m.seq, firing immediately if already
// satisfied.
func (pr *Process) addMilestone(p *sim.Proc, m milestone) {
	pr.milestones.push(m)
	pr.fireMilestones(p)
}

// quorumAcked returns the highest repSeq acknowledged by at least f
// followers (which, with the leader itself, forms an f+1 quorum): the f-th
// largest of a handful of acks, selected in place — this runs on every ack
// and every milestone.
func (pr *Process) quorumAcked() uint64 {
	f := pr.f()
	if f == 0 {
		return ^uint64(0)
	}
	var best uint64
	for i, a := range pr.ackedRep {
		if i == pr.rank || a <= best {
			continue
		}
		atLeast := 0
		for j, b := range pr.ackedRep {
			if j != pr.rank && b >= a {
				atLeast++
			}
		}
		if atLeast >= f {
			best = a
		}
	}
	return best
}

// fireMilestones runs every milestone covered by the current quorum ack,
// oldest first. A milestone may register (and fire) others as it runs.
func (pr *Process) fireMilestones(p *sim.Proc) {
	q := pr.quorumAcked()
	for {
		m, ok := pr.milestones.popDue(q)
		if !ok {
			return
		}
		switch m.kind {
		case msProposal:
			pr.proposalStable(p, &m)
		case msCommit:
			if m.upTo > pr.commitIdx {
				pr.commitIdx = m.upTo
				pr.deliverCommitted()
				pr.maybeTruncate()
				pr.announceCommit()
			}
		case msRereplicated:
			if m.upTo > pr.commitIdx {
				pr.commitIdx = m.upTo
				pr.deliverCommitted()
			}
			pr.announceCommit()
		}
	}
}

// onAck records a follower's cumulative replication ack.
func (pr *Process) onAck(p *sim.Proc, m *ackMsg, from rdma.NodeID) {
	if pr.role != roleLeader || m.view != pr.view {
		return
	}
	rank := pr.rankOf(from)
	if rank < 0 {
		return
	}
	if m.repSeq > pr.ackedRep[rank] {
		pr.ackedRep[rank] = m.repSeq
		pr.fireMilestones(p)
	}
	if m.repSeq < pr.repSeq {
		pr.repair(rank, from)
	}
}
