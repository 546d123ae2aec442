package multicast

import (
	"slices"
	"sort"
)

// Crash recovery for the ordering layer. A crashed member loses its
// volatile protocol state (log, clock, pendings); a replacement process
// rebuilds it from the live members before it starts — the control-plane
// analogue of Heron's data-plane state transfer. Gathering from ALL live
// members (a superset of any quorum) and picking the freshest state by
// the view-change ordering guarantees no quorum-acknowledged entry is
// lost: any entry the old leader committed is in the log of at least one
// live quorum member, hence in the freshest snapshot.
//
// The recovered member always restarts as a follower, even if it led its
// group before crashing: the live members either still follow a live
// leader (whose records will confirm the view) or are electing a new one
// (whose view request the recovered member votes on like anyone else).

// RecoveryState is an opaque snapshot of one live member's protocol
// state, taken by SnapshotForRecovery and consumed by Restore.
type RecoveryState struct {
	st *viewState
}

// SnapshotForRecovery captures this member's protocol state for rebuilding
// a crashed peer. The snapshot is a deep copy: the live member keeps
// mutating its log and pendings afterwards.
func (pr *Process) SnapshotForRecovery() *RecoveryState {
	return &RecoveryState{st: pr.snapshotState().clone()}
}

// clone deep-copies a view state so it can outlive the process it was
// snapshotted from. Entry payloads and destination slices are shared:
// they are immutable once appended (destination lists are interned).
func (st *viewState) clone() *viewState {
	c := *st
	c.log = append([]logEntry(nil), st.log...)
	c.pending = make([]pendingState, len(st.pending))
	for i, ps := range st.pending {
		ps.props = slices.Clone(ps.props)
		c.pending[i] = ps
	}
	return &c
}

// pendingFrom takes a pendingMsg for a snapshot's pending message, with
// the proposals the snapshot holds.
func (pr *Process) pendingFrom(ps *pendingState) *pendingMsg {
	pend := pr.newPending(ps.msg, ps.ownProp)
	copy(pend.props, ps.props)
	return pend
}

// Restore installs the freshest of the live members' snapshots into a
// replacement process, before Start. Selection follows the view-change
// rule (highest lastAcceptedView, then longest log); pendings are unioned
// across all snapshots so a later election finds every buffered message.
// With no snapshots (no live peer) the process keeps its fresh zero state.
func (pr *Process) Restore(states []*RecoveryState) {
	if len(states) == 0 {
		return
	}
	sorted := make([]*viewState, 0, len(states))
	for _, rs := range states {
		sorted = append(sorted, rs.st)
	}
	// Stable sort: ties on (lastAcceptedView, log length) fall back to the
	// caller's (deterministic, rank-ordered) slice order.
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].lastAcceptedView != sorted[j].lastAcceptedView {
			return sorted[i].lastAcceptedView > sorted[j].lastAcceptedView
		}
		return sorted[i].logBase+uint64(len(sorted[i].log)) > sorted[j].logBase+uint64(len(sorted[j].log))
	})
	best := sorted[0]

	pr.role = roleFollower
	pr.view = best.view
	pr.votedView = best.view
	pr.suspectView = best.view
	pr.lastAcceptedView = best.lastAcceptedView
	pr.lc = best.lc
	pr.log = best.log
	pr.logBase = best.logBase
	pr.commitIdx = best.commitIdx
	pr.committed = make(map[MsgID]bool, len(pr.log))
	for i := range pr.log {
		pr.committed[pr.log[i].id] = true
	}
	pr.dropAllPending()
	pr.unproposed = make(map[MsgID]clientMsg)
	for _, st := range sorted {
		if st.view > pr.votedView {
			pr.view = st.view
			pr.votedView = st.view
			pr.suspectView = st.view
		}
		if st.commitIdx > pr.commitIdx && st.commitIdx <= pr.logBase+uint64(len(pr.log)) {
			pr.commitIdx = st.commitIdx
		}
		if st.lc > pr.lc {
			pr.lc = st.lc
		}
		for i := range st.pending {
			ps := &st.pending[i]
			if pr.committed[ps.msg.id] || pr.pending[ps.msg.id] != nil {
				continue
			}
			if ps.ownProp == 0 {
				if _, queued := pr.unproposed[ps.msg.id]; !queued {
					pr.unproposed[ps.msg.id] = ps.msg
				}
				continue
			}
			pr.pending[ps.msg.id] = pr.pendingFrom(ps)
		}
	}

	// Replay the whole retained log into the out channel: the hosting
	// replica fast-forwards past whatever a state transfer covers (its
	// last_req skip makes replay idempotent), and the responder's execution
	// point is not knowable here — skipping to commitIdx could silently drop
	// entries the responder had committed but not yet executed. Entries
	// below logBase were delivered by every member before truncation, so a
	// full state transfer always covers them.
	pr.delivered = pr.logBase
	pr.lastDeliveredTs = 0
	pr.repSeq = 0
	for i := range pr.ackedRep {
		pr.ackedRep[i] = 0
	}
}
