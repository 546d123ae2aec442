package multicast

import "slices"

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

// viewStates lists the snapshots' states in the caller's order.
func viewStates(states []*RecoveryState) []*viewState {
	out := make([]*viewState, len(states))
	for i, rs := range states {
		out[i] = rs.st
	}
	return out
}

// Restore installs the live members' snapshots into a replacement process
// before Start, replacing its empty log with the freshest (see install),
// and resumes it as a follower at the highest view any snapshot voted
// for. With no snapshots (no live peer) it keeps its fresh zero state.
func (pr *Process) Restore(states []*RecoveryState) {
	if len(states) == 0 {
		return
	}
	best := pr.install(viewStates(states), replace)
	pr.role = roleFollower
	pr.lastAcceptedView = best.lastAcceptedView
	for _, rs := range states {
		pr.view = max(pr.view, rs.st.view)
	}
	pr.votedView = pr.view
	pr.suspectView = pr.view

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
	clear(pr.ackedRep)
}
