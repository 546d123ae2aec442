package multicast

import (
	"cmp"
	"fmt"
	"slices"
)

// placement says how install lays the freshest log into the process.
type placement uint8

const (
	// replace takes the freshest log with its base: a fresh process
	// (Restore) has no log to keep, a new leader (adopt) takes the winner's.
	replace placement = iota + 1
	// graft lays it around the process's own logBase, keeping its prefix
	// and so its delivery progress (PrepareReshape, onResync). Entries
	// below a higher snapshot base were acknowledged by every member.
	graft
)

// install takes over the ordering state a process is handed — live
// members' snapshots (Restore, PrepareReshape), a quorum's view states
// (adopt), its leader's snapshot (onResync) — by the one rule below, and
// returns the freshest state. Callers keep only their own heads and
// tails: view and role, quorum bookkeeping, delivery progress and
// re-replication.
//
// The freshest state, by (lastAcceptedView, log length) with ties to the
// earlier state in the caller's order, supplies the log: a quorum that
// acknowledged an entry intersects every quorum of states, so the entry
// is in it. Pendings are unioned freshest-first so a message buffered on
// any one member is not lost; the commit index and clock only rise.
//
// A graft whose snapshot leaves a hole above the process's log, or ends
// below its base, cannot be placed: install then changes nothing and
// returns nil. states is sorted in place.
func (pr *Process) install(states []*viewState, mode placement) *viewState {
	slices.SortStableFunc(states, func(a, b *viewState) int {
		if c := cmp.Compare(b.lastAcceptedView, a.lastAcceptedView); c != 0 {
			return c
		}
		return cmp.Compare(b.logBase+uint64(len(b.log)), a.logBase+uint64(len(a.log)))
	})
	best := states[0]
	switch {
	case mode == replace:
		pr.log, pr.logBase = best.log, best.logBase
	case best.logBase >= pr.logBase:
		n := best.logBase - pr.logBase
		if n > uint64(len(pr.log)) {
			return nil
		}
		pr.log = append(pr.log[:n], best.log...)
	default:
		skip := pr.logBase - best.logBase
		if skip > uint64(len(best.log)) {
			return nil
		}
		pr.log = append(pr.log[:0], best.log[skip:]...)
	}
	clear(pr.logIdx)
	for i := range pr.log {
		pr.logIdx[pr.log[i].id] = pr.logBase + uint64(i)
		pr.lc = max(pr.lc, pr.log[i].ts.Clock())
	}

	// A proposed pending comes from the freshest state holding it; an
	// unproposed one joins the process's own buffered messages, which are
	// proposed fresh should it lead.
	pr.dropAllPending()
	for _, st := range states {
		pr.commitIdx = max(pr.commitIdx, st.commitIdx)
		pr.lc = max(pr.lc, st.lc)
		for i := range st.pending {
			ps := &st.pending[i]
			switch _, queued := pr.unproposed[ps.msg.id]; {
			case pr.isCommitted(ps.msg.id) || pr.pending[ps.msg.id] != nil:
			case ps.ownProp != 0:
				pend := pr.newPending(ps.msg, ps.ownProp)
				copy(pend.props, ps.props)
				pr.pending[ps.msg.id] = pend
			case !queued:
				pr.unproposed[ps.msg.id] = ps.msg
			}
		}
	}
	pr.commitIdx = min(pr.commitIdx, pr.logBase+uint64(len(pr.log)))
	for id := range pr.unproposed {
		if pr.isCommitted(id) || pr.pending[id] != nil {
			delete(pr.unproposed, id)
		}
	}
	for _, pend := range pr.pending {
		pr.lc = max(pr.lc, pend.ownProp.Clock())
		pr.mergeRemoteProps(pend)
	}
	pr.checkInstalled()
	return best
}

// checkInstalled enforces what every install leaves: a message is at
// most one of committed, pending and unproposed; the commit index lies
// within the log; the clock is at or past every logged timestamp and
// every proposal of this group, so the next proposal exceeds them all.
// A violation is a protocol bug, surfaced loudly.
func (pr *Process) checkInstalled() {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("multicast: group %d rank %d after install: ", pr.group, pr.rank) + fmt.Sprintf(format, args...))
	}
	for id, pend := range pr.pending {
		if _, queued := pr.unproposed[id]; queued || pr.isCommitted(id) {
			fail("%v pending and also unproposed (%v) or committed (%v)", id, queued, pr.isCommitted(id))
		}
		if c := pend.ownProp.Clock(); c > pr.lc {
			fail("%v proposed at clock %d, past the clock %d", id, c, pr.lc)
		}
	}
	for id := range pr.unproposed {
		if pr.isCommitted(id) {
			fail("%v committed and unproposed", id)
		}
	}
	if end := pr.logBase + uint64(len(pr.log)); pr.commitIdx > end {
		fail("commit index %d past the log's end %d", pr.commitIdx, end)
	}
	for i := range pr.log {
		if c := pr.log[i].ts.Clock(); c > pr.lc {
			fail("%v logged at clock %d, past the clock %d", pr.log[i].id, c, pr.lc)
		}
	}
}
