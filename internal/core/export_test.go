package core

import (
	"fmt"

	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Hooks for this directory's external tests (package core_test), which
// run TPCC deployments and so cannot live in package core: tpcc imports it.

// QueryTimeout is how long a replica waits on an address query before it
// resends.
const QueryTimeout = queryTimeout

// AddrAskedLen returns how many OIDs have an address query in flight.
func (r *Replica) AddrAskedLen() int { return len(r.addrAsked) }

// StopControl kills the replica's control process and leaves its node up,
// so the address queries it receives wait unanswered in its endpoint.
func (r *Replica) StopControl() { r.ctlProc.Kill() }

// StartControl starts a fresh control process after StopControl.
func (r *Replica) StartControl(s *sim.Scheduler) {
	r.ctlProc = s.Spawn(fmt.Sprintf("heron-ctl-p%d-r%d", r.part, r.rank), r.runControl)
}

// AnnouncedAhead returns the request whose phase-2 word rode this
// replica's last phase-4 post, and whether it is still queued.
func (r *Replica) AnnouncedAhead() (multicast.Timestamp, bool) {
	return r.announced, r.announced > r.lastReq
}

// CheckCoordinationRule installs the given coordination frontier — the
// newest multi-partition request executed and the newest whose phase-4
// majority was seen — and runs the check every execution starts with, for
// a request at ts.
func (r *Replica) CheckCoordinationRule(lastMulti, coord4Seen, ts multicast.Timestamp) {
	r.lastMulti, r.coord4Seen = lastMulti, coord4Seen
	r.checkCoordinated(&Request{Ts: ts})
}

// ReadAheadFor returns the request this replica reads ahead for, 0 if none.
func (r *Replica) ReadAheadFor() multicast.Timestamp { return r.ahead.req.Ts }

// ReadAheadInFlight returns the target of a READ posted ahead, for a
// request execute has not taken yet, whose completion has not landed.
func (r *Replica) ReadAheadInFlight() (rdma.NodeID, bool) {
	if r.ahead.req.Ts == 0 {
		return 0, false
	}
	for _, po := range r.ahead.posts {
		if po.h != nil && !po.h.Done() {
			return po.node, true
		}
	}
	return 0, false
}

// ArenaInUse returns the bytes ctx's arena has handed out since its last
// reset, in its newest buffer.
func ArenaInUse(ctx *ExecContext) []byte { return ctx.arena.buf }

// GatedReplies returns how many replies wait for the lease gate.
func (r *Replica) GatedReplies() int { return len(r.gatedQ) }
