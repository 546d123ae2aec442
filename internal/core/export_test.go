package core

import (
	"fmt"

	"heron/internal/sim"
)

// Hooks for this directory's external tests (package core_test), which
// run TPCC deployments and so cannot live in package core: tpcc imports it.

// AddrAskedLen returns how many OIDs have an address query in flight.
func (r *Replica) AddrAskedLen() int { return len(r.addrAsked) }

// StopControl kills the replica's control process and leaves its node up,
// so the address queries it receives wait unanswered in its endpoint.
func (r *Replica) StopControl() { r.ctlProc.Kill() }

// StartControl starts a fresh control process after StopControl.
func (r *Replica) StartControl(s *sim.Scheduler) {
	r.ctlProc = s.Spawn(fmt.Sprintf("heron-ctl-p%d-r%d", r.part, r.rank), r.runControl)
}
