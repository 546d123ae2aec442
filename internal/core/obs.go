package core

import (
	"fmt"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/sim"
)

// cpID maps a multicast message id to the critical-path request id.
func cpID(id multicast.MsgID) obs.ReqID {
	return obs.ReqID{Node: uint64(id.Node), Seq: id.Seq}
}

// execPhase names what the executor thread is doing, for its busy-time
// ledger (core/p<p>/r<r>/exec_ns/<phase>): waiting for a delivery, the
// per-request work around execution (dequeue, reconfiguration and lease
// interception, reply), and the three stages of Algorithm 1. The five sum
// to the thread's lifetime, so idle over the window is its spare capacity.
type execPhase int

const (
	execIdle execPhase = iota
	execDispatch
	execCoord2
	execExecute
	execCoord4
	numExecPhases
)

var execPhaseNames = [numExecPhases]string{"idle", "dispatch", "coord2", "execute", "coord4"}

// execClock charges the executor thread's virtual time to phases: each
// charge books the time since the previous one.
type execClock struct {
	last sim.Time
	ns   [numExecPhases]*obs.Counter
}

func (c *execClock) charge(ph execPhase, now sim.Time) {
	c.ns[ph].Add(uint64(now - c.last))
	c.last = now
}

// replicaObs bundles a replica's observability instruments. Every replica
// holds one; its fields stay nil until observe() runs, and every obs
// method is a no-op on a nil receiver, so instrumented call sites read
// straight-line (r.obs.executed.Inc()) and cost a pointer test when
// observability is disabled.
type replicaObs struct {
	o    *obs.Observer
	proc string // scoped-by-observer process name, e.g. "node3"

	// exec carries the synchronous request-lifecycle spans; ctl carries
	// the control process's responder-side state-transfer spans.
	exec *obs.Track
	ctl  *obs.Track

	// System-wide counters, shared by all replicas through the metrics
	// registry's name-based deduplication.
	executed       *obs.Counter
	multi          *obs.Counter
	skipped        *obs.Counter
	stateTransfers *obs.Counter
	readRetries    *obs.Counter
	postErrors     *obs.Counter
	ckptRecoveries *obs.Counter
	stFullBytes    *obs.Counter
	stDeltaBytes   *obs.Counter
	stFallbackFull *obs.Counter
	localRead      *obs.Counter
	orderedRead    *obs.Counter
	leaseGrants    *obs.Counter
	leaseRevokes   *obs.Counter
	// Address resolution: OIDs asked ahead by prefetchAddrs, OIDs asked
	// in-line by batchQueryAddrs, and the times execute still had to wait
	// for an address quorum.
	addrPrefetchOIDs *obs.Counter
	addrQueryOIDs    *obs.Counter
	addrResolveWaits *obs.Counter
	// Read-ahead: READs posted while the executor waited, and those whose
	// request did not execute with them.
	readAheadPosts   *obs.Counter
	readAheadDropped *obs.Counter

	// clock is the executor thread's busy-time ledger.
	clock execClock

	// Critical path, heat and flight instruments, resolved at wiring
	// time. cp and heat are wired at rank 0 only — one attribution
	// record per partition per request, matching the trace-collection
	// convention.
	cp     *obs.CritPath
	heat   *obs.PartitionHeat
	flight *obs.FlightRecorder
}

// observe resolves the replica's instruments against an observer.
func (r *Replica) observe(o *obs.Observer, s *sim.Scheduler) {
	if o == nil {
		return
	}
	proc := fmt.Sprintf("node%d", r.node.ID())
	r.obs = &replicaObs{
		o:              o,
		proc:           proc,
		exec:           o.Track(proc, "exec", s),
		ctl:            o.Track(proc, "ctl", s),
		executed:       o.Counter("core/executed"),
		multi:          o.Counter("core/multi_partition"),
		skipped:        o.Counter("core/skipped"),
		stateTransfers: o.Counter("core/state_transfers"),
		readRetries:    o.Counter("core/read_retries"),
		postErrors:     o.Counter("core/post_write_errors"),
		ckptRecoveries: o.Counter("core/checkpoint_recoveries"),
		stFullBytes:    o.Counter("core/st_full_bytes"),
		stDeltaBytes:   o.Counter("core/st_delta_bytes"),
		stFallbackFull: o.Counter("core/st_fallback_full"),
		localRead:      o.Counter("core/local_read"),
		orderedRead:    o.Counter("core/ordered_read"),
		leaseGrants:    o.Counter("lease/grants"),
		leaseRevokes:   o.Counter("lease/revokes"),
		flight:         o.Flight(),

		addrPrefetchOIDs: o.Counter("core/addr_prefetch_oids"),
		addrQueryOIDs:    o.Counter("core/addr_query_oids"),
		addrResolveWaits: o.Counter("core/addr_resolve_waits"),
		readAheadPosts:   o.Counter("core/read_ahead_posts"),
		readAheadDropped: o.Counter("core/read_ahead_dropped"),
	}
	for ph, name := range execPhaseNames {
		r.obs.clock.ns[ph] = o.Counter(fmt.Sprintf("core/p%d/r%d/exec_ns/%s", r.part, r.rank, name))
	}
	if r.rank == 0 {
		r.obs.cp = o.CritPath()
		r.obs.heat = o.HeatPartition(int(r.part))
	}
}

// workerTrack registers the span track for one execution worker, so
// concurrently executing requests render on separate timelines.
func (ro *replicaObs) workerTrack(idx int, clk obs.Clock) *obs.Track {
	if ro.o == nil {
		return nil
	}
	return ro.o.Track(ro.proc, fmt.Sprintf("exec-w%d", idx), clk)
}

// Observe attaches an observability layer to the whole deployment: the
// RDMA fabric, every replica, and every multicast process. Call it after
// NewDeployment and before Start. A nil observer is a no-op, leaving the
// deployment on the zero-cost disabled path.
func (d *Deployment) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	d.obsv = o
	d.Fabric.Observe(o)
	for g := range d.Replicas {
		for _, rep := range d.Replicas[g] {
			rep.observe(o, d.Sched)
		}
		for _, mc := range d.MCProcs[g] {
			mc.Observe(o)
		}
	}
}
