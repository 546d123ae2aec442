package core

import (
	"encoding/binary"
	"fmt"

	"heron/internal/multicast"
	"heron/internal/sim"
)

// Crash recovery: a crashed replica rejoins by recovering its fabric node,
// rebuilding its ordering-layer state from the live group members
// (multicast.Restore), and fast-forwarding its application state. Without
// durable checkpoints that means a full state transfer (Algorithm 3 with
// req_tmp = 0); with a RecoverySource attached, the replica first reloads
// its newest durable checkpoint locally and pulls only the delta suffix
// [snapTmp, rid] from a peer. Until the transfer completes the replica
// participates in ordering but neither executes nor serves as a
// state-transfer responder.

// RecoverySource restores a replica's durable checkpoint at the start of
// recovery. Restore reads the checkpoint from the replica's own simulated
// persistent medium (charging virtual time to p), installs the object
// versions and auxiliary state into r, and returns the covered timestamp:
// every request with Ts <= snapTmp is reflected in the restored state.
// ok=false (or snapTmp 0) means no usable checkpoint exists and recovery
// falls back to a full state transfer. internal/persist implements this.
type RecoverySource interface {
	Restore(p *sim.Proc, r *Replica) (snapTmp uint64, ok bool)
}

// rejoin restarts a recovered replica's processes against a replacement
// multicast process. The fabric node must already be recovered and the
// multicast process restored (and started) by the deployment.
func (r *Replica) rejoin(s *sim.Scheduler, mc *multicast.Process) {
	r.mc = mc
	r.recovering = true
	// A recovered ex-holder must never serve local reads: its store is
	// about to be rewound below its pre-crash published frontier. Only a
	// freshly executed grant re-enables serving. Parked replies from the
	// pre-crash incarnation are dropped with the crash.
	r.leaseSelfServe = false
	r.gatedDiscarded += uint64(len(r.gatedQ))
	r.gatedQ = nil
	r.checkGatedReplies()
	// Address queries of the pre-crash incarnation died with its inbox, and
	// the replacement multicast process delivers into a fresh queue.
	clear(r.addrAsked)
	r.prefetchTs = 0
	// A word announced and READs posted before the crash describe the old
	// queue; the coordination rule restarts with the executor.
	r.announced, r.lastMulti, r.coord4Seen = 0, 0, 0
	r.dropReadAhead()
	r.start(s)
}

// recoverIfNeeded is the executor prologue after a rejoin: restore the
// durable checkpoint if a source is attached, synchronize the remaining
// application state from a live peer (delta when a checkpoint covered a
// prefix, full otherwise), then rebuild the coordination memory so
// multi-partition requests already past their phases are not waited on
// forever.
func (r *Replica) recoverIfNeeded(p *sim.Proc) {
	if !r.recovering {
		return
	}
	t0 := p.Now()
	sp := r.obs.exec.BeginAsync("recovery", "recovery_replay")
	from := uint64(0)
	if r.recoverySrc != nil {
		if snapTmp, ok := r.recoverySrc.Restore(p, r); ok && snapTmp > 0 {
			from = snapTmp
			r.statCkptRecoveries++
			r.obs.ckptRecoveries.Inc()
		}
	}
	// The transfer also rebuilds the update log from its rid on: the
	// pre-crash tail is separated from the transferred suffix by an
	// unrecorded gap.
	r.RequestStateTransferFrom(p, from)
	r.refreshCoordination(p)
	r.recovering = false
	r.statRecoveries++
	r.statRecoveryTime += sim.Duration(p.Now() - t0)
	sp.Arg("from", from).End()
}

// refreshCoordination rebuilds local coordination memory by reading every
// peer's own coordination slot with one-sided READs. A peer's own slot is
// authoritative for its entry (it writes it locally before posting the
// remote copies); unreachable peers are skipped — majorities cover them,
// and their entries only matter once they recover and coordinate again.
func (r *Replica) refreshCoordination(p *sim.Proc) {
	for h := range r.peers {
		for q, info := range r.peers[h] {
			if info.node == r.node.ID() {
				continue
			}
			off := r.coordOff(PartitionID(h), q)
			addr := info.coordAddr
			addr.Off += off
			buf, err := r.qp(info.node).Read(p, addr, 8)
			if err != nil {
				continue
			}
			val := binary.LittleEndian.Uint64(buf)
			local := r.coordMem.Bytes()[off : off+8]
			if val > binary.LittleEndian.Uint64(local) {
				binary.LittleEndian.PutUint64(local, val)
			}
		}
	}
	r.node.WriteNotify().Broadcast()
}

// RecoverReplica restarts the crashed replica at (part, rank): the fabric
// node recovers (reset rings), a replacement multicast
// process is rebuilt from the live group members' snapshots, and the
// replica's processes restart in recovering mode — their first act is a
// checkpoint restore + delta pull (with a persistence layer) or a full
// state transfer from a live peer. Returns an error if the replica is not
// crashed.
func (d *Deployment) RecoverReplica(part PartitionID, rank int) error {
	rep := d.Replicas[part][rank]
	if !rep.node.Crashed() {
		return fmt.Errorf("core: replica p%d/r%d is not crashed", part, rank)
	}
	rep.node.Recover()

	var states []*multicast.RecoveryState
	for q, mc := range d.MCProcs[part] {
		if q == rank || d.Replicas[part][q].node.Crashed() {
			continue
		}
		states = append(states, mc.SnapshotForRecovery())
	}
	mc := multicast.NewProcess(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, multicast.GroupID(part), rank)
	mc.Restore(states)
	if rep.recoverySrc != nil {
		// The replacement ordering process must not outrun the durable
		// gate: re-arm it before the first truncation chance.
		mc.EnableDurableGate()
	}
	if d.obsv != nil {
		mc.Observe(d.obsv)
	}
	d.MCProcs[part][rank] = mc
	mc.Start(d.Sched)
	rep.rejoin(d.Sched, mc)
	return nil
}
