package core

import (
	"encoding/binary"
	"fmt"

	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Elastic reconfiguration plumbing. The reconfiguration service itself
// lives in internal/reconfig; this file provides the three pieces only the
// core can supply:
//
//   - the wire envelopes shared by clients and replicas: epoch-tagged
//     request payloads, config commands, and epoch-mismatch responses;
//   - executor interception: a config command fences the replica through
//     a ConfigHook at the command's position in the total order, and an
//     epoch-tagged request from another epoch is rejected with the
//     current configuration so the client can refresh its routing;
//   - deployment surgery: attaching replicas/partitions created at a
//     reconfiguration flip and re-exchanging peer region addresses.
//
// Every envelope is a [4-byte magic][8-byte epoch][rest] prefix. Legacy
// payloads (no magic) bypass epoch checking entirely, so static
// deployments are unaffected.

const (
	epochTagMagic  uint32 = 0xE50C0DE1
	configCmdMagic uint32 = 0xC0F16C0D
	mismatchMagic  uint32 = 0xE50C0DE2
)

func taggedPayload(magic uint32, epoch uint64, rest []byte) []byte {
	b := make([]byte, 12+len(rest))
	binary.LittleEndian.PutUint32(b[0:4], magic)
	binary.LittleEndian.PutUint64(b[4:12], epoch)
	copy(b[12:], rest)
	return b
}

func splitTagged(magic uint32, b []byte) (uint64, []byte, bool) {
	if len(b) < 12 || binary.LittleEndian.Uint32(b[0:4]) != magic {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(b[4:12]), b[12:], true
}

// WrapEpoch tags an application payload with the client's configuration
// epoch. Replicas unwrap the tag before handing the payload to the
// application.
func WrapEpoch(epoch uint64, payload []byte) []byte {
	return taggedPayload(epochTagMagic, epoch, payload)
}

// UnwrapEpoch splits an epoch-tagged payload. tagged is false for legacy
// (untagged) payloads, which bypass epoch fencing.
func UnwrapEpoch(b []byte) (epoch uint64, inner []byte, tagged bool) {
	return splitTagged(epochTagMagic, b)
}

// EncodeConfigCommand builds the totally-ordered configuration command for
// the given target epoch; body is the encoded configuration.
func EncodeConfigCommand(epoch uint64, body []byte) []byte {
	return taggedPayload(configCmdMagic, epoch, body)
}

// IsConfigCommand reports whether a delivered payload is a config command.
func IsConfigCommand(b []byte) bool {
	return len(b) >= 12 && binary.LittleEndian.Uint32(b[0:4]) == configCmdMagic
}

// EncodeEpochMismatch builds the rejection response for a stale-epoch
// request: the replica's current epoch and encoded configuration.
func EncodeEpochMismatch(epoch uint64, cfg []byte) []byte {
	return taggedPayload(mismatchMagic, epoch, cfg)
}

// DecodeEpochMismatch recognizes an epoch-mismatch response; ok is false
// for ordinary application responses.
func DecodeEpochMismatch(b []byte) (epoch uint64, cfg []byte, ok bool) {
	return splitTagged(mismatchMagic, b)
}

// ConfigHook is the reconfiguration service's fence: the executor calls it
// when a config command reaches the head of this replica's execution
// order, and blocks until the hook returns the command's outcome (which
// becomes the replica's response). While fenced, the replica's store is
// frozen — its control process stays live, so it still serves address
// queries and state transfers.
type ConfigHook interface {
	OnConfigCommand(p *sim.Proc, r *Replica, req *Request) []byte
}

// SetConfigHook installs the reconfiguration fence on this replica.
func (r *Replica) SetConfigHook(h ConfigHook) { r.confHook = h }

// Epoch returns the configuration epoch the replica currently serves.
func (r *Replica) Epoch() uint64 { return r.epoch }

// SetEpoch installs the replica's configuration epoch, routing table, and
// the encoded configuration returned on epoch mismatches. A nil parter
// keeps the current routing.
func (r *Replica) SetEpoch(epoch uint64, parter Partitioner, cfg []byte) {
	r.epoch = epoch
	if parter != nil {
		r.parter = parter
	}
	r.cfgBytes = cfg
}

// pendingConfig is a configuration installed by the reconfiguration driver
// that activates once the replica's execution reaches ts — the config
// command's position in the total order. Requests ordered before ts keep
// executing (and skipping writes) under the old routing, which is what
// keeps a laggard replaying pre-reconfiguration requests correct.
type pendingConfig struct {
	ts     multicast.Timestamp
	epoch  uint64
	parter Partitioner
	cfg    []byte
}

// InstallPendingConfig arms the epoch/routing swap at position ts. It
// covers both the fenced replicas (which activate when the fence releases)
// and laggards that skip the config command entirely after a state
// transfer lands them past it (the next delivered request activates it).
func (r *Replica) InstallPendingConfig(ts multicast.Timestamp, epoch uint64, parter Partitioner, cfg []byte) {
	r.pendingCfg = &pendingConfig{ts: ts, epoch: epoch, parter: parter, cfg: cfg}
}

// maybeActivateConfig swaps in the pending configuration once execution
// reaches its position in the total order.
func (r *Replica) maybeActivateConfig(ts multicast.Timestamp) {
	pc := r.pendingCfg
	if pc == nil || ts < pc.ts {
		return
	}
	r.SetEpoch(pc.epoch, pc.parter, pc.cfg)
	r.pendingCfg = nil
}

// SetInitialPosition fast-forwards a freshly created replica past ts:
// members of a partition created by a split start at the config command's
// position (every request before it belongs to the old layout and was
// migrated in as state, not as requests).
func (r *Replica) SetInitialPosition(ts multicast.Timestamp) {
	r.lastReq = ts
	r.lastExec = ts
}

// MarkRecovering puts the replica in recovering mode before its first
// start: the executor prologue pulls a full state transfer from a live
// peer before executing anything — the joiner bring-up path.
func (r *Replica) MarkRecovering() { r.recovering = true }

// interceptReconfig runs on every delivered request after the last_req
// update, before estimation and execution. It returns true when the
// request is consumed here: a config command (fence through the hook,
// then reply with its outcome) or a stale-epoch request (reply with an
// epoch mismatch carrying the current configuration). For epoch-matched
// requests it strips the tag so the application sees the bare payload.
func (r *Replica) interceptReconfig(p *sim.Proc, req *Request, pool *execPool) bool {
	r.maybeActivateConfig(req.Ts)
	if IsConfigCommand(req.Payload) {
		pool.drain(p)
		// A configuration change relinquishes any lease this replica holds:
		// the migration fence has already waited out the lease's absolute
		// expiry (reconfig's LeaseFencer), this just stops serving early.
		if r.leaseHolder == r.rank {
			r.leaseSelfServe = false
		}
		var out []byte
		if r.confHook != nil {
			out = r.confHook.OnConfigCommand(p, r, req)
		}
		r.maybeActivateConfig(req.Ts)
		if req.Ts > r.lastExec {
			r.lastExec = req.Ts
		}
		r.reply(p, req, out)
		return true
	}
	if IsLeaseCommand(req.Payload) {
		pool.drain(p)
		out := r.applyLeaseCommand(p, req)
		if req.Ts > r.lastExec {
			r.lastExec = req.Ts
		}
		r.reply(p, req, out)
		return true
	}
	epoch, inner, tagged := UnwrapEpoch(req.Payload)
	if !tagged {
		return false
	}
	if epoch != r.epoch {
		if r.obs.o != nil {
			r.obs.o.Counter("core/epoch_rejects").Inc()
		}
		r.reply(p, req, EncodeEpochMismatch(r.epoch, r.cfgBytes))
		return true
	}
	req.Payload = inner
	return false
}

// --- Deployment surgery -------------------------------------------------

// WirePeers re-exchanges region addresses between all replicas after the
// layout changed. Peer tables are shared slices, so every replica —
// including one blocked mid-request — observes the new layout atomically
// at the flip instant.
func (d *Deployment) WirePeers() { d.wirePeers() }

// AllocClientNode reserves a fresh client-range node id on the fabric and
// returns it (reconfiguration drivers use one for config commands and
// migration copies).
func (d *Deployment) AllocClientNode() rdma.NodeID {
	id := d.nextClient
	d.nextClient++
	d.Fabric.AddNode(id)
	return id
}

// AttachPartition appends an empty partition slot to the deployment and
// returns its id. The multicast configuration must already list the new
// group (the caller mutates Cfg.Multicast.Groups at the flip instant).
func (d *Deployment) AttachPartition() PartitionID {
	d.Replicas = append(d.Replicas, nil)
	d.MCProcs = append(d.MCProcs, nil)
	return PartitionID(len(d.Replicas) - 1)
}

// AttachReplica creates the replica at (part, rank) around an existing
// multicast process and (optionally) a pre-built store, and registers it
// with the deployment. rank must extend the partition contiguously. The
// replica is not started; the caller starts it once the flip is complete.
func (d *Deployment) AttachReplica(part PartitionID, rank int, mc *multicast.Process,
	app Application, parter Partitioner, st *store.Store, seed int64) *Replica {
	if int(part) >= len(d.Replicas) {
		panic(fmt.Sprintf("core: attach to unknown partition %d", part))
	}
	if rank != len(d.Replicas[part]) {
		panic(fmt.Sprintf("core: attach rank %d to partition %d of size %d", rank, part, len(d.Replicas[part])))
	}
	rep := newReplica(d.Cfg, d.TrCtl, mc, part, rank, app, parter, seed, st)
	d.Replicas[part] = append(d.Replicas[part], rep)
	d.MCProcs[part] = append(d.MCProcs[part], mc)
	if d.obsv != nil {
		rep.observe(d.obsv, d.Sched)
		mc.Observe(d.obsv)
	}
	return rep
}

// TruncateGroup shrinks a partition to its first n ranks after a scale-in
// (the caller has already crashed the removed tail ranks). Removing only
// tail ranks keeps every survivor's rank stable, which the coordination
// and state-transfer memory layouts rely on.
func (d *Deployment) TruncateGroup(part PartitionID, n int) {
	d.Replicas[part] = d.Replicas[part][:n]
	d.MCProcs[part] = d.MCProcs[part][:n]
}

// StartReplica spawns the executor and control processes of a replica
// attached after the deployment started.
func (d *Deployment) StartReplica(part PartitionID, rank int) {
	d.Replicas[part][rank].start(d.Sched)
}
