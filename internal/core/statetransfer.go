package core

import (
	"fmt"
	"sort"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/store"
)

// storeOID narrows a wire u64 to a store OID.
func storeOID(v uint64) store.OID { return store.OID(v) }

// invokeStateTransfer is the execute path's way out when both versions
// of a remote object are newer than req (lines 23-25): the partition has
// moved on without this replica, which synchronizes from req.Ts on.
func (r *Replica) invokeStateTransfer(p *sim.Proc, req *Request) {
	// Async span: the lagger may invoke this from a worker process while
	// other spans are open, so it must not require strict nesting.
	sp := r.obs.exec.BeginAsync("st", "state_transfer").Arg("ts", uint64(req.Ts))
	defer sp.End()
	r.requestTransfer(p, uint64(req.Ts))
}

// requestTransfer is the lagger side of Algorithm 3 (lines 1-6): the
// replica writes a state-transfer request for reqTmp into the
// state-transfer memory of every replica in its partition, waits for a
// responder's completion record covering reqTmp, then fast-forwards
// last_req to the synchronized request id and applies any auxiliary
// state left in its staging region.
func (r *Replica) requestTransfer(p *sim.Proc, reqTmp uint64) {
	r.statStateTransfer++
	r.obs.stateTransfers.Inc()
	rec := encodeStEntry(stEntry{reqTmp: reqTmp, status: stRequested})
	r.writeStRecord(p, r.rank*stEntrySize, rec)
	// writeStRecord set our own entry's status to 1 synchronously, so
	// status 0 here can only come from a responder's completion record
	// (line 5).
	r.node.WriteNotify().WaitUntil(p, func() bool {
		e := r.readStEntry(r.rank)
		return e.status == 0 && e.rid >= reqTmp
	})
	e := r.readStEntry(r.rank)
	r.obs.flight.Record(p.Now(), obs.FltStateTransfer, uint32(r.node.ID()), reqTmp, e.rid)
	r.lastReq = multicast.Timestamp(e.rid)
	r.lastExec = multicast.Timestamp(e.rid)
	// The update log's own records and rid are separated by an
	// unrecorded gap: rebuild it from rid+1 on, so this replica never
	// serves a delta it cannot actually cover. On the execute path no
	// record lies past rid: multi-partition requests run behind the
	// pool's barrier, so every record predates req.Ts <= rid.
	r.st.Log().Reset(e.rid + 1)
	r.applyStagedAux(p, e)
}

// applyStagedAux hands the auxiliary snapshot a responder left in the
// staging region to the application, charging the modeled deserialization
// cost.
func (r *Replica) applyStagedAux(p *sim.Proc, e stEntry) {
	if e.auxLen == 0 {
		return
	}
	data := make([]byte, e.auxLen)
	copy(data, r.staging.BytesTo(int(e.auxLen)))
	p.Sleep(sim.Duration(float64(len(data)) / deserializeBytesPerNS))
	data = r.unwrapLeaseAux(data)
	syncer, ok := r.app.(AuxSyncer)
	if !ok || len(data) == 0 {
		return
	}
	syncer.ApplyAux(data)
}

// RequestStateTransferFrom synchronizes state from a peer starting at
// fromTmp — the checkpoint + delta recovery path. The replica already
// holds a consistent image covering every request with Ts <= fromTmp
// (restored from its durable checkpoint), so only the suffix
// [fromTmp, rid] must be pulled. Responders defer until their own
// execution reaches fromTmp (the request carries it as req_tmp), which
// some live replica is guaranteed to have done: the crashed replica
// itself executed fromTmp before checkpointing it, so the multicast
// delivered it group-wide. fromTmp 0 asks the responder for every
// registered slot and a full auxiliary snapshot: the full recovery path
// after a crash (Section V-E2's worst case: a whole TPCC warehouse in
// about a tenth of a second).
func (r *Replica) RequestStateTransferFrom(p *sim.Proc, fromTmp uint64) {
	var sp *obs.Span
	if fromTmp == 0 {
		sp = r.obs.exec.BeginAsync("st", "full_state_transfer")
	} else {
		sp = r.obs.exec.BeginAsync("st", "delta_state_transfer").Arg("from", fromTmp)
	}
	defer sp.End()
	r.requestTransfer(p, fromTmp)
}

// writeStRecord writes a state-transfer memory record at the given offset
// on every replica of the partition (own memory directly, peers with
// unsignaled one-sided writes).
func (r *Replica) writeStRecord(p *sim.Proc, off int, rec []byte) {
	for _, info := range r.peers[r.part] {
		if info.node == r.node.ID() {
			copy(r.stMem.Bytes()[off:off+len(rec)], rec)
			r.node.WriteNotify().Broadcast()
			continue
		}
		addr := info.stAddr
		addr.Off += off
		r.notePostError("state-transfer-record", r.qp(info.node).PostWrite(p, addr, rec))
	}
}

// stStatus values: 0 = idle/complete, 1 = requested, 2 = claimed by a
// responder (backup responders take over only if the claim goes stale).
const (
	stIdle      = 0
	stRequested = 1
	stClaimed   = 2
)

// performStateTransfer is the responder side of Algorithm 3 (lines 7-22):
// claim the request, synchronize the lagger's slots for every object
// updated in [reqTmp, rid] (all slots when reqTmp is 0), ship auxiliary
// state, and clear the request in everyone's state-transfer memory. The
// claim narrows the window in which a timed-out backup responder could
// overlap with a live one and land stale data after the first completion.
func (r *Replica) performStateTransfer(p *sim.Proc, laggerRank int, reqTmp uint64) {
	sp := r.obs.ctl.BeginAsync("st", "state_transfer_respond").
		Arg("lagger", laggerRank).Arg("req_tmp", reqTmp)
	defer sp.End()
	lagger := r.peers[r.part][laggerRank]

	// Claim the request on every replica (including the watchers).
	claim := encodeStEntry(stEntry{reqTmp: reqTmp, status: stClaimed})
	r.writeStRecord(p, laggerRank*stEntrySize, claim)

	// A delta request can only be served from the update log when the log
	// still covers the requested range; a truncated (or recovery-reset)
	// log forces the full path — correct, just more bytes.
	full := reqTmp == 0
	if !full && !r.st.Log().Covers(reqTmp) {
		full = true
		r.obs.stFallbackFull.Inc()
	}

	// rid and the aux snapshot are captured in the same virtual instant,
	// so the auxiliary state reflects exactly the requests up to rid.
	// Slot bytes may leak slightly newer versions while chunks stream
	// out; that is harmless because the lagger deterministically
	// re-executes requests after rid, overwriting them idempotently.
	rid := uint64(r.lastExec)
	auxFrom := reqTmp
	if full {
		auxFrom = 0
	}
	var aux []byte
	if syncer, ok := r.app.(AuxSyncer); ok {
		aux = syncer.SnapshotAux(auxFrom, rid)
	}
	// The lease state always rides the aux blob: a lagger fast-forwarded
	// past lease commands must still gate its replies under the current
	// lease (it installs holder/expiry but never the self-serve right).
	aux = r.wrapLeaseAux(aux)

	var oids []store.OID
	if full {
		oids = r.st.Objects()
	} else {
		oids = r.st.Log().ObjectsBetween(reqTmp, rid)
	}

	// Coalesce slot byte ranges and stream them in chunks directly into
	// the lagger's symmetric object region.
	ranges := r.slotRanges(oids)
	qp := r.qp(lagger.node)
	chunk := stateTransferChunk
	src := r.st.Region().Bytes()
	for _, rg := range ranges {
		for off := rg[0]; off < rg[1]; off += chunk {
			end := off + chunk
			if end > rg[1] {
				end = rg[1]
			}
			addr := lagger.storeAddr
			addr.Off += off
			r.notePostError("state-transfer-slots", qp.PostWrite(p, addr, src[off:end]))
		}
	}

	// Ship the auxiliary snapshot into the lagger's staging region,
	// charging the modeled serialization cost.
	if len(aux) > 0 {
		if len(aux) > r.cfg.AuxStagingCap {
			panic(fmt.Sprintf("heron: aux snapshot of %d bytes exceeds staging capacity %d", len(aux), r.cfg.AuxStagingCap))
		}
		p.Sleep(sim.Duration(float64(len(aux)) / serializeBytesPerNS))
		for off := 0; off < len(aux); off += chunk {
			end := off + chunk
			if end > len(aux) {
				end = len(aux)
			}
			addr := lagger.stageAddr
			addr.Off += off
			r.notePostError("state-transfer-aux", qp.PostWrite(p, addr, aux[off:end]))
		}
	}

	// Transfer-volume accounting: slot ranges plus aux, split by
	// delta-vs-full so recovery benchmarks can compare the two paths.
	sent := uint64(len(aux))
	for _, rg := range ranges {
		sent += uint64(rg[1] - rg[0])
	}
	if full {
		r.statFullBytesOut += sent
		r.obs.stFullBytes.Add(sent)
	} else {
		r.statDeltaBytesOut += sent
		r.obs.stDeltaBytes.Add(sent)
	}
	sp.Arg("bytes", sent).Arg("full", full)

	// Completion record (lines 16-17): rid and status 0, written to every
	// replica. The write to the lagger rides the same queue pair as the
	// data, so RC in-order delivery guarantees the data landed first.
	done := encodeStEntry(stEntry{reqTmp: reqTmp, status: stIdle, rid: rid, auxLen: uint64(len(aux))})
	r.writeStRecord(p, laggerRank*stEntrySize, done)
}

// slotRanges maps objects to their byte ranges in the region and merges
// adjacent ranges so transfers stream as few large writes as possible.
func (r *Replica) slotRanges(oids []store.OID) [][2]int {
	ranges := make([][2]int, 0, len(oids))
	for _, oid := range oids {
		addr, slotLen, ok := r.st.Addr(oid)
		if !ok {
			continue
		}
		ranges = append(ranges, [2]int{addr.Off, addr.Off + slotLen})
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	merged := ranges[:0]
	for _, rg := range ranges {
		if n := len(merged); n > 0 && rg[0] <= merged[n-1][1] {
			if rg[1] > merged[n-1][1] {
				merged[n-1][1] = rg[1]
			}
			continue
		}
		merged = append(merged, rg)
	}
	return merged
}
