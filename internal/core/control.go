package core

import (
	"encoding/binary"

	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/wire"
)

// ctlHandlerCPU is the CPU charged per control message (address query
// service, reply bookkeeping).
const ctlHandlerCPU = 200 * sim.Nanosecond

// stEntry is a decoded state-transfer memory entry.
type stEntry struct {
	reqTmp uint64
	status uint64
	rid    uint64
	auxLen uint64
}

// readStEntry decodes the entry for rank q from local memory.
func (r *Replica) readStEntry(q int) stEntry {
	return decodeStEntry(r.stMem.Bytes()[q*stEntrySize : (q+1)*stEntrySize])
}

// decodeStEntry parses a state-transfer memory entry.
func decodeStEntry(buf []byte) stEntry {
	return stEntry{
		reqTmp: binary.LittleEndian.Uint64(buf[0:8]),
		status: binary.LittleEndian.Uint64(buf[8:16]),
		rid:    binary.LittleEndian.Uint64(buf[16:24]),
		auxLen: binary.LittleEndian.Uint64(buf[24:32]),
	}
}

// encodeStEntry serializes a state-transfer memory entry.
func encodeStEntry(e stEntry) []byte {
	buf := make([]byte, stEntrySize)
	binary.LittleEndian.PutUint64(buf[0:8], e.reqTmp)
	binary.LittleEndian.PutUint64(buf[8:16], e.status)
	binary.LittleEndian.PutUint64(buf[16:24], e.rid)
	binary.LittleEndian.PutUint64(buf[24:32], e.auxLen)
	return buf
}

// stWatch tracks an observed state-transfer request from a peer.
type stWatch struct {
	reqTmp    uint64
	firstSeen sim.Time
	claimSeen sim.Time
	done      bool
}

// runControl is the replica's control process. It serves object-address
// queries (the executor can be blocked in coordination, so a dedicated
// process answers, as the prototype's messaging thread does), records
// address replies for the local executor, and watches the state-transfer
// memory to play the responder role of Algorithm 3.
func (r *Replica) runControl(p *sim.Proc) {
	ep := r.tr.Endpoint(r.node.ID())
	watches := make(map[int]*stWatch)
	// busy is the loop's wake filter: false exactly when an iteration
	// would find nothing — no ring to drain, no parked reply, no
	// state-transfer request to watch or serve.
	busy := func() bool {
		return r.node.Crashed() || ep.Pending() || len(r.gatedQ) > 0 || len(watches) > 0 || r.stActive()
	}
	for !r.node.Crashed() {
		for {
			msg, from, ok := ep.TryRecv()
			if !ok {
				break
			}
			p.Sleep(ctlHandlerCPU)
			r.handleControl(p, msg, from)
		}
		r.flushGatedReplies(p)
		next := r.checkStateTransfers(p, watches)
		if len(r.gatedQ) > 0 && p.Now() < r.leaseExpire && r.leaseExpire < next {
			// A parked reply whose gate opens on lease expiry is a pure
			// time condition — nothing broadcasts at that instant — so wake
			// exactly then.
			next = r.leaseExpire
		}
		wait := sim.Duration(next - p.Now())
		if wait <= 0 || wait > ctlPoll {
			wait = ctlPoll
		}
		if ep.Pending() || r.gatedReady(p.Now()) {
			// gatedReady: a holder frontier publish (WriteNotify broadcast)
			// that landed during this iteration would be lost by the wait
			// below — re-flush now instead of stranding the reply until the
			// poll timeout.
			continue
		}
		if wait < ctlPoll {
			// A deadline of this loop's own (a watch, a lease expiry).
			r.node.WriteNotify().WaitTimeout(p, wait)
			continue
		}
		// Every remote WRITE into the node broadcasts WriteNotify, and
		// nearly all of them are coordination words the executor waits on,
		// not this loop. While busy() is false an iteration does nothing
		// and waits ctlPoll again, which is exactly what WaitQuiet does
		// without switching here.
		r.node.WriteNotify().WaitQuiet(p, ctlPoll, busy)
	}
}

// ctlPoll bounds how long the control loop sleeps without looking.
const ctlPoll = 200 * sim.Microsecond

// stActive reports whether any peer's state-transfer entry is in use.
func (r *Replica) stActive() bool {
	for q := range r.peers[r.part] {
		if q != r.rank && r.readStEntry(q).status != stIdle {
			return true
		}
	}
	return false
}

// handleControl dispatches one control datagram.
func (r *Replica) handleControl(p *sim.Proc, datagram []byte, from rdma.NodeID) {
	kind, rd, err := ctlKind(datagram)
	if err != nil {
		return
	}
	switch kind {
	case ctlAddrQuery:
		n := int(rd.U16())
		if rd.Err() != nil || rd.Remaining() < 8*n {
			return // truncated: drop it whole, answering nothing
		}
		w := wire.AppendTo(r.ctlReply[:0])
		w.U8(ctlAddrReply)
		w.U16(uint16(n))
		for i := 0; i < n; i++ {
			e := addrEntry{oid: rd.U64()}
			if addr, slotLen, ok := r.st.Addr(storeOID(e.oid)); ok {
				e.found = true
				e.key = uint32(addr.Key)
				e.off = uint64(addr.Off)
				e.slotLen = uint32(slotLen)
			}
			appendAddrEntry(&w, e)
		}
		r.ctlReply = w.Finish()
		_ = r.tr.Send(p, r.node.ID(), from, r.ctlReply)
	case ctlLeaseRead:
		m := decodeLeaseRead(&rd)
		if rd.Err() != nil {
			return
		}
		r.serveLeaseRead(p, from, m)
	case ctlAddrReply:
		n := int(rd.U16())
		if rd.Err() != nil || rd.Remaining() < addrEntryLen*n {
			return // truncated: drop it whole, applying nothing
		}
		for i := 0; i < n; i++ {
			e := decodeAddrEntry(&rd)
			oid := storeOID(e.oid)
			key := objMapKey{oid: oid, node: from}
			if e.found {
				r.objMap[key] = objMapEntry{
					addr:    rdma.Addr{Node: from, Key: rdma.RKey(e.key), Off: int(e.off)},
					slotLen: int(e.slotLen),
				}
			} else {
				r.objMap[key] = objMapEntry{missing: true}
			}
			if _, asked := r.addrAsked[oid]; asked && r.hasAddrQuorum(oid, r.parter.PartitionOf(oid)) {
				delete(r.addrAsked, oid)
			}
		}
		r.queryCond.Broadcast()
	}
}

// checkStateTransfers scans the state-transfer memory for active requests
// and performs the responder role when it is this replica's turn. It
// returns the earliest future deadline the control loop must wake for.
func (r *Replica) checkStateTransfers(p *sim.Proc, watches map[int]*stWatch) sim.Time {
	now := p.Now()
	next := now + sim.Time(200*sim.Microsecond)
	if r.recovering {
		// A rejoined replica's store is stale until its own full state
		// transfer completes: it must not serve anyone else's request.
		return next
	}
	n := len(r.peers[r.part])
	for q := 0; q < n; q++ {
		if q == r.rank {
			continue
		}
		ent := r.readStEntry(q)
		if ent.status == stIdle {
			delete(watches, q)
			continue
		}
		w := watches[q]
		if w == nil || w.reqTmp != ent.reqTmp {
			w = &stWatch{reqTmp: ent.reqTmp, firstSeen: now}
			watches[q] = w
		}
		if w.done {
			continue
		}
		if ent.status == stClaimed {
			// Another responder claimed the request. Take over only if
			// the claim goes stale (the claimer likely failed).
			if w.claimSeen == 0 {
				w.claimSeen = now
			}
			idx := ((r.rank - q - 1) + n) % n
			staleAt := w.claimSeen + sim.Time(idx+1)*2*sim.Time(stateTransferTimeout)
			if now < staleAt {
				if staleAt < next {
					next = staleAt
				}
				continue
			}
			// Claim is stale: fall through and respond ourselves.
		}
		// A responder can only cover the lagger once its own execution has
		// passed the failed request; until then, defer (another replica
		// takes over after the timeout if we stay behind).
		if ent.reqTmp != 0 && uint64(r.lastExec) < ent.reqTmp {
			if now+sim.Time(50*sim.Microsecond) < next {
				next = now + sim.Time(50*sim.Microsecond)
			}
			continue
		}
		// Deterministic responder order: ranks q+1, q+2, ... (mod n).
		idx := ((r.rank - q - 1) + n) % n
		deadline := w.firstSeen + sim.Time(idx)*sim.Time(stateTransferTimeout)
		if now < deadline {
			if deadline < next {
				next = deadline
			}
			continue
		}
		onTime := idx == 0 && ent.status == stRequested && now < w.firstSeen+sim.Time(stateTransferTimeout)
		if !onTime {
			switch r.confirmStRequest(p, q, ent) {
			case stStale:
				delete(watches, q)
				continue
			case stUnconfirmed:
				if retry := p.Now() + sim.Time(stateTransferTimeout); retry < next {
					next = retry
				}
				continue
			}
		}
		w.done = true
		r.performStateTransfer(p, q, ent.reqTmp)
	}
	return next
}

// Outcomes of confirmStRequest.
const (
	stOutstanding = iota
	stStale
	stUnconfirmed
)

// confirmStRequest checks, with one READ of the lagger's own entry, that
// the request in this replica's copy of it (ent) is still outstanding
// before a backup or takeover serve. The copy can be stale: a slow link
// that drops the completion record to this replica leaves it claimed,
// and serving it streams this replica's slots into a replica that is
// live and waits for nothing — rolling it back if this replica is the
// one behind. The lagger's own entry is authoritative: when it is idle
// or carries another request, this replica adopts it and reports
// stStale. An unreachable lagger leaves the request stUnconfirmed.
func (r *Replica) confirmStRequest(p *sim.Proc, q int, ent stEntry) int {
	info := r.peers[r.part][q]
	addr := info.stAddr
	addr.Off += q * stEntrySize
	buf, err := r.qp(info.node).Read(p, addr, stEntrySize)
	if err != nil {
		return stUnconfirmed
	}
	own := decodeStEntry(buf)
	if own.status != stIdle && own.reqTmp == ent.reqTmp {
		return stOutstanding
	}
	// Adopt it unless a newer record landed here during the READ.
	if r.readStEntry(q) == ent {
		copy(r.stMem.Bytes()[q*stEntrySize:], encodeStEntry(own))
	}
	return stStale
}
