package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Partition read leases over virtual time (Hermes-style local reads).
//
// A lease names one holder rank per partition and an absolute virtual-time
// expiry. While the lease is live, the holder serves single-object reads
// locally from its dual-versioned store (at its own execution frontier) —
// no multicast round. Linearizability is preserved by gating: every
// replica of a leased partition defers its reply to an ordered request
// until the holder's execution frontier has passed the request, or the
// lease has expired on the shared virtual clock. Non-holders watch the
// holder's published frontier; the holder gates on its own lastExec,
// which matters under parallel execution where a request can finish
// while an older one is still in flight. Since clients complete an
// operation on the FIRST response per partition, this guarantees that
// every completed operation is in the holder's executed prefix before
// its completion — so a later local read at the holder's frontier
// observes it.
//
// Grants, renewals, and revocations are lease commands in the total order
// (multicast to the partition like any request) carrying a monotonic
// sequence number and the absolute expiry stamped by the grantor. Every
// replica applies them at the command's position in its execution order,
// which makes the lease state a deterministic function of the executed
// prefix: a replica acking an operation ordered after a grant has
// necessarily applied that grant first, so its gating decision always uses
// lease state at least as new as the operation.
//
// Crash safety: only the replica that itself EXECUTES a grant naming it
// may self-serve (leaseSelfServe). The flag is cleared on rejoin and is
// never set by state transfer — a recovered ex-holder whose store was
// rewound below its pre-crash published frontier therefore never serves
// reads that could miss gated-acked operations. Expiry needs no clock-skew
// margin: all replicas share the simulation's virtual clock, so "now >=
// expire" is decided identically everywhere.

// leaseCmdMagic tags lease commands in the total order; the 8-byte field
// of the tagged envelope carries the lease sequence number.
const leaseCmdMagic uint32 = 0x1EA5EC0D

// Lease command kinds, exported for the lease manager (internal/lease).
const (
	LeaseGrant  uint8 = 1 // grant or renew: holder + absolute expiry
	LeaseRevoke uint8 = 2 // holder relinquishes when it executes this
)

// EncodeLeaseCommand builds a totally-ordered lease command. For grants
// (and renewals) holder is the lease-holder rank and expire the absolute
// virtual-time expiry stamped by the grantor; revocations ignore both.
// The rank travels as two bytes, bounding it at 65535 — far above any
// partition's replica count.
func EncodeLeaseCommand(seq uint64, kind uint8, holder int, expire sim.Time) []byte {
	body := make([]byte, 11)
	body[0] = kind
	binary.LittleEndian.PutUint16(body[1:3], uint16(holder))
	binary.LittleEndian.PutUint64(body[3:11], uint64(expire))
	return taggedPayload(leaseCmdMagic, seq, body)
}

// IsLeaseCommand reports whether a delivered payload is a lease command.
func IsLeaseCommand(b []byte) bool {
	return len(b) >= 12 && binary.LittleEndian.Uint32(b[0:4]) == leaseCmdMagic
}

// DecodeLeaseCommand splits a lease command.
func DecodeLeaseCommand(b []byte) (seq uint64, kind uint8, holder int, expire sim.Time, ok bool) {
	seq, body, ok := splitTagged(leaseCmdMagic, b)
	if !ok || len(body) < 11 {
		return 0, 0, 0, 0, false
	}
	return seq, body[0], int(binary.LittleEndian.Uint16(body[1:3])), sim.Time(binary.LittleEndian.Uint64(body[3:11])), true
}

// applyLeaseCommand installs a lease command at its position in the
// execution order. Stale sequence numbers (reordered grant vs. revoke from
// concurrent submitters) are ignored; lease state only moves forward.
func (r *Replica) applyLeaseCommand(p *sim.Proc, req *Request) []byte {
	seq, kind, holder, expire, ok := DecodeLeaseCommand(req.Payload)
	if !ok || seq <= r.leaseSeq {
		return []byte{1}
	}
	r.leaseSeq = seq
	switch kind {
	case LeaseGrant:
		r.leaseHolder = holder
		r.leaseExpire = expire
		if holder == r.rank && !r.recovering {
			// Only the replica that executes a grant naming it may serve:
			// its store provably reflects every request up to this grant.
			r.leaseSelfServe = true
			r.publishLeaseProgress(p, uint64(req.Ts))
		} else if holder != r.rank {
			r.leaseSelfServe = false
		}
		if r.rank == 0 {
			r.obs.leaseGrants.Inc()
		}
	case LeaseRevoke:
		// The holder relinquishes at its own execution of the revoke; the
		// other replicas keep gating until the absolute expiry passes (a
		// laggard holder may not have executed this yet).
		if r.leaseHolder == r.rank {
			r.leaseSelfServe = false
		}
		if r.rank == 0 {
			r.obs.leaseRevokes.Inc()
		}
	}
	return []byte{1}
}

// publishLeaseProgress writes this replica's execution frontier into the
// lease memory of every partition member (own entry directly, peers with
// unsignaled one-sided writes) — the holder's invalidation signal that
// releases gated replies at the other replicas.
func (r *Replica) publishLeaseProgress(p *sim.Proc, frontier uint64) {
	off := r.rank * 8
	for _, info := range r.peers[r.part] {
		if info.node == r.node.ID() {
			binary.LittleEndian.PutUint64(r.leaseMem.Bytes()[off:off+8], frontier)
			r.node.WriteNotify().Broadcast()
			continue
		}
		addr := info.leaseAddr
		addr.Off += off
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], frontier)
		r.notePostError("lease-progress", r.qp(info.node).PostWrite(p, addr, buf[:]))
	}
}

// holderFrontier reads the published execution frontier of rank q.
func (r *Replica) holderFrontier(q int) uint64 {
	return binary.LittleEndian.Uint64(r.leaseMem.Bytes()[q*8 : q*8+8])
}

// leaseGateOpen decides whether a reply for a request at ts may be sent
// now: no live lease, the lease expired on the shared clock, the holder's
// published frontier already covers the request, or — on the holder
// itself — our own contiguous executed frontier covers it.
func (r *Replica) leaseGateOpen(ts multicast.Timestamp, now sim.Time) bool {
	h := r.leaseHolder
	if h < 0 {
		return true
	}
	if now >= r.leaseExpire {
		return true
	}
	if h == r.rank {
		// A self-serving holder gates its own replies on lastExec too:
		// under parallel execution a worker can finish a request while an
		// older one is still in flight, so the local-read snapshot (taken
		// at lastExec+1) may not yet cover this request — acknowledging it
		// now would let a subsequent local read miss the acknowledged
		// write. The serial path advances lastExec before replying, so
		// this gate is always open there.
		return !r.leaseSelfServe || r.lastExec >= ts
	}
	return r.holderFrontier(h) >= uint64(ts)
}

// gatedReplyEntry is one deferred reply awaiting the lease gate. It owns
// its request and response: the executing proc reuses both for its next
// request (ExecContext's lifetime rule).
type gatedReplyEntry struct {
	req  Request
	resp []byte
	at   sim.Time // when the reply was deferred (lease_wait start)
}

// gatedReply replies immediately when the lease gate is open, otherwise
// parks a copy of the request and response for the control process to
// flush — the executor never blocks on the gate. The copy is the one cost
// of the lifetime rule, paid only by a reply that parks.
func (r *Replica) gatedReply(p *sim.Proc, req *Request, resp []byte) {
	if r.leaseGateOpen(req.Ts, p.Now()) {
		r.reply(p, req, resp)
		return
	}
	r.gatedQ = append(r.gatedQ, gatedReplyEntry{req: *req, resp: bytes.Clone(resp), at: p.Now()})
	r.gatedParked++
	r.checkGatedReplies()
}

// flushGatedReplies sends every parked reply whose gate has opened
// (holder progressed, lease expired, or lease replaced), recording the
// deferral as a lease_wait critical-path interval. A reply yields inside
// Send, and an executing proc may park another reply meanwhile: the flush
// keeps those, behind the ones it kept. The replies sent are counted when
// the queue is rebuilt, so gatedQ's length and the counts agree at every
// yield.
func (r *Replica) flushGatedReplies(p *sim.Proc) {
	if len(r.gatedQ) == 0 {
		return
	}
	now := p.Now()
	orig := len(r.gatedQ)
	kept := r.gatedQ[:0]
	for _, e := range r.gatedQ[:orig] {
		if !r.leaseGateOpen(e.req.Ts, now) {
			kept = append(kept, e)
			continue
		}
		r.obs.cp.Record(cpID(e.req.ID), obs.SegLeaseWait, e.at, now)
		r.reply(p, &e.req, e.resp)
	}
	r.gatedFlushed += uint64(orig - len(kept))
	r.gatedQ = append(kept, r.gatedQ[orig:]...)
	r.checkGatedReplies()
}

// checkGatedReplies enforces the lease gate's reply accounting: every
// reply parked in gatedQ was flushed, discarded by a rejoin, or is still
// parked. A reply that leaves the queue any other way is lost — a client
// whose other replicas answered never notices — so it panics, naming the
// replica and the counts.
func (r *Replica) checkGatedReplies() {
	if r.gatedParked != r.gatedFlushed+r.gatedDiscarded+uint64(len(r.gatedQ)) {
		panic(fmt.Sprintf("heron: replica p%d/r%d: %d replies parked, %d flushed, %d discarded, %d still parked: a parked reply was lost",
			r.part, r.rank, r.gatedParked, r.gatedFlushed, r.gatedDiscarded, len(r.gatedQ)))
	}
}

// gatedReady reports whether any parked reply's gate has opened — the
// control loop's pre-sleep check, so a gate that opens between a flush
// and the next wait never strands a reply until the poll timeout.
func (r *Replica) gatedReady(now sim.Time) bool {
	for _, e := range r.gatedQ {
		if r.leaseGateOpen(e.req.Ts, now) {
			return true
		}
	}
	return false
}

// serveLeaseRead answers a client's local-read probe: only a live,
// self-serving, non-recovering holder serves, reading the newest version
// at its own execution frontier. Everyone else declines and the client
// falls back to the ordered path. The value is a view of the store, which
// the reply's encoding copies into an array on this call's stack, as
// reply's does.
func (r *Replica) serveLeaseRead(p *sim.Proc, from rdma.NodeID, m leaseReadMsg) {
	reply := leaseReadReply{token: m.token}
	if r.leaseSelfServe && r.leaseHolder == r.rank && p.Now() < r.leaseExpire && !r.recovering {
		p.Sleep(localReadCPU)
		// ViewAt observes versions strictly older than its argument, so
		// lastExec+1 reads the state after the executed prefix through
		// lastExec — inclusive of a write at exactly that timestamp.
		val, _, ok := r.st.ViewAt(storeOID(m.oid), uint64(r.lastExec)+1)
		if ok {
			reply.ok = true
			reply.val = val
			r.obs.localRead.Inc()
		} else if !r.st.Registered(storeOID(m.oid)) {
			// Absent object: a definitive (nil) answer, still linearizable.
			reply.ok = true
		}
		// A registered object with no version old enough means the dual-
		// version slot was overrun; decline and let the ordered path win.
	}
	var buf [replyBuf]byte
	_ = r.tr.Send(p, r.node.ID(), from, encodeLeaseReadReply(buf[:0], &reply))
}

// --- Lease state snapshot for state transfer ---------------------------

// leaseAuxHeader is the lease-state prefix wrapped around every state-
// transfer aux snapshot: seq, holder+1 (0 = none), expire.
const leaseAuxHeader = 24

// wrapLeaseAux prefixes an aux snapshot with the responder's lease state
// so a lagger skipping past lease commands still installs them.
func (r *Replica) wrapLeaseAux(aux []byte) []byte {
	out := make([]byte, leaseAuxHeader+len(aux))
	binary.LittleEndian.PutUint64(out[0:8], r.leaseSeq)
	binary.LittleEndian.PutUint64(out[8:16], uint64(r.leaseHolder+1))
	binary.LittleEndian.PutUint64(out[16:24], uint64(r.leaseExpire))
	copy(out[leaseAuxHeader:], aux)
	return out
}

// unwrapLeaseAux installs a transferred lease state (never self-serve: the
// lagger did not execute the grant itself) and returns the inner aux.
func (r *Replica) unwrapLeaseAux(data []byte) []byte {
	if len(data) < leaseAuxHeader {
		return data
	}
	seq := binary.LittleEndian.Uint64(data[0:8])
	if seq > r.leaseSeq {
		r.leaseSeq = seq
		r.leaseHolder = int(binary.LittleEndian.Uint64(data[8:16])) - 1
		r.leaseExpire = sim.Time(binary.LittleEndian.Uint64(data[16:24]))
		r.leaseSelfServe = false
	}
	return data[leaseAuxHeader:]
}

// LeaseSelfServe reports whether this replica may serve local reads.
func (r *Replica) LeaseSelfServe() bool { return r.leaseSelfServe }
