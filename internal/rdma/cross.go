package rdma

// Cross-domain verbs: the conservative parallel-simulation path taken
// when a QP's two nodes live on different sim.Domains members (see
// AddNodeOn). The single-domain verb implementations in qp.go compute a
// completion instant synchronously by admitting the operation on both
// NICs and touching target memory from the issuer's event stream; across
// domains that would race with the target domain's own events. Instead,
// each verb becomes a three-beat exchange mirroring the physical fabric:
//
//  1. issue (issuer's domain): admit the issuer's NIC, then schedule an
//     arrival event into the target's domain one hop later via
//     sim.CrossAt — the hop is half the verb's base latency plus half
//     the static extra link delay, so it always satisfies the fabric's
//     CrossLookahead bound;
//  2. serve (target's domain): admit the target's NIC, then touch the
//     registered memory at the service instant — the only place remote
//     memory or the remote write-notify cond is ever accessed;
//  3. complete (issuer's domain, for blocking verbs): one hop back,
//     waking the issuing process.
//
// Fault injection is not supported across domains: the drop/jitter RNG
// is shared fabric state, and crash/partition checks read remote fields.
// Multi-domain fabrics must run fault-free (AddNodeOn documents this);
// the issue-time checks still see the static pre-run state.

import (
	"encoding/binary"

	"heron/internal/sim"
)

// crossDomain reports whether this QP spans two simulation domains.
func (q *QP) crossDomain() bool { return q.local.sched != q.remote.sched }

// hop returns the one-way cross-domain latency for a verb with the given
// base: half the base plus half the static extra link delay, matching
// Fabric.CrossLookahead's bound.
func (q *QP) hop(base sim.Duration) sim.Time {
	base += q.local.fabric.linkExtraStatic(q.local.id, q.remote.id)
	return sim.Time(base) / 2
}

// crossWait parks the issuing process until a cross-domain completion
// event fires in its domain.
type crossWait struct {
	c    *sim.Cond
	done bool
}

func newCrossWait(s *sim.Scheduler) *crossWait {
	c := sim.NewCond(s)
	c.Reason = "rdma cross-domain completion"
	return &crossWait{c: c}
}

func (cw *crossWait) complete() {
	cw.done = true
	cw.c.Broadcast()
}

func (cw *crossWait) wait(p *sim.Proc) {
	cw.c.WaitUntil(p, func() bool { return cw.done })
}

// bwTime is the payload serialization time at line rate.
func (q *QP) bwTime(size int) sim.Time {
	return sim.Time(float64(size) / q.cfg.BytesPerNS)
}

// readCross is the cross-domain Read path. The memory snapshot is taken
// at the target's service instant (in the target's domain) rather than
// at issuer completion — physically where the DMA happens.
func (q *QP) readCross(p *sim.Proc, addr Addr, length int) ([]byte, error) {
	reg, err := q.region(addr, length)
	if err != nil {
		return nil, err
	}
	local, remote := q.local.sched, q.remote.sched
	hop := q.hop(q.cfg.ReadBase)
	start := q.local.admit(local.Now(), length)
	cw := newCrossWait(local)
	buf := make([]byte, length)
	sim.CrossAt(local, remote, start+hop, func() {
		serve := q.remote.admit(remote.Now(), length)
		done := serve + q.bwTime(length)
		remote.At(done, func() {
			b := make([]byte, length)
			copy(b, reg.mem()[addr.Off:addr.Off+length])
			sim.CrossAt(remote, local, done+hop, func() {
				copy(buf, b)
				cw.complete()
			})
		})
	})
	cw.wait(p)
	return buf, nil
}

// writeCross is the cross-domain blocking Write path.
func (q *QP) writeCross(p *sim.Proc, addr Addr, data []byte) error {
	reg, err := q.region(addr, len(data))
	if err != nil {
		return err
	}
	local, remote := q.local.sched, q.remote.sched
	hop := q.hop(q.cfg.WriteBase)
	start := q.local.admit(local.Now(), len(data))
	buf := append([]byte(nil), data...)
	cw := newCrossWait(local)
	sim.CrossAt(local, remote, start+hop, func() {
		serve := q.remote.admit(remote.Now(), len(buf))
		commit := serve + q.bwTime(len(buf))
		remote.At(commit, func() {
			copy(reg.mem()[addr.Off:addr.Off+len(buf)], buf)
			q.remote.writeNotify.Broadcast()
			sim.CrossAt(remote, local, commit+hop, func() { cw.complete() })
		})
	})
	cw.wait(p)
	return nil
}

// postWritesCross is the cross-domain unsignaled write path — the
// multicast transport's hot path — with PostWrites' chain semantics: the
// issuer's NIC admits every WR in order, one arrival event (at the last
// WR's arrival) admits each on the target's NIC as of its own arrival
// instant, and the chain commits in the target's domain, in order, when
// its last WR does. The caller charges the posting overhead.
func (q *QP) postWritesCross(wrs []WR) error {
	chain, err := q.resolve(wrs)
	if err != nil || len(chain) == 0 {
		return err
	}
	local, remote := q.local.sched, q.remote.sched
	hop := q.hop(q.cfg.WriteBase)
	for i := range chain {
		chain[i].at = q.local.admit(local.Now(), len(chain[i].data)) + hop
	}
	sim.CrossAt(local, remote, chain[len(chain)-1].at, func() {
		var commit sim.Time
		for _, l := range chain {
			commit = q.remote.admit(l.at, len(l.data)) + q.bwTime(len(l.data))
		}
		remote.At(commit, func() { q.place(chain) })
	})
	return nil
}

// casCross is the cross-domain atomic compare-and-swap path. The
// compare-exchange executes atomically within the target's domain.
func (q *QP) casCross(p *sim.Proc, addr Addr, expect, swap uint64) (uint64, error) {
	reg, err := q.region(addr, 8)
	if err != nil {
		return 0, err
	}
	if addr.Off%8 != 0 {
		return 0, errMisaligned(addr)
	}
	local, remote := q.local.sched, q.remote.sched
	hop := q.hop(q.cfg.CASBase)
	start := q.local.admit(local.Now(), 8)
	cw := newCrossWait(local)
	var prev uint64
	sim.CrossAt(local, remote, start+hop, func() {
		serve := q.remote.admit(remote.Now(), 8)
		remote.At(serve, func() {
			word := reg.mem()[addr.Off : addr.Off+8]
			v := binary.LittleEndian.Uint64(word)
			if v == expect {
				binary.LittleEndian.PutUint64(word, swap)
				q.remote.writeNotify.Broadcast()
			}
			sim.CrossAt(remote, local, serve+hop, func() {
				prev = v
				cw.complete()
			})
		})
	})
	cw.wait(p)
	return prev, nil
}

// sendCross is the cross-domain two-sided SEND path.
func (q *QP) sendCross(p *sim.Proc, payload any) error {
	local, remote := q.local.sched, q.remote.sched
	hop := q.hop(q.cfg.SendBase)
	start := q.local.admit(local.Now(), 64)
	msg := Message{From: q.local.id, Payload: payload}
	sim.CrossAt(local, remote, start+hop, func() {
		serve := q.remote.admit(remote.Now(), 64)
		deliver := serve + hop
		inbox := q.remote.inbox
		remote.At(deliver, func() {
			// Deliver only into the receive queue that existed at arrival:
			// TrySend tolerates a concurrently closed inbox.
			if q.remote.inbox == inbox {
				inbox.TrySend(msg)
			}
		})
	})
	p.Sleep(q.cfg.PostOverhead)
	return nil
}

// postReadCross is the cross-domain posted-READ path; the completion is
// delivered to the issuer-domain CQ one hop after the remote snapshot.
func (q *QP) postReadCross(p *sim.Proc, cq *CQ, addr Addr, length int) (*ReadHandle, error) {
	reg, err := q.region(addr, length)
	if err != nil {
		return nil, err
	}
	h := &ReadHandle{addr: addr, length: length, seq: cq.nextSeq}
	cq.nextSeq++
	cq.outstanding++
	local, remote := q.local.sched, q.remote.sched
	hop := q.hop(q.cfg.ReadBase)
	start := q.local.admit(local.Now(), length)
	sim.CrossAt(local, remote, start+hop, func() {
		serve := q.remote.admit(remote.Now(), length)
		done := serve + q.bwTime(length)
		remote.At(done, func() {
			b := make([]byte, length)
			copy(b, reg.mem()[addr.Off:addr.Off+length])
			sim.CrossAt(remote, local, done+hop, func() {
				cq.complete(h, b, nil)
			})
		})
	})
	p.Sleep(q.cfg.PostOverhead)
	return h, nil
}
