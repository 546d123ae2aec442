package rdma

import (
	"fmt"

	"heron/internal/obs"
	"heron/internal/sim"
)

// Asynchronous one-sided reads: posted READs and completion queues.
//
// Real one-sided designs do not issue READs one at a time — they post a
// batch of work requests and poll a completion queue, overlapping the
// fabric round trips so that k outstanding READs cost roughly
// max(latencies) plus per-verb NIC occupancy instead of sum(latencies).
// PostRead and CQ model exactly that: posting charges only the issuer's
// CPU posting overhead, NIC occupancy is accounted per verb on both NICs
// (so saturation still queues), and each operation completes — or fails —
// individually. A crashed target fails only its own completions, after the
// RC retransmission timeout, never the whole batch.

// ReadHandle identifies one posted READ. It becomes ready when the
// operation's completion is delivered to its CQ; Data/Err must only be
// inspected after Done reports true (after CQ.Poll/Wait/WaitAll returned
// the handle).
type ReadHandle struct {
	addr   Addr
	length int
	buf    []byte
	err    error
	done   bool
	seq    int // posting order within the CQ, for deterministic reporting

	// sp is the post→completion trace span (nil when tracing is off).
	sp *obs.Span
}

// Addr returns the remote address the READ targeted.
func (h *ReadHandle) Addr() Addr { return h.addr }

// Done reports whether the completion has been delivered.
func (h *ReadHandle) Done() bool { return h.done }

// Seq returns the handle's posting sequence number within its CQ.
func (h *ReadHandle) Seq() int { return h.seq }

// Data returns the snapshot of target memory as of the completion
// instant. It panics when the completion has not been delivered yet and
// returns nil for a failed operation.
func (h *ReadHandle) Data() []byte {
	if !h.done {
		panic(fmt.Sprintf("rdma: Data on incomplete READ of %v", h.addr))
	}
	return h.buf
}

// Err returns the operation's completion status: nil on success,
// ErrRemoteFailure when the target crashed before the DMA completed. It
// panics when the completion has not been delivered yet.
func (h *ReadHandle) Err() error {
	if !h.done {
		panic(fmt.Sprintf("rdma: Err on incomplete READ of %v", h.addr))
	}
	return h.err
}

// CQ is a completion queue for posted one-sided operations issued by one
// node. Completions are delivered in completion-time order (ties broken
// by posting order), which is deterministic under the virtual clock.
// A CQ is cheap; create one per batch or reuse one per issuing process —
// but do not share a CQ between processes that collect independently.
type CQ struct {
	node        *Node
	sched       *sim.Scheduler
	cond        *sim.Cond
	outstanding int
	completed   []*ReadHandle
	nextSeq     int
}

// NewCQ creates a completion queue owned by the node.
func (n *Node) NewCQ() *CQ {
	return &CQ{node: n, sched: n.fabric.sched, cond: sim.NewCond(n.fabric.sched)}
}

// Outstanding returns the number of posted operations whose completion
// has not been delivered yet.
func (cq *CQ) Outstanding() int { return cq.outstanding }

// complete delivers one completion.
func (cq *CQ) complete(h *ReadHandle, buf []byte, err error) {
	h.buf, h.err, h.done = buf, err, true
	if err != nil {
		h.sp.Arg("err", err.Error())
	}
	h.sp.End()
	cq.outstanding--
	cq.completed = append(cq.completed, h)
	cq.cond.Broadcast()
}

// Poll drains and returns the completions delivered so far, in completion
// order, without blocking. It returns nil when none are ready.
func (cq *CQ) Poll() []*ReadHandle {
	done := cq.completed
	cq.completed = nil
	return done
}

// Wait blocks until at least one completion is ready, then drains and
// returns all ready completions. With nothing outstanding and nothing
// ready it returns nil immediately (there is nothing to wait for).
func (cq *CQ) Wait(p *sim.Proc) []*ReadHandle {
	if len(cq.completed) == 0 && cq.outstanding == 0 {
		return nil
	}
	cq.cond.WaitUntil(p, func() bool { return len(cq.completed) > 0 })
	return cq.Poll()
}

// WaitAll blocks until every posted operation has completed, then drains
// and returns all completions in completion order. Failed operations are
// returned like successful ones, with their error recorded — a crashed
// target never blocks the batch beyond its own failure timeout.
func (cq *CQ) WaitAll(p *sim.Proc) []*ReadHandle {
	cq.cond.WaitUntil(p, func() bool { return cq.outstanding == 0 })
	return cq.Poll()
}

// PostRead posts a one-sided READ of length bytes at addr and returns
// immediately after charging the issuer's CPU posting overhead; the
// completion is delivered to cq. NIC occupancy is charged at posting time
// on both NICs, so overlapping READs pipeline their base latencies while
// verb-rate limits still apply. Posting to a crashed target succeeds (as
// on real hardware); the failure surfaces asynchronously on that
// completion after the RC retransmission timeout. A local crash or an
// invalid target region fails the posting itself and delivers nothing.
func (q *QP) PostRead(p *sim.Proc, cq *CQ, addr Addr, length int) (*ReadHandle, error) {
	if err := q.checkLocal(); err != nil {
		return nil, err
	}
	if cq.node != q.local {
		panic(fmt.Sprintf("rdma: PostRead on node %d with CQ of node %d", q.local.id, cq.node.id))
	}
	h := &ReadHandle{addr: addr, length: length, seq: cq.nextSeq}
	posted := q.sched.Now()
	if q.pathDown() || q.dropDrawn() {
		cq.nextSeq++
		cq.outstanding++
		if io := q.o(); io != nil {
			io.readOps.Inc()
			h.sp = io.track.BeginAsync("rdma", "post_read").
				Arg("to", int(q.remote.id)).Arg("bytes", length)
		}
		q.sched.At(posted+sim.Time(q.cfg.FailureTimeout), func() {
			cq.complete(h, nil, q.pathErr())
		})
		p.Sleep(q.cfg.PostOverhead)
		return h, nil
	}
	reg, err := q.region(addr, length)
	if err != nil {
		return nil, err
	}
	cq.nextSeq++
	cq.outstanding++
	done, wait := q.completionTime(q.cfg.ReadBase, length)
	if io := q.o(); io != nil {
		io.readOps.Inc()
		io.readBytes.Add(uint64(length))
		h.sp = io.track.BeginAsync("rdma", "post_read").
			Arg("to", int(q.remote.id)).Arg("bytes", length).Arg("nic_wait_ns", int64(wait))
	}
	q.sched.At(done, func() {
		if q.pathDown() {
			// Crash or partition raced the DMA: this operation — and only
			// this one — surfaces the RDMA exception as a late timeout.
			failAt := posted + sim.Time(q.cfg.FailureTimeout)
			if failAt < done {
				failAt = done
			}
			err := q.pathErr()
			q.sched.At(failAt, func() {
				cq.complete(h, nil, err)
			})
			return
		}
		buf := make([]byte, length)
		copy(buf, reg.mem()[addr.Off:addr.Off+length])
		cq.complete(h, buf, nil)
	})
	p.Sleep(q.cfg.PostOverhead)
	return h, nil
}
