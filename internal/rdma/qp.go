package rdma

import (
	"fmt"

	"heron/internal/obs"
	"heron/internal/sim"
)

// QP is a reliable-connection queue pair between two nodes. All one-sided
// verbs are issued through a QP, as with RC transport on real hardware.
// A QP is directional for clarity (local -> remote); create one per peer.
type QP struct {
	local  *Node
	remote *Node
	sched  *sim.Scheduler

	// io holds lazily resolved per-QP instruments; nil while disabled.
	io *qpObs

	// free holds the post ops whose chains have landed (or were dropped),
	// ready for the next post: a QP never holds more ops than it once had
	// in flight at the same time.
	free []*postOp

	// lastWrite is the completion instant of the latest WRITE admitted on
	// this QP: RC places a QP's WRITEs in post order, so no later WRITE
	// completes before it, whatever jitter its link draws (post).
	lastWrite sim.Time
	// retx is the landing of the latest retransmitted WR: go-back-N holds
	// every later WR, READ or WRITE, behind it (transmit).
	retx sim.Time
}

// qpObs bundles a QP's observability instruments: per-QP verb counts and
// bytes, plus fabric-wide failure counters (shared across QPs through the
// metrics registry's name-based deduplication).
type qpObs struct {
	track *obs.Track // issuing node's "nic" thread

	readOps, readBytes   *obs.Counter
	writeOps, writeBytes *obs.Counter
	doorbells            *obs.Counter // posts that carried the write_ops: verbs per doorbell
	writeDropped         *obs.Counter // fabric-wide "rdma/write_dropped": WRITEs to a crashed or partitioned target
	retransmits          *obs.Counter // fabric-wide "rdma/retransmits": transmissions a lossy link lost (transmit)
	doorbellsTotal       *obs.Counter // fabric-wide "rdma/doorbells"
	creditReads          *obs.Counter // fabric-wide "rdma/credit_reads" (see MailboxWriter.waitCredit)
}

// o resolves (once) the QP's instruments, returning nil while
// observability is disabled.
func (q *QP) o() *qpObs {
	if q.io == nil && q.local.fabric.obs != nil {
		ob := q.local.fabric.obs
		qp := fmt.Sprintf("rdma/qp/n%d->n%d/", q.local.id, q.remote.id)
		q.io = &qpObs{
			track:        q.local.o().track,
			readOps:      ob.Counter(qp + "read_ops"),
			readBytes:    ob.Counter(qp + "read_bytes"),
			writeOps:     ob.Counter(qp + "write_ops"),
			writeBytes:   ob.Counter(qp + "write_bytes"),
			doorbells:    ob.Counter(qp + "doorbells"),
			writeDropped: ob.Counter("rdma/write_dropped"),
			retransmits:  ob.Counter("rdma/retransmits"),

			doorbellsTotal: ob.Counter("rdma/doorbells"),
			creditReads:    ob.Counter("rdma/credit_reads"),
		}
	}
	return q.io
}

// Connect creates a queue pair from node a to node b. Both nodes must
// exist on the fabric; Connect panics otherwise (static wiring error).
func (f *Fabric) Connect(a, b NodeID) *QP {
	la, lb := f.nodes[a], f.nodes[b]
	if la == nil || lb == nil {
		panic(fmt.Sprintf("rdma: connect %d->%d: unknown node", a, b))
	}
	return &QP{local: la, remote: lb, sched: f.sched}
}

// Local returns the issuing node.
func (q *QP) Local() *Node { return q.local }

// region resolves an address against the remote node.
func (q *QP) region(addr Addr, length int) (*Region, error) {
	r := q.remote.regions[addr.Key]
	if r == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchRegion, addr)
	}
	if addr.Off < 0 || length < 0 || addr.Off+length > r.size {
		return nil, fmt.Errorf("%w: %v len %d (region %d)", ErrOutOfBounds, addr, length, r.size)
	}
	return r, nil
}

// completionTime computes when a verb of the given payload size completes,
// charging occupancy on both NICs and the base verb latency. The second
// result is the occupancy wait: how long the verb queued behind earlier
// verbs before either NIC began serving it (0 when both were idle). The
// wait feeds the issuing node's nic_wait histogram when observed.
func (q *QP) completionTime(base sim.Duration, size int) (sim.Time, sim.Duration) {
	base += q.local.fabric.linkExtra(q.local.id, q.remote.id)
	now := q.sched.Now()
	start := q.local.admit(now, size)
	start = q.remote.admit(start, size)
	wait := sim.Duration(start - now)
	if io := q.local.o(); io != nil {
		io.nicWait.Observe(wait)
	}
	return start + sim.Time(base) + sim.Time(float64(size)/BytesPerNS), wait
}

// pathDown reports whether verbs on this QP cannot currently reach the
// remote node: it crashed, or the link between the two nodes is
// partitioned.
func (q *QP) pathDown() bool {
	return q.remote.crashed || q.local.fabric.Partitioned(q.local.id, q.remote.id)
}

// pathErr builds the RDMA exception matching the current path state.
func (q *QP) pathErr() error {
	if q.remote.crashed {
		return fmt.Errorf("%w: node %d", ErrRemoteFailure, q.remote.id)
	}
	return fmt.Errorf("%w: %d->%d", ErrLinkDown, q.local.id, q.remote.id)
}

// failVerb blocks the issuer for the failure timeout and surfaces the
// RDMA exception for the current path state, modeling RC retransmission
// exhaustion. It is the single failure path shared by Read and Write,
// for crashed targets and partitioned links alike.
func (q *QP) failVerb(p *sim.Proc) error {
	p.Sleep(FailureTimeout)
	// Verb failures are exactly what a post-mortem wants in the flight
	// ring; this is the error path, so the lookup cost is irrelevant.
	q.local.fabric.obs.Flight().Record(
		p.Now(), obs.FltVerbError, uint32(q.local.id), uint64(q.remote.id), 0)
	return q.pathErr()
}

// incarnation returns the link's (Fabric.Incarnation). A WR carries the
// incarnation it was posted in and lands only in the same one.
func (q *QP) incarnation() uint64 {
	return q.local.fabric.Incarnation(q.local.id, q.remote.id)
}

// transmit returns when a WR whose first transmission completes at done
// lands. RC loses no verb on a live link: each transmission a lossy link
// loses costs one RetransmitTimeout, and, go-back-N, every later WR of the
// QP lands after it (retx). A WR lost RetryCount+1 times errors the QP:
// the link resets FailureTimeout from now, unless something reset it
// meanwhile, and it and every WR behind it land at the reset, in the old
// incarnation, so they place nothing.
func (q *QP) transmit(done sim.Time) sim.Time {
	f := q.local.fabric
	for lost := 0; f.dropDraw(q.local.id, q.remote.id); lost++ {
		if lost == RetryCount {
			errAt := q.sched.Now() + sim.Time(FailureTimeout)
			q.retx = max(q.retx, errAt)
			a, b, inc := q.local.id, q.remote.id, q.incarnation()
			q.sched.At(errAt, func() {
				if f.Incarnation(a, b) == inc {
					f.resetLink(a, b)
				}
			})
			return q.retx
		}
		done += sim.Time(RetransmitTimeout)
		q.retx = max(q.retx, done)
		if io := q.o(); io != nil {
			io.retransmits.Inc()
		}
	}
	return max(done, q.retx)
}

// checkLocal returns an error if the issuing node has crashed.
func (q *QP) checkLocal() error {
	if q.local.crashed {
		return fmt.Errorf("%w: node %d", ErrLocalFailure, q.local.id)
	}
	return nil
}

// Read performs a one-sided READ of length bytes at addr. The returned
// slice is a copy of the target memory as of the completion instant; the
// target CPU is not involved. On a crashed target it returns
// ErrRemoteFailure after the failure timeout.
func (q *QP) Read(p *sim.Proc, addr Addr, length int) ([]byte, error) {
	if err := q.checkLocal(); err != nil {
		return nil, err
	}
	if q.pathDown() {
		return nil, q.failVerb(p)
	}
	reg, err := q.region(addr, length)
	if err != nil {
		return nil, err
	}
	inc := q.incarnation()
	done, wait := q.completionTime(ReadBase, length)
	done = q.transmit(done)
	var sp *obs.Span
	if io := q.o(); io != nil {
		io.readOps.Inc()
		io.readBytes.Add(uint64(length))
		sp = io.track.BeginAsync("rdma", "read").
			Arg("to", int(q.remote.id)).Arg("bytes", length).Arg("nic_wait_ns", int64(wait))
	}
	// Snapshot at completion: commit event runs before the wake event
	// scheduled below (same instant, lower sequence number).
	buf := make([]byte, length)
	failed := false
	q.sched.At(done, func() {
		defer sp.End()
		if q.pathDown() || q.incarnation() != inc {
			failed = true
			return
		}
		reg.read(buf, addr.Off)
	})
	p.Sleep(sim.Duration(done - p.Now()))
	if failed {
		// A crash, a partition or a link reset raced the DMA: surface the
		// exception as a late timeout.
		return nil, q.failVerb(p)
	}
	return buf, nil
}

// Write performs a one-sided WRITE of data at addr and blocks until the
// issuer's completion (under RC, when the payload is placed in target
// memory). The target CPU is not involved.
func (q *QP) Write(p *sim.Proc, addr Addr, data []byte) error {
	if err := q.checkLocal(); err != nil {
		return err
	}
	if q.pathDown() {
		return q.failVerb(p)
	}
	inc := q.incarnation()
	wr := [1]WR{{addr, data}}
	done, err := q.post(wr[:])
	if err != nil {
		return err
	}
	p.Sleep(sim.Duration(done - p.Now()))
	if q.pathDown() || q.incarnation() != inc {
		return q.failVerb(p)
	}
	return nil
}

// WR is one WRITE work request of a chain: Data goes to Addr.
type WR struct {
	Addr Addr
	Data []byte
}

// landing is a posted WR on its way to target memory.
type landing struct {
	reg  *Region
	off  int
	data []byte // into the op's own copy: the caller may reuse its buffer
	sp   *obs.Span
}

// postOp is one posted chain on its way to target memory: its landings,
// the payload copy they point into, the QP incarnation it was posted in,
// and its landing event, bound once when the op is made. A QP recycles
// its ops (QP.free), so a post in steady state allocates nothing.
type postOp struct {
	q     *QP
	chain []landing
	buf   []byte
	inc   uint64
	fire  func()
}

// takeOp returns a free op, making one only when every op is in flight.
func (q *QP) takeOp() *postOp {
	if n := len(q.free); n > 0 {
		op := q.free[n-1]
		q.free = q.free[:n-1]
		return op
	}
	op := &postOp{q: q}
	op.fire = op.land
	return op
}

// putOp clears every landing — region, data and span — and returns the op
// to the free list. The payload buffer keeps its capacity.
func (q *QP) putOp(op *postOp) {
	clear(op.chain[:cap(op.chain)])
	op.chain, op.buf = op.chain[:0], op.buf[:0]
	q.free = append(q.free, op)
}

// land is the op's landing event: it ends the WRs' spans, places the chain
// — unless a crash or partition raced the DMA (counted dropped) or the
// link was reset since the post — and returns the op.
func (op *postOp) land() {
	q := op.q
	for i := range op.chain {
		op.chain[i].sp.End()
	}
	switch {
	case q.pathDown():
		if q.io != nil {
			// Crash or partition raced the DMA: no payload landed.
			q.io.writeDropped.Add(uint64(len(op.chain)))
		}
	case op.inc == q.incarnation():
		q.place(op.chain)
	}
	q.putOp(op)
}

// place lands the chain in target memory, in order — a ring marks itself
// in its endpoint's ready set when a record lands in it (Mailbox.place) —
// and wakes the target's pollers once.
func (q *QP) place(chain []landing) {
	for i := range chain {
		chain[i].reg.write(chain[i].off, chain[i].data)
	}
	q.remote.writeNotify.Broadcast()
}

// PostWrite posts a one-sided WRITE without waiting for completion: the
// 1-WR chain of PostWrites.
func (q *QP) PostWrite(p *sim.Proc, addr Addr, data []byte) error {
	return q.PostWrites(p, WR{addr, data})
}

// PostWrites posts a chain of one-sided WRITEs with a single doorbell and
// without waiting for completion: the issuer is charged the CPU posting
// overhead once, however long the chain. Every WR is still a verb of its
// own to both NICs (occupancy, retransmits, counters), and RC places the
// chain in order. The payloads become visible in target memory, together,
// when the last WR completes; the wrs and their Data may be reused on
// return. A bad address fails the post with nothing sent; errors at the
// target (crash mid-flight) are silent, as with unsignaled verbs.
func (q *QP) PostWrites(p *sim.Proc, wrs ...WR) error {
	if err := q.checkLocal(); err != nil {
		return err
	}
	if _, err := q.post(wrs); err != nil {
		return err
	}
	p.Sleep(PostOverhead)
	return nil
}

// resolve validates a chain against the remote node's regions and copies
// its payloads into the op's one buffer, admitting nothing yet. The buffer
// grows only for a chain larger than any the op carried before.
func (q *QP) resolve(op *postOp, wrs []WR) error {
	total := 0
	for i := range wrs {
		total += len(wrs[i].Data)
	}
	if cap(op.buf) < total {
		op.buf = make([]byte, 0, total)
	}
	buf, chain := op.buf[:0], op.chain[:0]
	for _, wr := range wrs {
		reg, err := q.region(wr.Addr, len(wr.Data))
		if err != nil {
			return err
		}
		n := len(buf)
		buf = append(buf, wr.Data...) // within capacity: earlier landings stay valid
		chain = append(chain, landing{reg: reg, off: wr.Addr.Off, data: buf[n:]})
	}
	op.buf, op.chain = buf, chain
	return nil
}

// post rings one doorbell for a chain of WRITEs: each WR is admitted to
// both NICs in order, and one event at the last WR's completion instant —
// which post returns — places them all. RC delivers a QP's WRITEs in
// order, so a WR never completes before the QP's previous WRITE: per-verb
// link jitter, or a link delay lifted between the two, could draw it
// earlier, and the clamp to lastWrite holds it back (otherwise NIC
// occupancy already orders them); the same clamp keeps the order behind a
// retransmitted WR (transmit). Landing the earlier WRs a little late is
// conservative: it can delay what a reader sees, never show it early.
//
// A WR posted at a dead path — crashed node, partitioned link — is
// dropped alone and silently, as on real hardware where the completion
// error is asynchronous: silent to the protocol, but counted so
// crashed-target traffic can be diagnosed from a -metrics snapshot. A
// post that loses every WR returns 0.
func (q *QP) post(wrs []WR) (sim.Time, error) {
	op := q.takeOp()
	if err := q.resolve(op, wrs); err != nil {
		q.putOp(op)
		return 0, err
	}
	op.inc = q.incarnation()
	io := q.o()
	if io != nil {
		io.doorbells.Inc()
		io.doorbellsTotal.Inc()
	}
	var done sim.Time
	kept := op.chain[:0]
	for _, l := range op.chain {
		if q.pathDown() {
			if io != nil {
				io.writeOps.Inc()
				io.writeDropped.Inc()
			}
			continue
		}
		var wait sim.Duration
		done, wait = q.completionTime(WriteBase, len(l.data))
		done = q.transmit(done)
		done = max(done, q.lastWrite)
		q.lastWrite = done
		if io != nil {
			io.writeOps.Inc()
			io.writeBytes.Add(uint64(len(l.data)))
			l.sp = io.track.BeginAsync("rdma", "write").
				Arg("to", int(q.remote.id)).Arg("bytes", len(l.data)).Arg("nic_wait_ns", int64(wait))
		}
		kept = append(kept, l)
	}
	op.chain = kept
	if len(kept) == 0 {
		q.putOp(op)
		return 0, nil
	}
	q.sched.At(done, op.fire)
	return done, nil
}
