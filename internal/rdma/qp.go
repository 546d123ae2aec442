package rdma

import (
	"encoding/binary"
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
	cfg    *Config
	sched  *sim.Scheduler

	// io holds lazily resolved per-QP instruments; nil while disabled.
	io *qpObs
}

// qpObs bundles a QP's observability instruments: per-QP verb counts and
// bytes, plus fabric-wide failure counters (shared across QPs through the
// metrics registry's name-based deduplication).
type qpObs struct {
	track *obs.Track // issuing node's "nic" thread

	readOps, readBytes   *obs.Counter
	writeOps, writeBytes *obs.Counter
	doorbells            *obs.Counter // posts that carried the write_ops: verbs per doorbell
	casOps, casFail      *obs.Counter
	sendOps              *obs.Counter
	writeDropped         *obs.Counter // fabric-wide "rdma/write_dropped"
	casFailTotal         *obs.Counter // fabric-wide "rdma/cas_fail"
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
			casOps:       ob.Counter(qp + "cas_ops"),
			casFail:      ob.Counter(qp + "cas_fail"),
			sendOps:      ob.Counter(qp + "send_ops"),
			writeDropped: ob.Counter("rdma/write_dropped"),
			casFailTotal: ob.Counter("rdma/cas_fail"),

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
	return &QP{local: la, remote: lb, cfg: &f.cfg, sched: f.sched}
}

// Local returns the issuing node.
func (q *QP) Local() *Node { return q.local }

// Remote returns the target node.
func (q *QP) Remote() *Node { return q.remote }

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
	return start + sim.Time(base) + sim.Time(float64(size)/q.cfg.BytesPerNS), wait
}

// pathDown reports whether verbs on this QP cannot currently reach the
// remote node: it crashed, or the link between the two nodes is
// partitioned.
func (q *QP) pathDown() bool {
	return q.remote.crashed || q.local.fabric.Partitioned(q.local.id, q.remote.id)
}

// pathErr builds the RDMA exception matching the current path state.
func (q *QP) pathErr() error {
	if !q.remote.crashed && q.local.fabric.Partitioned(q.local.id, q.remote.id) {
		return fmt.Errorf("%w: %d->%d", ErrLinkDown, q.local.id, q.remote.id)
	}
	return fmt.Errorf("%w: node %d", ErrRemoteFailure, q.remote.id)
}

// failVerb blocks the issuer for the failure timeout and surfaces the
// RDMA exception for the current path state, modeling RC retransmission
// exhaustion. It is the single failure path shared by Read, Write and
// CompareAndSwap, for crashed targets and partitioned links alike.
func (q *QP) failVerb(p *sim.Proc) error {
	p.Sleep(q.cfg.FailureTimeout)
	// Verb failures are exactly what a post-mortem wants in the flight
	// ring; this is the error path, so the lookup cost is irrelevant.
	q.local.fabric.obs.Flight().Record(
		p.Now(), obs.FltVerbError, uint32(q.local.id), uint64(q.remote.id), 0)
	return q.pathErr()
}

// dropDrawn decides (from the seeded fault RNG) whether this verb is lost
// on a lossy link.
func (q *QP) dropDrawn() bool {
	return q.local.fabric.dropDraw(q.local.id, q.remote.id)
}

// checkLocal returns an error if the issuing node has crashed.
func (q *QP) checkLocal() error {
	if q.local.crashed {
		return fmt.Errorf("%w: node %d", ErrLocalFailure, q.local.id)
	}
	return nil
}

// errMisaligned builds the alignment error for atomics.
func errMisaligned(addr Addr) error {
	return fmt.Errorf("%w: %v", ErrCASMisaligned, addr)
}

// Read performs a one-sided READ of length bytes at addr. The returned
// slice is a copy of the target memory as of the completion instant; the
// target CPU is not involved. On a crashed target it returns
// ErrRemoteFailure after the failure timeout.
func (q *QP) Read(p *sim.Proc, addr Addr, length int) ([]byte, error) {
	if err := q.checkLocal(); err != nil {
		return nil, err
	}
	if q.pathDown() || q.dropDrawn() {
		return nil, q.failVerb(p)
	}
	reg, err := q.region(addr, length)
	if err != nil {
		return nil, err
	}
	done, wait := q.completionTime(q.cfg.ReadBase, length)
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
		if q.pathDown() {
			failed = true
			return
		}
		copy(buf, reg.mem()[addr.Off:addr.Off+length])
	})
	p.Sleep(sim.Duration(done - p.Now()))
	if failed {
		// Crash or partition raced the DMA: surface the exception as a
		// late timeout.
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
	if q.pathDown() || q.dropDrawn() {
		return q.failVerb(p)
	}
	wr := [1]WR{{addr, data}}
	done, err := q.post(wr[:], false)
	if err != nil {
		return err
	}
	p.Sleep(sim.Duration(done - p.Now()))
	if q.pathDown() {
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
	data []byte // the post's own copy: the caller may reuse its buffer
	sp   *obs.Span
}

// place lands the chain in target memory, in order, and wakes the target's
// pollers once.
func (q *QP) place(chain []landing) {
	for i := range chain {
		l := &chain[i]
		copy(l.reg.mem()[l.off:], l.data)
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
// own to both NICs (occupancy, loss, counters), and RC places the chain in
// order. The payloads become visible in target memory, together, when the
// last WR completes; the wrs and their Data may be reused on return. A bad
// address fails the post with nothing sent; errors at the target (crash
// mid-flight) are silent, as with unsignaled verbs.
func (q *QP) PostWrites(p *sim.Proc, wrs ...WR) error {
	if err := q.checkLocal(); err != nil {
		return err
	}
	if _, err := q.post(wrs, true); err != nil {
		return err
	}
	p.Sleep(q.cfg.PostOverhead)
	return nil
}

// resolve validates a chain against the remote node's regions and copies
// its payloads (into one buffer), admitting nothing yet.
func (q *QP) resolve(wrs []WR) ([]landing, error) {
	total := 0
	for i := range wrs {
		total += len(wrs[i].Data)
	}
	chain := make([]landing, len(wrs))
	buf := make([]byte, 0, total)
	for i, wr := range wrs {
		reg, err := q.region(wr.Addr, len(wr.Data))
		if err != nil {
			return nil, err
		}
		n := len(buf)
		buf = append(buf, wr.Data...)
		chain[i] = landing{reg: reg, off: wr.Addr.Off, data: buf[n:]}
	}
	return chain, nil
}

// post rings one doorbell for a chain of WRITEs: each WR is admitted to
// both NICs in order, and one event at the last WR's completion instant —
// which post returns — places them all. RC delivers in order and a reader
// can tell nothing of a chain before its last WR (a ring record is behind
// its tail), so landing the earlier WRs a little late is conservative.
//
// With lossy set (unsignaled posts) a WR that cannot reach the target —
// crashed node, partitioned link, lossy-link draw — is dropped alone and
// silently, as on real hardware where the completion error is asynchronous:
// silent to the protocol, but counted so crashed-target traffic can be
// diagnosed from a -metrics snapshot. A post that loses every WR returns 0.
func (q *QP) post(wrs []WR, lossy bool) (sim.Time, error) {
	chain, err := q.resolve(wrs)
	if err != nil {
		return 0, err
	}
	io := q.o()
	if io != nil {
		io.doorbells.Inc()
		io.doorbellsTotal.Inc()
	}
	var done sim.Time
	kept := chain[:0]
	for _, l := range chain {
		if lossy && (q.pathDown() || q.dropDrawn()) {
			if io != nil {
				io.writeOps.Inc()
				io.writeDropped.Inc()
			}
			continue
		}
		var wait sim.Duration
		done, wait = q.completionTime(q.cfg.WriteBase, len(l.data))
		if io != nil {
			io.writeOps.Inc()
			io.writeBytes.Add(uint64(len(l.data)))
			l.sp = io.track.BeginAsync("rdma", "write").
				Arg("to", int(q.remote.id)).Arg("bytes", len(l.data)).Arg("nic_wait_ns", int64(wait))
		}
		kept = append(kept, l)
	}
	if len(kept) == 0 {
		return 0, nil
	}
	q.sched.At(done, func() {
		for i := range kept {
			kept[i].sp.End()
		}
		if q.pathDown() {
			if io != nil {
				// Crash or partition raced the DMA: no payload landed.
				io.writeDropped.Add(uint64(len(kept)))
			}
			return
		}
		q.place(kept)
	})
	return done, nil
}

// CompareAndSwap performs an atomic 8-byte compare-and-swap at addr
// (little-endian). It returns the previous value; the swap happened iff
// the returned value equals expect.
func (q *QP) CompareAndSwap(p *sim.Proc, addr Addr, expect, swap uint64) (uint64, error) {
	if err := q.checkLocal(); err != nil {
		return 0, err
	}
	if q.pathDown() || q.dropDrawn() {
		return 0, q.failVerb(p)
	}
	reg, err := q.region(addr, 8)
	if err != nil {
		return 0, err
	}
	if addr.Off%8 != 0 {
		return 0, errMisaligned(addr)
	}
	done, wait := q.completionTime(q.cfg.CASBase, 8)
	io := q.o()
	var sp *obs.Span
	if io != nil {
		io.casOps.Inc()
		sp = io.track.BeginAsync("rdma", "cas").
			Arg("to", int(q.remote.id)).Arg("nic_wait_ns", int64(wait))
	}
	var prev uint64
	failed := false
	q.sched.At(done, func() {
		defer sp.End()
		if q.pathDown() {
			failed = true
			return
		}
		word := reg.mem()[addr.Off : addr.Off+8]
		prev = binary.LittleEndian.Uint64(word)
		if prev == expect {
			binary.LittleEndian.PutUint64(word, swap)
			q.remote.writeNotify.Broadcast()
		} else if io != nil {
			// The compare failed: another writer won the slot.
			io.casFail.Inc()
			io.casFailTotal.Inc()
			sp.Arg("lost", true)
		}
	})
	p.Sleep(sim.Duration(done - p.Now()))
	if failed {
		return 0, q.failVerb(p)
	}
	return prev, nil
}

// Send performs a two-sided SEND of payload to the remote node's inbox.
// Unlike one-sided verbs, delivery involves the remote CPU: the payload
// is handed to the receive queue after SendBase latency and must be
// drained by a process on the remote node.
func (q *QP) Send(p *sim.Proc, payload any) error {
	if err := q.checkLocal(); err != nil {
		return err
	}
	if q.pathDown() || q.dropDrawn() {
		p.Sleep(q.cfg.PostOverhead)
		return nil // silently dropped, like an unacked datagram
	}
	if io := q.o(); io != nil {
		io.sendOps.Inc()
	}
	done, _ := q.completionTime(q.cfg.SendBase, 64)
	msg := Message{From: q.local.id, Payload: payload}
	inbox := q.remote.inbox
	q.sched.At(done, func() {
		// Deliver only into the same receive queue that existed at issue
		// time: a crash-recovery in between replaced the inbox.
		if !q.pathDown() && q.remote.inbox == inbox {
			inbox.Send(msg)
		}
	})
	p.Sleep(q.cfg.PostOverhead)
	return nil
}
