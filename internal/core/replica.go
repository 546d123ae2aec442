package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Coordination phases written into coordination memory.
const (
	phaseBefore = 1 // phase 2: "I have reached request R"
	phaseAfter  = 2 // phase 4: "I have executed request R"
)

// peerInfo is a remote replica's identity and RDMA-visible memory,
// exchanged at deployment wiring time (as real systems exchange rkeys at
// queue-pair setup).
type peerInfo struct {
	node      rdma.NodeID
	coordAddr rdma.Addr // base of its coordination memory
	stAddr    rdma.Addr // base of its state-transfer memory
	stageAddr rdma.Addr // base of its aux staging region
	storeAddr rdma.Addr // base of its object region (for state transfer)
	leaseAddr rdma.Addr // base of its lease-progress memory (lease.go)
}

// stEntrySize is one state-transfer memory entry: reqTmp, status, rid,
// auxLen (Algorithm 3's req_tmp/status plus the completion record).
const stEntrySize = 32

// Replica is one Heron replica: a member of one partition, hosting the
// partition's objects, executing every request addressed to it.
type Replica struct {
	cfg    *Config
	part   PartitionID
	rank   int
	node   *rdma.Node
	st     *store.Store
	app    Application
	parter Partitioner
	mc     *multicast.Process
	tr     *rdma.Transport
	rng    *rand.Rand

	// coordMem[h][q] holds the latest coordination value written by
	// replica q of partition h: ts<<2 | phase, one atomic 8-byte word.
	coordMem *rdma.Region
	// stMem[q] is the state-transfer entry of replica q of this
	// partition.
	stMem *rdma.Region
	// staging receives auxiliary state during transfer.
	staging *rdma.Region
	// leaseMem[q] is the published execution frontier of rank q, written
	// by a lease holder after each execution (lease.go).
	leaseMem *rdma.Region

	// peers[h][q] describes replica q of partition h (nil for self).
	peers [][]peerInfo
	// maxReplicas is the widest partition, fixing coordMem stride.
	maxReplicas int

	qps map[rdma.NodeID]*rdma.QP

	// objMap caches remote object addresses: (oid, node) -> addr+len
	// (Algorithm 2's object_map).
	objMap    map[objMapKey]objMapEntry
	queryCond *sim.Cond
	// addrAsked holds when each OID's address query was last sent, until a
	// majority of its partition has answered: the queries in flight.
	// prefetchTs is the newest queued delivery prefetchAddrs has scanned.
	addrAsked  map[store.OID]sim.Time
	prefetchTs multicast.Timestamp
	// prefetchReq is the request prefetchAddrs hands ReadSet, reused, and
	// prefetchAsk its OIDs to ask, by partition.
	prefetchReq Request
	prefetchAsk [][]uint64
	// cands is selectProc's candidate list, reused.
	cands []peerInfo
	// cqs holds the completion queues no READ uses any more, reset
	// (takeCQ, putCQ).
	cqs []*rdma.CQ
	// addrQueryBuf is the executor's encoding buffer for address queries,
	// and ctlReply the control process's for its replies to them.
	addrQueryBuf []byte
	ctlReply     []byte

	lastReq  multicast.Timestamp // Algorithm 1's last_req
	lastExec multicast.Timestamp // last fully executed request
	// announced is the queued request whose phase-2 word rode the last
	// phase-4 post (DESIGN §21): its own phase 2 posts nothing.
	announced multicast.Timestamp
	// ahead is the request whose remote READs go out while the executor
	// waits (readahead.go, DESIGN §22).
	ahead readAhead
	// coordWait holds the executor's coordination wait (waitCoordination).
	coordWait *coordWait
	// lastMulti is the newest multi-partition request executed and
	// coord4Seen the newest whose phase-4 majority was observed; no
	// execution starts while lastMulti > coord4Seen (checkCoordinated).
	lastMulti  multicast.Timestamp
	coord4Seen multicast.Timestamp

	// Elastic reconfiguration state (see elastic.go). epoch is the
	// configuration epoch this replica serves; epoch-tagged requests from
	// another epoch are rejected with an epoch-mismatch response carrying
	// cfgBytes (the encoded current configuration). pendingCfg holds a
	// configuration installed by the reconfiguration driver that activates
	// once execution reaches its position in the total order.
	epoch      uint64
	cfgBytes   []byte
	pendingCfg *pendingConfig
	confHook   ConfigHook

	tracer Tracer

	// obs is always non-nil; its instruments are nil (no-op) until
	// Deployment.Observe installs an observer.
	obs *replicaObs

	execProc *sim.Proc
	ctlProc  *sim.Proc

	// Stats.
	statExecuted      uint64
	statMulti         uint64
	statSkipped       uint64
	statStateTransfer uint64
	// statReadRetries counts posted READ completions that failed (crashed
	// target, torn slot) and were retried on another coordinated replica.
	statReadRetries uint64
	// Recovery and transfer-volume stats (virtual-state only).
	statRecoveries     uint64
	statCkptRecoveries uint64
	statRecoveryTime   sim.Duration
	statDeltaBytesOut  uint64
	statFullBytesOut   uint64

	// slow injects an extra delay before each execution (failure
	// injection: makes this replica a lagger candidate).
	slow sim.Duration

	// recovering is set between a rejoin and the completion of the
	// state transfer that brings the replica back up to date. While set,
	// the replica does not act as a state-transfer responder.
	recovering bool

	// recoverySrc optionally restores a durable checkpoint at the start
	// of recovery, so only the delta suffix is pulled from peers (see
	// recovery.go). nil keeps the full-state-transfer path.
	recoverySrc RecoverySource

	// Partition read-lease state, applied from totally-ordered lease
	// commands (lease.go). leaseHolder is -1 until a lease is granted;
	// leaseSelfServe is set only when this replica itself executes a
	// grant naming it, and cleared on rejoin.
	leaseHolder    int
	leaseExpire    sim.Time
	leaseSeq       uint64
	leaseSelfServe bool
	// gatedQ holds replies deferred by the lease gate, flushed by the
	// control process when the holder's frontier advances or the lease
	// expires. Every reply parked there is flushed, discarded by a
	// rejoin, or still parked (checkGatedReplies).
	gatedQ                                    []gatedReplyEntry
	gatedParked, gatedFlushed, gatedDiscarded uint64
}

type objMapKey struct {
	oid  store.OID
	node rdma.NodeID
}

type objMapEntry struct {
	addr    rdma.Addr
	slotLen int
	missing bool // remote replied "not registered"
}

// newReplica wires one replica. Called by Deployment. st may carry a
// pre-built object store (a migration target populated before the replica
// exists); nil creates a fresh one. Region sizes derive from the
// deployment's elastic caps (normalized in NewDeployment), NOT the current
// layout: the coordination stride must be identical on every replica the
// deployment will ever host.
func newReplica(cfg *Config, tr *rdma.Transport, mc *multicast.Process, part PartitionID, rank int,
	app Application, parter Partitioner, seed int64, st *store.Store) *Replica {
	node := tr.Endpoint(cfg.Multicast.Groups[part][rank]).Node()
	maxN := cfg.MaxGroupSize
	for _, g := range cfg.Multicast.Groups {
		if len(g) > maxN {
			maxN = len(g)
		}
	}
	maxParts := cfg.MaxPartitions
	if maxParts < len(cfg.Multicast.Groups) {
		maxParts = len(cfg.Multicast.Groups)
	}
	if st == nil {
		st = store.New(node, cfg.StoreCapacity)
	}
	r := &Replica{
		cfg:         cfg,
		part:        part,
		rank:        rank,
		node:        node,
		st:          st,
		app:         app,
		parter:      parter,
		mc:          mc,
		tr:          tr,
		rng:         rand.New(rand.NewSource(seed)),
		maxReplicas: maxN,
		qps:         make(map[rdma.NodeID]*rdma.QP),
		objMap:      make(map[objMapKey]objMapEntry),
		queryCond:   sim.NewCond(tr.Fabric().Scheduler()),
		addrAsked:   make(map[store.OID]sim.Time),
		obs:         &replicaObs{},
		leaseHolder: -1,
	}
	r.coordWait = newCoordWait(r)
	r.coordMem = node.RegisterRegion(maxParts * maxN * 8)
	r.stMem = node.RegisterRegion(maxN * stEntrySize)
	r.staging = node.RegisterRegion(cfg.AuxStagingCap)
	r.leaseMem = node.RegisterRegion(maxN * 8)
	return r
}

// Store returns the replica's object store, for population at startup.
func (r *Replica) Store() *store.Store { return r.st }

// Partition returns the replica's partition.
func (r *Replica) Partition() PartitionID { return r.part }

// Rank returns the replica's rank within its partition.
func (r *Replica) Rank() int { return r.rank }

// NodeID returns the hosting fabric node.
func (r *Replica) NodeID() rdma.NodeID { return r.node.ID() }

// App returns the replica's application instance.
func (r *Replica) App() Application { return r.app }

// SetTracer installs per-request instrumentation.
func (r *Replica) SetTracer(t Tracer) { r.tracer = t }

// SetSlow injects a delay before every execution, making the replica lag
// its partition (failure injection for state-transfer experiments).
func (r *Replica) SetSlow(d sim.Duration) { r.slow = d }

// Executed returns the number of requests this replica executed.
func (r *Replica) Executed() uint64 { return r.statExecuted }

// Skipped returns the number of requests skipped after state transfer.
func (r *Replica) Skipped() uint64 { return r.statSkipped }

// StateTransfers returns how many state transfers this replica initiated.
func (r *Replica) StateTransfers() uint64 { return r.statStateTransfer }

// ReadRetries returns how many posted remote READs failed and were
// retried on another coordinated replica.
func (r *Replica) ReadRetries() uint64 { return r.statReadRetries }

// notePostError counts a failed one-sided WRITE posting in the
// core/post_write_errors counters. Posting failures are local (crashed
// issuer, bad region): remote crashes are silent for unsignaled writes,
// as on real hardware, and the protocol already tolerates the lost
// write via majorities — but a failure must at least be countable
// instead of silently discarded.
func (r *Replica) notePostError(context string, err error) {
	if err == nil {
		return
	}
	r.obs.postErrors.Inc()
	if r.obs.o != nil {
		// Per-context breakdown, resolved lazily: this is the error path.
		r.obs.o.Counter("core/post_write_errors/" + context).Inc()
	}
}

// LastExecuted returns the timestamp of the last fully executed request.
func (r *Replica) LastExecuted() multicast.Timestamp { return r.lastExec }

// Recoveries returns how many crash recoveries this replica completed.
func (r *Replica) Recoveries() uint64 { return r.statRecoveries }

// CheckpointRecoveries returns how many recoveries restored a durable
// checkpoint and pulled only the delta suffix from peers.
func (r *Replica) CheckpointRecoveries() uint64 { return r.statCkptRecoveries }

// RecoveryTime returns the cumulative virtual time this replica spent in
// recovery (checkpoint restore + state transfer + coordination refresh).
func (r *Replica) RecoveryTime() sim.Duration { return r.statRecoveryTime }

// DeltaBytesOut returns the slot and aux bytes this replica shipped as a
// delta-bounded state-transfer responder.
func (r *Replica) DeltaBytesOut() uint64 { return r.statDeltaBytesOut }

// FullBytesOut returns the slot and aux bytes this replica shipped as a
// full state-transfer responder.
func (r *Replica) FullBytesOut() uint64 { return r.statFullBytesOut }

// Crashed reports whether the replica's fabric node is down.
func (r *Replica) Crashed() bool { return r.node.Crashed() }

// Recovering reports whether the replica is between a rejoin and the
// completion of its recovery state transfer.
func (r *Replica) Recovering() bool { return r.recovering }

// SetRecoverySource installs a durable-checkpoint restorer consulted at
// the start of every recovery. A persistence layer calls this at attach.
func (r *Replica) SetRecoverySource(rs RecoverySource) { r.recoverySrc = rs }

// Crash fails the replica's node and kills its processes.
func (r *Replica) Crash() {
	r.node.Crash()
	if r.execProc != nil {
		r.execProc.Kill()
	}
	if r.ctlProc != nil {
		r.ctlProc.Kill()
	}
	r.mc.Crash()
}

// qp returns (creating on first use) the queue pair to a peer node.
func (r *Replica) qp(to rdma.NodeID) *rdma.QP {
	if q, ok := r.qps[to]; ok {
		return q
	}
	q := r.tr.Fabric().Connect(r.node.ID(), to)
	r.qps[to] = q
	return q
}

// coordOff returns the byte offset of (partition h, rank q)'s entry in
// any replica's coordination memory.
func (r *Replica) coordOff(h PartitionID, q int) int {
	return (int(h)*r.maxReplicas + q) * 8
}

// coordValue reads the local coordination entry for (h, q).
func (r *Replica) coordValue(h PartitionID, q int) uint64 {
	off := r.coordOff(h, q)
	return binary.LittleEndian.Uint64(r.coordMem.Bytes()[off : off+8])
}

// start spawns the replica's executor and control processes.
func (r *Replica) start(s *sim.Scheduler) {
	r.execProc = s.Spawn(fmt.Sprintf("heron-exec-p%d-r%d", r.part, r.rank), r.runExecutor)
	r.ctlProc = s.Spawn(fmt.Sprintf("heron-ctl-p%d-r%d", r.part, r.rank), r.runControl)
}

// runExecutor is Algorithm 1: deliver, coordinate, execute, coordinate,
// reply. With Config.ExecWorkers > 1 it also owns a worker pool
// (parallel.go) that runs non-conflicting single-partition requests;
// without one, every request takes the serial path.
func (r *Replica) runExecutor(p *sim.Proc) {
	r.recoverIfNeeded(p)
	var pool *execPool
	if r.cfg.ExecWorkers > 1 {
		pool = newExecPool(r, p.Scheduler())
		for k := 0; k < r.cfg.ExecWorkers; k++ {
			wt := r.obs.workerTrack(k, p.Scheduler())
			p.Scheduler().Spawn(fmt.Sprintf("heron-worker-p%d-r%d-%d", r.part, r.rank, k), r.runWorker(pool, k, wt))
		}
	}
	estimator, canEstimate := r.app.(ConflictEstimator)
	// es and req are the serial path's, reused for every request; the pool
	// copies req into its item.
	es, req := r.newExecState(), new(Request)
	clock := &r.obs.clock
	clock.last = p.Now() // the ledger covers the loop, not a recovery before it
	for !r.node.Crashed() {
		clock.charge(execDispatch, p.Now())
		d, ok := r.mc.Deliveries().Recv(p)
		if !ok {
			pool.close()
			return
		}
		clock.charge(execIdle, p.Now())
		r.prefetchAddrs(p, d)
		*req = Request{ID: d.ID, Ts: d.Ts, Dst: d.Dst, Payload: d.Payload}
		p.Sleep(dispatchCPU)

		// Lines 3-4: skip requests covered by a past state transfer.
		if req.Ts <= r.lastReq {
			r.statSkipped++
			r.obs.skipped.Inc()
			continue
		}
		r.lastReq = req.Ts

		if r.slow > 0 {
			p.Sleep(r.slow)
		}

		// Reconfiguration interception: config commands (which drain the
		// pool first), epoch fencing, and pending-configuration activation
		// (elastic.go). Epoch checks run before estimation so the
		// estimator sees the unwrapped payload.
		if r.interceptReconfig(p, req, pool) {
			continue
		}

		rec := TraceRecord{Delivered: p.Now(), MultiPartition: req.MultiPartition()}
		r.obs.cp.Mark(cpID(req.ID), obs.SegDelivered, rec.Delivered)
		if pool != nil && canEstimate && !req.MultiPartition() {
			if reads, writes, okEst := estimator.ConflictSets(req); okEst {
				pool.admit(p, &execItem{req: *req, reads: reads, writes: writes, rec: rec})
				continue
			}
		}
		// Lines 5-7 (single-partition fast path) and 8-17 (coordinated
		// multi-partition execution), behind a barrier on the pool.
		pool.drain(p)
		r.processSerial(p, es, req, rec)
	}
	pool.close()
}

// trace emits instrumentation if a tracer is installed.
func (r *Replica) trace(req *Request, rec TraceRecord) {
	if r.tracer != nil {
		r.tracer.RequestDone(r.part, r.rank, req.ID, rec)
	}
}

// writeCoordination writes <ts, phase> into the coordination memory of
// every replica of the partitions in dst, then of those in more that dst
// does not list (Algorithm 1, lines 8-9 and 14-15; more is the merged
// word's second request, DESIGN §21). The value is a single atomic 8-byte
// word; writes to remote replicas are unsignaled one-sided writes, the
// local entry is plain memory.
func (r *Replica) writeCoordination(p *sim.Proc, ts multicast.Timestamp, phase uint64, dst, more []PartitionID) {
	val := uint64(ts)<<2 | phase
	off := r.coordOff(r.part, r.rank)
	post := func(h PartitionID) {
		for _, info := range r.peers[h] {
			if info.node == r.node.ID() {
				binary.LittleEndian.PutUint64(r.coordMem.Bytes()[off:off+8], val)
				r.node.WriteNotify().Broadcast()
				continue
			}
			addr := info.coordAddr
			addr.Off += off
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], val)
			r.notePostError("coordination", r.qp(info.node).PostWrite(p, addr, buf[:]))
		}
	}
	for _, h := range dst {
		post(h)
	}
	for _, h := range more {
		if !slices.Contains(dst, h) {
			post(h)
		}
	}
}

// postPhase4 posts the word that ends req's phase 4. When the head of the
// queue is a request execution will coordinate — not covered by last_req,
// no configuration pending, coordinatedPayload — that word is the next
// request's phase 2, ⟨next, before⟩, posted once to both requests'
// destinations, and the next request's own phase 2 posts nothing: a later
// timestamp satisfies every earlier phase (coordSatisfied), and having
// executed req with next at the head of the queue, this replica has
// reached next (DESIGN §21).
func (r *Replica) postPhase4(p *sim.Proc, req *Request) {
	if next, queued := r.mc.Deliveries().Peek(0); queued && next.Ts > r.lastReq && r.pendingCfg == nil {
		if payload, ok := r.coordinatedPayload(next); ok {
			r.writeCoordination(p, next.Ts, phaseBefore, req.Dst, next.Dst)
			r.announced = next.Ts
			r.readAheadFor(&Request{ID: next.ID, Ts: next.Ts, Dst: next.Dst, Payload: payload})
			return
		}
	}
	r.writeCoordination(p, req.Ts, phaseAfter, req.Dst, nil)
}

// coordinatedPayload returns the payload execution will hand the
// application for d, with a matching epoch tag stripped, when d is a
// multi-partition request that execution coordinates: not a config or
// lease command, not tagged with another epoch (DESIGN §20, §21).
func (r *Replica) coordinatedPayload(d multicast.Delivery) ([]byte, bool) {
	if len(d.Dst) < 2 || IsConfigCommand(d.Payload) || IsLeaseCommand(d.Payload) {
		return nil, false
	}
	epoch, inner, tagged := UnwrapEpoch(d.Payload)
	if !tagged {
		return d.Payload, true
	}
	return inner, epoch == r.epoch
}

// checkCoordinated enforces the coordination rule before any execution
// starts: every multi-partition request this replica executed has an
// observed phase-4 majority.
func (r *Replica) checkCoordinated(req *Request) {
	if r.lastMulti > r.coord4Seen {
		panic(fmt.Sprintf("heron: replica p%d/r%d: executing request %v before the phase-4 majority of multi-partition request %v (newest seen %v)",
			r.part, r.rank, req.Ts, r.lastMulti, r.coord4Seen))
	}
}

// coordSatisfied reports whether replica q of partition h has coordinated
// for (ts, phase): its entry matches the request at this phase or a later
// request (line 10 and 16's wait condition).
func (r *Replica) coordSatisfied(h PartitionID, q int, ts multicast.Timestamp, phase uint64) bool {
	v := r.coordValue(h, q)
	entTs := multicast.Timestamp(v >> 2)
	entPhase := v & 3
	if entTs > ts {
		return true
	}
	return entTs == ts && entPhase >= phase
}

// coordWait is the executor's coordination wait in progress. Its
// predicates are bound once, in newReplica, so a wait allocates nothing;
// only the executor waits, one wait at a time.
type coordWait struct {
	r     *Replica
	dst   []PartitionID
	ts    multicast.Timestamp
	phase uint64

	// all and wake are hasAll and wakes, bound once.
	all, wake func() bool
}

func newCoordWait(r *Replica) *coordWait {
	w := &coordWait{r: r}
	w.all, w.wake = w.hasAll, w.wakes
	return w
}

// hasMajority reports whether a majority of every involved partition has
// coordinated.
func (w *coordWait) hasMajority() bool {
	for _, h := range w.dst {
		n := len(w.r.peers[h])
		got := 0
		for q := 0; q < n; q++ {
			if w.r.coordSatisfied(h, q, w.ts, w.phase) {
				got++
			}
		}
		if got < n/2+1 {
			return false
		}
	}
	return true
}

// hasAll reports whether every replica of every involved partition has
// coordinated.
func (w *coordWait) hasAll() bool {
	for _, h := range w.dst {
		for q := 0; q < len(w.r.peers[h]); q++ {
			if !w.r.coordSatisfied(h, q, w.ts, w.phase) {
				return false
			}
		}
	}
	return true
}

// wakes is the majority wait's wake predicate: the majority, or a READ of
// the request read ahead for that can be posted now.
func (w *coordWait) wakes() bool { return w.hasMajority() || w.r.aheadPostable() }

// waitCoordination blocks until a majority of every involved partition
// has coordinated, then — when the cut-off heuristic applies — waits up
// to CutoffDelay for the remaining replicas, recording Table I's delayed
// fraction and delay into rec. While it waits it posts the READs that
// become postable ahead (readahead.go); it returns only on the majority.
func (r *Replica) waitCoordination(p *sim.Proc, req *Request, phase uint64, cutoff bool, rec *TraceRecord) {
	w := r.coordWait
	w.dst, w.ts, w.phase = req.Dst, req.Ts, phase
	r.postAhead(p)
	for !w.hasMajority() {
		r.node.WriteNotify().WaitUntil(p, w.wake)
		r.postAhead(p)
	}

	if !cutoff || r.cfg.CutoffDelay <= 0 {
		return
	}
	if w.hasAll() {
		return
	}
	// Majority reached but some replicas are behind: tentatively wait for
	// them so they do not become laggers (Section V-E1).
	t0 := p.Now()
	r.node.WriteNotify().WaitUntilTimeout(p, r.cfg.CutoffDelay, w.all)
	if rec != nil {
		rec.Delayed = true
		rec.DelayWait = sim.Duration(p.Now() - t0)
	}
}

// replyBuf sizes reply's stack buffer: a response's header is 22 bytes and
// the applications' responses are a few dozen; a longer one spills to the
// heap.
const replyBuf = 256

// reply sends the response to the submitting client. Every replica of
// every involved partition responds; clients keep the first response per
// partition.
func (r *Replica) reply(p *sim.Proc, req *Request, resp []byte) {
	// The datagram is encoded on this call's stack, not into a replica-wide
	// scratch: the executor, its workers and the control proc all reply,
	// and Send may yield on the ring's lock before it copies the datagram.
	var buf [replyBuf]byte
	msg := encodeResponse(buf[:0], &responseMsg{id: req.ID, part: r.part, payload: resp})
	_ = r.tr.Send(p, r.node.ID(), req.ID.Node, msg)
}
