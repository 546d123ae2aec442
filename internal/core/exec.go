package core

import (
	"fmt"
	"slices"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// execState is one executing proc's reused execution state: the executor
// and each pool worker own one. execute resets it at the start of every
// request — values cleared, arena emptied, READ buffers recycled — so a
// warm execution allocates nothing of its own (ExecContext's lifetime
// rule, DESIGN §18).
type execState struct {
	ctx ExecContext
	// remote lists the request's remote reads.
	remote []remoteRead
	// cq holds the READs of the request executed last. Its remote values
	// alias their buffers until the reply is sent, so it goes back to the
	// replica's pool only at the next execute.
	cq *rdma.CQ

	// The remote-read fan-out's scratch (resolveRemote), which lives
	// across its posts' and waits' yields. deferred alternates between
	// two buffers: the reads one attempt defers are the next one's pending.
	posts    []postedRead
	deferred [2][]remoteRead
	targets  map[PartitionID]peerInfo
	excluded []map[rdma.NodeID]bool // by partition

	// Address resolution's scratch (batchQueryAddrs): the OIDs seen, the
	// partitions with unknown addresses and those OIDs by partition, the
	// OIDs one query asks, and the wait's predicate, bound once.
	seen     map[store.OID]bool
	parts    []PartitionID
	unknown  [][]uint64
	ask      []uint64
	resolved func() bool
}

// newExecState builds an executing proc's state, with LocalGet and the
// address wait's predicate bound once.
func (r *Replica) newExecState() *execState {
	es := &execState{
		ctx:     ExecContext{Values: make(map[store.OID][]byte)},
		targets: make(map[PartitionID]peerInfo),
		seen:    make(map[store.OID]bool),
	}
	es.resolved = func() bool {
		for _, h := range es.parts {
			for _, oid := range es.unknown[h] {
				if !r.hasAddrQuorum(storeOID(oid), h) {
					return false
				}
			}
		}
		return true
	}
	ctx := &es.ctx
	ctx.localGet = func(oid store.OID) ([]byte, bool) {
		if r.parter.PartitionOf(oid) != r.part {
			panic(fmt.Sprintf("heron: replica p%d/r%d: LocalGet of remote object %d — remote reads must be in the read set",
				r.part, r.rank, oid))
		}
		val, _, ok := r.st.ViewAt(oid, uint64(ctx.Req.Ts))
		if !ok {
			return nil, false
		}
		return ctx.arena.clone(val), true
	}
	return es
}

// execute is Algorithm 2: resolve the read set (local gets plus pipelined
// one-sided remote reads with dual-version selection), run the
// application, apply local writes. It returns ok=false when the replica
// found itself lagging and ran state transfer instead of completing the
// request. es is the calling proc's execution state and tk its span track
// (the executor's or a worker's). The response lives in es under the
// lifetime rule: valid until the caller has replied.
func (r *Replica) execute(p *sim.Proc, es *execState, req *Request, tk *obs.Track) ([]byte, bool) {
	r.checkCoordinated(req)
	sp := tk.Begin("execute")
	ctx := &es.ctx
	ctx.Req, ctx.Partition, ctx.localGets = req, r.part, 0
	clear(ctx.Values)
	ctx.arena.reset()
	values := ctx.Values
	if es.cq != nil {
		r.putCQ(es.cq)
	}
	readSet, ahead, aheadCQ := r.takeReadAhead(req)
	es.cq = aheadCQ
	if readSet == nil {
		readSet = r.app.ReadSet(req)
	}
	remote := es.remote[:0]
	lrT0 := p.Now()
	for _, oid := range readSet {
		h := r.parter.PartitionOf(oid)
		if h != r.part {
			remote = append(remote, remoteRead{oid: oid, part: h})
			continue
		}
		// Local read: the newest version reflects exactly the requests
		// executed before req, because execution is in delivery order.
		p.Sleep(localReadCPU)
		val, _, ok := r.st.ViewAt(oid, uint64(req.Ts))
		if !ok {
			// Either the object was never initialized (treat as absent) or
			// local state overtook this request — which cannot happen on
			// the executor's own store.
			if r.st.Registered(oid) {
				panic(fmt.Sprintf("heron: replica p%d/r%d: local object %d newer than executing request %v",
					r.part, r.rank, oid, req.Ts))
			}
			values[oid] = nil
			continue
		}
		values[oid] = ctx.arena.clone(val)
	}
	es.remote = remote
	r.obs.cp.Record(cpID(req.ID), obs.SegLocalRead, lrT0, p.Now())
	if len(remote) > 0 && !r.resolveRemote(p, es, req, ahead, tk) {
		// Lagger: state transfer already ran inside resolveRemote.
		sp.Arg("lagger", true).End()
		return nil, false
	}

	appT0 := p.Now()
	app := tk.Begin("app_execute")
	out := r.app.Execute(ctx)
	if ctx.localGets > 0 {
		p.Sleep(sim.Duration(ctx.localGets) * localReadCPU)
	}
	if out.CPU > 0 {
		p.Sleep(out.CPU)
	}
	r.obs.cp.Record(cpID(req.ID), obs.SegAppExecute, appT0, p.Now())
	if len(out.Writes) == 0 && r.rank == 0 {
		// A read-only request that still paid the full ordering round —
		// the traffic a partition lease would serve locally.
		r.obs.orderedRead.Inc()
	}
	wrT0 := p.Now()
	for _, w := range out.Writes {
		if r.parter.PartitionOf(w.OID) != r.part {
			continue // replicas update local objects only (Section III-A)
		}
		p.Sleep(localWriteCPU)
		if err := r.st.Set(w.OID, w.Val, uint64(req.Ts)); err != nil {
			panic(fmt.Sprintf("heron: replica p%d/r%d: write %d: %v", r.part, r.rank, w.OID, err))
		}
	}
	r.obs.cp.Record(cpID(req.ID), obs.SegWriteApply, wrT0, p.Now())
	app.Arg("writes", len(out.Writes)).End()
	sp.End()
	return out.Response, true
}

// remoteRead is one remote object of a request's read set, tracked
// through the pipelined resolution.
type remoteRead struct {
	oid  store.OID
	part PartitionID
}

// resolveRemote resolves every remote read of a request (Algorithm 2,
// lines 8-27) with the asynchronous read engine: one batched
// address-resolution quorum round covers all unknown objects, then all
// dual-version READs are posted concurrently — grouped per target replica
// chosen by selectProc — and collected from a completion queue, so the
// request pays max(read latencies) plus posting overhead instead of the
// sum. A failed completion (crashed target, torn slot) excludes that
// replica and re-reads only the failed subset (lines 20-21). Version
// selection and lagger detection run per OID in posting (= read-set)
// order, which keeps collection deterministic; on the first object with
// no version old enough, the replica runs state transfer and reports
// ok=false (lines 23-25). The reads are es.remote, and every attempt
// posts to es.cq. ahead, when not nil, holds the READs posted ahead into
// es.cq (readahead.go), aligned with the reads: the first attempt collects
// them like its own posts and posts only the rest.
func (r *Replica) resolveRemote(p *sim.Proc, es *execState, req *Request, ahead []postedRead, tk *obs.Track) bool {
	reads, values := es.remote, es.ctx.Values
	fo := tk.Begin("read_fanout").Arg("objects", len(reads))
	r.batchQueryAddrs(p, es, req, reads, tk)
	if es.cq == nil {
		es.cq = r.takeCQ()
	}
	cq := es.cq
	for len(es.excluded) < len(r.peers) {
		es.excluded = append(es.excluded, make(map[rdma.NodeID]bool))
	}
	for _, ex := range es.excluded {
		clear(ex)
	}

	pending := reads
	for attempt := 0; attempt < 64 && len(pending) > 0; attempt++ {
		targets := es.targets
		clear(targets)
		posts := es.posts[:0]
		deferred := es.deferred[attempt%2][:0]
		postT0 := p.Now()
		for i, rr := range pending {
			if attempt == 0 && ahead != nil && ahead[i].h != nil {
				posts = append(posts, ahead[i])
				continue
			}
			info, grouped := targets[rr.part]
			ent, have := r.objMap[objMapKey{oid: rr.oid, node: info.node}]
			if !grouped || !have {
				// First object of this partition in the batch — or the
				// group's target never answered for this object — so pick a
				// coordinated replica for it.
				var ok bool
				info, ok = r.selectProc(rr.part, req, rr.oid, es.excluded[rr.part])
				if !ok {
					// No coordinated replica with a known address yet; widen
					// the address map and retry next round.
					r.batchQueryAddrs(p, es, req, []remoteRead{rr}, tk)
					clear(es.excluded[rr.part])
					deferred = append(deferred, rr)
					continue
				}
				if !grouped {
					targets[rr.part] = info
				}
				ent = r.objMap[objMapKey{oid: rr.oid, node: info.node}]
			}
			if ent.missing {
				// The remote majority does not host this object at all.
				return r.missingObject(rr.oid, rr.part)
			}
			h, err := r.qp(info.node).PostRead(p, cq, ent.addr, ent.slotLen)
			if err != nil {
				// Posting failed locally: choose another process next round.
				es.excluded[rr.part][info.node] = true
				deferred = append(deferred, rr)
				continue
			}
			posts = append(posts, postedRead{rr: rr, node: info.node, slotLen: ent.slotLen, h: h})
		}
		es.posts = posts

		// One wait for the whole batch: a crashed target fails only its own
		// completions (after the failure timeout), never the batch.
		r.obs.cp.Record(cpID(req.ID), obs.SegReadPost, postT0, p.Now())
		nicT0 := p.Now()
		cq.WaitAll(p)
		r.obs.cp.Record(cpID(req.ID), obs.SegNicWait, nicT0, p.Now())

		vsT0 := p.Now()
		vs := tk.Begin("version_select").Arg("completions", len(posts))
		pending = deferred
		for _, po := range posts {
			if err := po.h.Err(); err != nil {
				// RDMA exception: remote failure — choose another process
				// for the failed subset only (lines 20-21).
				r.statReadRetries++
				r.obs.readRetries.Inc()
				es.excluded[po.rr.part][po.node] = true
				pending = append(pending, po.rr)
				continue
			}
			maxSize := po.slotLen/2 - 16
			a, b, derr := store.DecodeSlot(po.h.Data(), maxSize)
			if derr != nil {
				r.statReadRetries++
				r.obs.readRetries.Inc()
				es.excluded[po.rr.part][po.node] = true
				pending = append(pending, po.rr)
				continue
			}
			v, chosen := store.ChooseVersion(a, b, uint64(req.Ts))
			if !chosen {
				// Both versions are newer than our request: the partition
				// has moved on without us. We are a lagger (lines 23-25).
				vs.Arg("lagger", true).End()
				r.invokeStateTransfer(p, req)
				fo.Arg("lagger", true).End()
				return false
			}
			values[po.rr.oid] = v.Val
		}
		es.deferred[attempt%2] = pending
		vs.End()
		r.obs.cp.Record(cpID(req.ID), obs.SegVersionSelect, vsT0, p.Now())
	}
	if len(pending) > 0 {
		panic(fmt.Sprintf("heron: replica p%d/r%d: cannot read %d remote objects, first %d from partition %d (majority unreachable?)",
			r.part, r.rank, len(pending), pending[0].oid, pending[0].part))
	}
	fo.End()
	return true
}

// missingObject handles a read of an object the remote partition does not
// host — an application partitioning bug surfaced loudly.
func (r *Replica) missingObject(oid store.OID, h PartitionID) bool {
	panic(fmt.Sprintf("heron: replica p%d/r%d: object %d not registered in partition %d (partitioner/application mismatch)",
		r.part, r.rank, oid, h))
}

// selectProc picks a replica of h to read from (Algorithm 2's
// select_proc): uniformly among replicas that coordinated in phase 2 for
// req, have a known object address, and are not excluded. The candidates
// are the replica's scratch: nothing yields while they are listed.
func (r *Replica) selectProc(h PartitionID, req *Request, oid store.OID, excluded map[rdma.NodeID]bool) (peerInfo, bool) {
	cands := r.cands[:0]
	for qr := range r.peers[h] {
		info, ent, ok := r.readable(h, qr, req.Ts, oid, excluded)
		if !ok {
			continue
		}
		if ent.missing {
			// A majority answered; if this one lacks the object the
			// others will too (stores are symmetric within a partition).
			return info, true
		}
		cands = append(cands, info)
	}
	r.cands = cands
	if len(cands) == 0 {
		return peerInfo{}, false
	}
	return cands[r.rng.Intn(len(cands))], true
}

// readable reports whether replica qr of h may serve a READ of oid for the
// request at ts: it is a peer not excluded, its coordination word satisfies
// ⟨ts, before⟩ and its answer for oid is known. It returns that answer.
// selectProc and the read-ahead's wake predicate both decide with it.
func (r *Replica) readable(h PartitionID, qr int, ts multicast.Timestamp, oid store.OID, excluded map[rdma.NodeID]bool) (peerInfo, objMapEntry, bool) {
	info := r.peers[h][qr]
	if info.node == r.node.ID() || excluded[info.node] || !r.coordSatisfied(h, qr, ts, phaseBefore) {
		return info, objMapEntry{}, false
	}
	ent, ok := r.objMap[objMapKey{oid: oid, node: info.node}]
	return info, ent, ok
}

// hasAddrQuorum reports whether addresses for oid are known from a
// majority of partition h (Algorithm 2, line 8's object_map check plus
// the line 11 majority requirement).
func (r *Replica) hasAddrQuorum(oid store.OID, h PartitionID) bool {
	need := len(r.peers[h])/2 + 1
	got := 0
	for _, info := range r.peers[h] {
		if _, ok := r.objMap[objMapKey{oid: oid, node: info.node}]; ok {
			got++
		}
	}
	return got >= need
}

// batchQueryAddrs broadcasts query_obj_addr for every read whose object
// lacks answers from a majority of its partition, batching all unknown
// OIDs of one partition into a single message and waiting for all
// majorities at once — one quorum round per request instead of one per
// OID (Algorithm 2, lines 8-13). Replies are recorded by the control
// process into objMap; queryCond is broadcast on every recorded reply.
// The first round does not repeat an OID whose query is still in flight
// (prefetchAddrs asked it ahead) and waits for that reply instead; every
// retransmission resends all of them, so a lost prefetch costs what a lost
// query does. Send failures are tolerated: the retransmission round
// resends. The grouping is es's scratch.
func (r *Replica) batchQueryAddrs(p *sim.Proc, es *execState, req *Request, reads []remoteRead, tk *obs.Track) {
	// Group unknown OIDs per partition in read-set order (deterministic).
	es.unknown = byPartition(es.unknown, len(r.peers))
	clear(es.seen)
	parts, unknown, seen := es.parts[:0], es.unknown, es.seen
	for _, rr := range reads {
		if seen[rr.oid] {
			continue
		}
		seen[rr.oid] = true
		if r.hasAddrQuorum(rr.oid, rr.part) {
			continue
		}
		if len(unknown[rr.part]) == 0 {
			parts = append(parts, rr.part)
		}
		unknown[rr.part] = append(unknown[rr.part], uint64(rr.oid))
	}
	es.parts = parts
	if len(parts) == 0 {
		return
	}
	r.obs.addrResolveWaits.Inc()
	aq := tk.Begin("addr_resolve").Arg("objects", len(seen))
	aqT0 := p.Now()
	defer func() {
		r.obs.cp.Record(cpID(req.ID), obs.SegAddrResolve, aqT0, p.Now())
		aq.End()
	}()
	for attempt := 0; ; attempt++ {
		if attempt >= 10 {
			panic(fmt.Sprintf("heron: replica p%d/r%d: no address quorum for %d objects from partitions %v",
				r.part, r.rank, len(seen), parts))
		}
		now := p.Now()
		for _, h := range parts {
			oids := unknown[h]
			if attempt == 0 {
				// Not the OIDs still in flight: wait for their replies.
				oids = es.ask[:0]
				for _, oid := range unknown[h] {
					if !r.addrInFlight(storeOID(oid), now) {
						oids = append(oids, oid)
					}
				}
				es.ask = oids
				if len(oids) == 0 {
					continue
				}
			}
			r.obs.addrQueryOIDs.Add(uint64(len(oids)))
			r.sendAddrQuery(p, h, oids, now)
		}
		if r.queryCond.WaitUntilTimeout(p, queryTimeout, es.resolved) {
			return
		}
	}
}

// byPartition empties lists, one per partition of n, each keeping its
// capacity.
func byPartition(lists [][]uint64, n int) [][]uint64 {
	for len(lists) < n {
		lists = append(lists, nil)
	}
	for h := range lists {
		lists[h] = lists[h][:0]
	}
	return lists
}

// addrInFlight reports whether oid's address query was sent less than a
// queryTimeout before now and no majority has answered it yet.
func (r *Replica) addrInFlight(oid store.OID, now sim.Time) bool {
	t, ok := r.addrAsked[oid]
	return ok && now-t < sim.Time(queryTimeout)
}

// sendAddrQuery records oids as asked at now and sends them in one
// query_obj_addr to every other replica of partition h, encoded into the
// executor's buffer: only the executor asks.
func (r *Replica) sendAddrQuery(p *sim.Proc, h PartitionID, oids []uint64, now sim.Time) {
	for _, oid := range oids {
		r.addrAsked[storeOID(oid)] = now
	}
	r.addrQueryBuf = encodeAddrQuery(r.addrQueryBuf[:0], oids)
	for _, info := range r.peers[h] {
		if info.node == r.node.ID() {
			continue
		}
		_ = r.tr.Send(p, r.node.ID(), info.node, r.addrQueryBuf)
	}
}

// prefetchAddrs asks, without waiting, for the remote addresses of the
// multi-partition requests queued behind head, the delivery just dequeued,
// so that the round trip of Algorithm 2 (lines 8-13) overlaps the requests
// ahead of them. Each queued delivery is scanned once (prefetchTs), and one
// query per (partition, peer) covers the whole scan. objMap only caches
// slot addresses, which do not move within an epoch, so filling it early
// changes when a request runs, never what it reads. A delivery is read as
// execution would read it or not at all (DESIGN §20): no config or lease
// command, no foreign-epoch payload, and nothing while a configuration is
// pending or behind a config command that has not executed, whose routing
// is not yet the replica's.
func (r *Replica) prefetchAddrs(p *sim.Proc, head multicast.Delivery) {
	if r.pendingCfg != nil || IsConfigCommand(head.Payload) {
		return
	}
	q := r.mc.Deliveries()
	now := p.Now()
	ask := byPartition(r.prefetchAsk, len(r.peers))
	r.prefetchAsk = ask
	for i := 0; ; i++ {
		d, ok := q.Peek(i)
		if !ok || IsConfigCommand(d.Payload) {
			break
		}
		if d.Ts <= r.prefetchTs {
			continue
		}
		r.prefetchTs = d.Ts
		payload, ok := r.coordinatedPayload(d)
		if !ok {
			continue
		}
		r.prefetchReq = Request{ID: d.ID, Ts: d.Ts, Dst: d.Dst, Payload: payload}
		for _, oid := range r.app.ReadSet(&r.prefetchReq) {
			h := r.parter.PartitionOf(oid)
			if h == r.part || !slices.Contains(d.Dst, h) || r.hasAddrQuorum(oid, h) || r.addrInFlight(oid, now) {
				continue
			}
			r.addrAsked[oid] = now // one ask per scan, however many requests read it
			ask[h] = append(ask[h], uint64(oid))
		}
	}
	for h, oids := range ask {
		if len(oids) > 0 {
			r.obs.addrPrefetchOIDs.Add(uint64(len(oids)))
			r.sendAddrQuery(p, PartitionID(h), oids, now)
		}
	}
}
