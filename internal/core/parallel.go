package core

import (
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/store"
)

// Multi-threaded execution of single-partition requests — the extension
// sketched in Section III-D.1 of the paper: "identify requests that do
// not contain conflicting operations ... and assign such requests to
// different working threads within a replica. Since concurrent requests
// are non-conflicting, there is no need to synchronize their execution."
//
// Enabled with Config.ExecWorkers > 1 for applications implementing
// ConflictEstimator. The executor (runExecutor) dispatches non-conflicting
// single-partition requests to a pool of worker processes; requests whose
// conflict sets cannot be estimated, and all multi-partition requests,
// drain the pool and execute serially (a barrier), preserving the
// sequential semantics. Correctness of concurrent readers against a
// bounded number of in-flight writers is guaranteed by the dual-versioned
// store (a reader at timestamp T still finds the pre-T version while one
// newer version exists).

// ConflictEstimator is an optional Application extension enabling
// parallel execution: it estimates the object sets a request reads and
// writes, for conflict scheduling. ok=false means the sets cannot be
// estimated — the request then executes as a barrier. Applications may
// include pseudo-OIDs (never registered in the store) to express
// conflicts on auxiliary state, e.g. a TPCC district counter.
type ConflictEstimator interface {
	ConflictSets(req *Request) (reads, writes []store.OID, ok bool)
}

// execItem is one scheduled request, holding its own copy of the request:
// the executor reuses its Request for the next delivery.
type execItem struct {
	req    Request
	reads  []store.OID
	writes []store.OID
	rec    TraceRecord
	done   bool
}

// execPool schedules non-conflicting requests onto worker processes.
type execPool struct {
	r       *Replica
	queue   *sim.Chan[*execItem]
	readers map[store.OID]int
	writers map[store.OID]int
	// inflight counts dispatched-but-incomplete requests.
	inflight int
	changed  *sim.Cond
	// order holds dispatched items in admission (= timestamp) order; the
	// done prefix retires into r.lastExec on each completion, keeping it a
	// contiguous executed frontier even while newer requests are still in
	// flight — the invariant state-transfer responders and the lease reply
	// gate both read.
	order []*execItem
}

func newExecPool(r *Replica, s *sim.Scheduler) *execPool {
	return &execPool{
		r:       r,
		queue:   sim.NewChan[*execItem](s),
		readers: make(map[store.OID]int),
		writers: make(map[store.OID]int),
		changed: sim.NewCond(s),
	}
}

// conflicts reports whether the item clashes with any in-flight request:
// its reads against in-flight writes, its writes against in-flight reads
// or writes.
func (pl *execPool) conflicts(it *execItem) bool {
	for _, oid := range it.reads {
		if pl.writers[oid] > 0 {
			return true
		}
	}
	for _, oid := range it.writes {
		if pl.writers[oid] > 0 || pl.readers[oid] > 0 {
			return true
		}
	}
	return false
}

// admit blocks until the item is conflict-free, then accounts it and
// queues it for a worker.
func (pl *execPool) admit(p *sim.Proc, it *execItem) {
	pl.changed.WaitUntil(p, func() bool { return !pl.conflicts(it) })
	for _, oid := range it.reads {
		pl.readers[oid]++
	}
	for _, oid := range it.writes {
		pl.writers[oid]++
	}
	pl.inflight++
	pl.order = append(pl.order, it)
	pl.queue.Send(it)
}

// complete releases the item's conflict accounting and retires the done
// prefix of the admission order into the replica's executed frontier.
func (pl *execPool) complete(it *execItem) {
	for _, oid := range it.reads {
		if pl.readers[oid]--; pl.readers[oid] == 0 {
			delete(pl.readers, oid)
		}
	}
	for _, oid := range it.writes {
		if pl.writers[oid]--; pl.writers[oid] == 0 {
			delete(pl.writers, oid)
		}
	}
	pl.inflight--
	it.done = true
	// Admission follows delivery (= timestamp) order, so once every older
	// in-flight request has finished, execution state reflects the whole
	// prefix through the retired item — last_exec stays a contiguous
	// frontier without waiting for a full drain.
	for len(pl.order) > 0 && pl.order[0].done {
		if ts := pl.order[0].req.Ts; ts > pl.r.lastExec {
			pl.r.lastExec = ts
		}
		pl.order[0] = nil
		pl.order = pl.order[1:]
	}
	pl.changed.Broadcast()
}

// drain blocks until every in-flight request has retired. A nil pool
// (serial execution) has nothing in flight.
func (pl *execPool) drain(p *sim.Proc) {
	if pl == nil {
		return
	}
	pl.changed.WaitUntil(p, func() bool { return pl.inflight == 0 })
}

// close ends the workers once the executor stops (nil-safe).
func (pl *execPool) close() {
	if pl != nil {
		pl.queue.Close()
	}
}

// runWorker is one execution worker process. tk is the worker's own span
// track, so overlapping requests render on separate timelines.
func (r *Replica) runWorker(pl *execPool, idx int, tk *obs.Track) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		es := r.newExecState()
		for !r.node.Crashed() {
			it, ok := pl.queue.Recv(p)
			if !ok {
				return
			}
			req := &it.req
			sp := beginRequest(tk, req.Ts)
			t0 := p.Now()
			resp, okExec := r.execute(p, es, req, tk)
			it.rec.Exec = sim.Duration(p.Now() - t0)
			it.rec.Done = p.Now()
			// Retire before replying: complete advances the contiguous
			// executed frontier, so a self-serving holder's reply gate
			// (lastExec >= req.Ts) is already open when this request is the
			// oldest in flight; otherwise the reply parks in gatedQ until
			// the frontier passes it.
			pl.complete(it)
			if r.leaseSelfServe {
				r.publishLeaseProgress(p, uint64(r.lastExec))
			}
			if okExec {
				r.statExecuted++
				r.obs.executed.Inc()
				r.noteDone(req, it.rec)
				r.gatedReply(p, req, resp)
				r.trace(req, it.rec)
			}
			sp.End()
		}
	}
}

// beginRequest opens a request's span on tk. Untraced (tk nil) it returns
// nil before the timestamp is boxed: Arg's any would allocate for every
// request.
func beginRequest(tk *obs.Track, ts multicast.Timestamp) *obs.Span {
	if tk == nil {
		return nil
	}
	return tk.Begin("request").Arg("ts", uint64(ts))
}

// processSerial executes one request on the executor's own path, with the
// executor's execution state es: every request without a pool, and the
// pool's barrier case.
func (r *Replica) processSerial(p *sim.Proc, es *execState, req *Request, rec TraceRecord) {
	tk := r.obs.exec
	clock := &r.obs.clock
	clock.charge(execDispatch, p.Now())
	if !req.MultiPartition() {
		sp := beginRequest(tk, req.Ts)
		t0 := p.Now()
		resp, ok := r.execute(p, es, req, tk)
		rec.Exec = sim.Duration(p.Now() - t0)
		clock.charge(execExecute, p.Now())
		if !ok {
			sp.Arg("lagger", true).End()
			return
		}
		r.lastExec = req.Ts
		r.statExecuted++
		r.obs.executed.Inc()
		rec.Done = p.Now()
		r.noteDone(req, rec)
		if r.leaseSelfServe {
			r.publishLeaseProgress(p, uint64(req.Ts))
		}
		r.gatedReply(p, req, resp)
		r.trace(req, rec)
		sp.End()
		return
	}

	r.statMulti++
	r.obs.multi.Inc()
	sp := beginRequest(tk, req.Ts).Arg("multi", true)
	t0 := p.Now()
	c2 := tk.Begin("coord_phase2")
	if r.announced != req.Ts {
		r.writeCoordination(p, req.Ts, phaseBefore, req.Dst, nil)
	}
	r.readAheadFor(req)
	r.waitCoordination(p, req, phaseBefore, false, nil)
	c2.End()
	rec.CoordPhase2 = sim.Duration(p.Now() - t0)
	r.obs.cp.Record(cpID(req.ID), obs.SegCoord2Wait, t0, p.Now())
	clock.charge(execCoord2, p.Now())

	t0 = p.Now()
	resp, ok := r.execute(p, es, req, tk)
	rec.Exec = sim.Duration(p.Now() - t0)
	clock.charge(execExecute, p.Now())
	if !ok {
		sp.Arg("lagger", true).End()
		return
	}
	r.lastExec = req.Ts
	r.lastMulti = req.Ts

	t0 = p.Now()
	c4 := tk.Begin("coord_phase4")
	r.postPhase4(p, req)
	r.waitCoordination(p, req, phaseAfter, true, &rec)
	r.coord4Seen = req.Ts
	c4.End()
	rec.CoordPhase4 = sim.Duration(p.Now() - t0)
	r.obs.cp.Record(cpID(req.ID), obs.SegCoord4Wait, t0, p.Now())
	clock.charge(execCoord4, p.Now())

	r.statExecuted++
	r.obs.executed.Inc()
	rec.Done = p.Now()
	r.noteDone(req, rec)
	if r.leaseSelfServe {
		r.publishLeaseProgress(p, uint64(req.Ts))
	}
	r.gatedReply(p, req, resp)
	r.trace(req, rec)
	sp.End()
}

// noteDone records the request's completion into the sharded PR 7
// instruments: the critical-path done mark, the partition's heat series
// (service latency = done - delivered), the key-skew sketch, and the
// flight ring. All no-ops when disabled.
func (r *Replica) noteDone(req *Request, rec TraceRecord) {
	ro := r.obs
	if ro.cp == nil && ro.heat == nil && ro.flight == nil {
		return
	}
	ro.cp.Mark(cpID(req.ID), obs.SegDone, rec.Done)
	ro.heat.RecordExec(rec.Done, sim.Duration(rec.Done-rec.Delivered))
	if ro.heat != nil {
		if hk, ok := r.app.(HeatKeyer); ok {
			ro.heat.Touch(hk.HeatKey(req))
		}
	}
	ro.flight.Record(rec.Done, obs.FltExec, uint32(r.node.ID()), uint64(req.Ts), uint64(rec.Done-rec.Delivered))
}

// HeatKeyer is an optional Application extension feeding the per-
// partition key-skew sketch: it maps a request to the hot-key identity
// that should be charged for it. That key must be a store.OID the
// request accesses: the rebalance planner draws split boundaries and
// isolates dominant keys at the sketch keys, read as object ids.
type HeatKeyer interface {
	HeatKey(req *Request) uint64
}
