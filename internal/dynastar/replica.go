package dynastar

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Oracle is the location service: it routes client requests to the
// partitions owning their objects. With the stable warehouse partitioning
// the map is static, but every request still pays the oracle hop and its
// service time, as in DynaStar.
type Oracle struct {
	d    *Deployment
	node rdma.NodeID
	mc   *multicast.Client
}

func newOracle(d *Deployment) *Oracle {
	return &Oracle{
		d:    d,
		node: d.Cfg.OracleNode,
		mc:   multicast.NewClient(multicast.OverMsgNet(d.NetMC), &d.Cfg.Multicast, d.Cfg.OracleNode),
	}
}

func (o *Oracle) start(s *sim.Scheduler) {
	s.Spawn("dynastar-oracle", func(p *sim.Proc) {
		ep := o.d.NetData.Endpoint(o.node)
		for {
			m, ok := ep.Recv(p)
			if !ok {
				return
			}
			kind, r, err := dKind(m.Payload)
			if err != nil || kind != kindLookup {
				continue
			}
			lk := decodeLookup(r)
			if r.Err() != nil {
				continue
			}
			// Location lookup for every object of the request.
			involved := o.d.Router.Involved(lk.payload)
			executor := o.d.Router.Home(lk.payload)
			p.Sleep(sim.Duration(1+len(o.d.Router.Objects(lk.payload))) * 150 * sim.Nanosecond)

			dst := make([]multicast.GroupID, 0, len(involved))
			for _, part := range involved {
				dst = append(dst, multicast.GroupID(part))
			}
			routed := encodeRouted(&routedReq{
				client:   lk.client,
				seq:      lk.seq,
				executor: executor,
				payload:  lk.payload,
			})
			o.mc.Multicast(p, dst, routed)
		}
	})
}

// Replica is one baseline replica: a member of one partition, holding the
// partition's objects in plain memory (no dual versioning — the ordering
// layer serializes all access).
type Replica struct {
	d    *Deployment
	part PartitionID
	rank int
	node rdma.NodeID
	mc   *multicast.Process
	app  core.Application

	objs map[store.OID][]byte

	// inbox state fed by the data receiver process.
	gotObjects   map[multicast.MsgID]map[PartitionID][]objPair
	gotWriteback map[multicast.MsgID][]objPair
	dataCond     *sim.Cond

	statExecuted uint64
	statForward  uint64
}

func newReplica(d *Deployment, mc *multicast.Process, part PartitionID, rank int, app core.Application) *Replica {
	return &Replica{
		d:            d,
		part:         part,
		rank:         rank,
		node:         d.Cfg.Multicast.Groups[part][rank],
		mc:           mc,
		app:          app,
		objs:         make(map[store.OID][]byte),
		gotObjects:   make(map[multicast.MsgID]map[PartitionID][]objPair),
		gotWriteback: make(map[multicast.MsgID][]objPair),
		dataCond:     sim.NewCond(d.Sched),
	}
}

// App returns the replica's application instance.
func (r *Replica) App() core.Application { return r.app }

// LoadObject installs an initial object value. The replica keeps val and
// never writes into it: execution replaces an object's value (with bytes
// from the request's own context) and migration installs decoded copies,
// so one value may be loaded into every replica of a partition.
func (r *Replica) LoadObject(oid store.OID, val []byte) { r.objs[oid] = val }

// Object returns the current value of an object, for tests.
func (r *Replica) Object(oid store.OID) ([]byte, bool) {
	v, ok := r.objs[oid]
	return v, ok
}

// Executed returns the number of requests executed (or forwarded).
func (r *Replica) Executed() uint64 { return r.statExecuted }

func (r *Replica) start(s *sim.Scheduler) {
	s.Spawn(fmt.Sprintf("dynastar-data-p%d-r%d", r.part, r.rank), r.runDataReceiver)
	s.Spawn(fmt.Sprintf("dynastar-exec-p%d-r%d", r.part, r.rank), r.runExecutor)
}

// runDataReceiver drains the data network into the migration buffers so
// the executor can block on ordered requests without losing messages.
func (r *Replica) runDataReceiver(p *sim.Proc) {
	ep := r.d.NetData.Endpoint(r.node)
	for {
		m, ok := ep.Recv(p)
		if !ok {
			return
		}
		kind, rd, err := dKind(m.Payload)
		if err != nil {
			continue
		}
		switch kind {
		case kindObjects:
			om := decodeObjects(rd)
			if rd.Err() != nil {
				continue
			}
			byPart := r.gotObjects[om.id]
			if byPart == nil {
				byPart = make(map[PartitionID][]objPair)
				r.gotObjects[om.id] = byPart
			}
			byPart[om.from] = om.objs
			r.dataCond.Broadcast()
		case kindWriteback:
			om := decodeObjects(rd)
			if rd.Err() != nil {
				continue
			}
			r.gotWriteback[om.id] = om.objs
			r.dataCond.Broadcast()
		}
	}
}

// runExecutor consumes ordered requests and runs the DynaStar execution
// model.
func (r *Replica) runExecutor(p *sim.Proc) {
	for {
		del, ok := r.mc.Deliveries().Recv(p)
		if !ok {
			return
		}
		req, err := decodeRouted(del.Payload)
		if err != nil {
			continue
		}
		p.Sleep(dispatchCPU + orderingCPU)
		if len(del.Dst) == 1 || req.executor == r.part {
			r.execute(p, &del, req)
		} else {
			r.forwardObjects(p, &del, req)
		}
	}
}

// execute runs the request at the executing partition: gather migrated
// objects, run the application, apply writes, migrate remote objects
// back, reply to the client.
func (r *Replica) execute(p *sim.Proc, del *multicast.Delivery, req *routedReq) {
	multi := len(del.Dst) > 1
	if multi {
		// Wait for object payloads from every other involved partition.
		need := len(del.Dst) - 1
		r.dataCond.WaitUntil(p, func() bool {
			return len(r.gotObjects[del.ID]) >= need
		})
		for _, objs := range r.gotObjects[del.ID] {
			for _, o := range objs {
				r.objs[o.oid] = o.val
			}
		}
		delete(r.gotObjects, del.ID)
	}

	values := make(map[store.OID][]byte)
	for _, oid := range r.d.Router.Objects(req.payload) {
		values[oid] = r.objs[oid]
	}
	creq := &core.Request{ID: del.ID, Ts: del.Ts, Dst: del.Dst, Payload: req.payload}
	ctx := core.NewExecContext(creq, r.part, values, func(oid store.OID) ([]byte, bool) {
		v, ok := r.objs[oid]
		return v, ok
	})
	out := r.app.Execute(ctx)
	cpu := sim.Duration(float64(out.CPU) * execFactor)
	cpu += sim.Duration(ctx.LocalGets()) * localReadCPU
	p.Sleep(cpu)

	// Apply all writes locally; collect remote-owned updates to migrate
	// back to their partitions.
	backByPart := make(map[PartitionID][]objPair)
	for _, w := range out.Writes {
		r.objs[w.OID] = w.Val
		if owner := staticOwner(w.OID); owner != r.part {
			backByPart[owner] = append(backByPart[owner], objPair{oid: w.OID, val: w.Val})
		}
	}
	if multi && r.rank == 0 {
		// Rank 0 migrates results back to the owner partitions (all of
		// them, even if no writes, to unblock their replicas).
		for _, g := range del.Dst {
			part := PartitionID(g)
			if part == r.part {
				continue
			}
			msg := encodeObjects(kindWriteback, &objectsMsg{id: del.ID, from: r.part, objs: backByPart[part]})
			for _, member := range r.d.Cfg.Multicast.Groups[part] {
				_ = r.d.NetData.Send(p, r.node, member, msg)
			}
		}
	}
	r.statExecuted++
	// Every executor replica replies; the client keeps the first.
	_ = r.d.NetData.Send(p, r.node, req.client, encodeReply(&replyMsg{
		seq: req.seq, part: r.part, payload: out.Response,
	}))
}

// staticOwner is the warehouse partitioning (warehouse id in the high
// bits of the OID, warehouses numbered from 1), matching tpcc.Partitioner
// without importing it.
func staticOwner(oid store.OID) PartitionID {
	wid := (uint64(oid) >> 40) & 0xffff
	return PartitionID(wid - 1)
}

// forwardObjects runs the owner-partition side of a multi-partition
// request: send the requested objects to the executor's replicas, block
// until the results migrate back, apply them.
func (r *Replica) forwardObjects(p *sim.Proc, del *multicast.Delivery, req *routedReq) {
	var mine []objPair
	for _, oid := range r.d.Router.Objects(req.payload) {
		if staticOwner(oid) != r.part {
			continue
		}
		if v, ok := r.objs[oid]; ok {
			mine = append(mine, objPair{oid: oid, val: v})
		}
	}
	if r.rank == 0 {
		msg := encodeObjects(kindObjects, &objectsMsg{id: del.ID, from: r.part, objs: mine})
		for _, member := range r.d.Cfg.Multicast.Groups[req.executor] {
			_ = r.d.NetData.Send(p, r.node, member, msg)
		}
	}
	r.statForward++

	// Block until the executor's results return, then apply them — the
	// partition cannot execute later requests against stale objects.
	r.dataCond.WaitUntil(p, func() bool {
		_, ok := r.gotWriteback[del.ID]
		return ok
	})
	for _, o := range r.gotWriteback[del.ID] {
		r.objs[o.oid] = o.val
	}
	delete(r.gotWriteback, del.ID)
}
