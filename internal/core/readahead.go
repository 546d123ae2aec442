package core

import (
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Read-ahead (DESIGN §22): while the executor waits — in the phase-4 wait
// of n for the request n+1 the merged word announced, and in n+1's own
// phase-2 wait — it posts n+1's remote READs to every peer whose
// coordination word already satisfies ⟨ts(n+1), before⟩, and execute
// collects those completions instead of posting them again. Such a peer
// has executed everything of its partition before n+1, so its newest
// version below ts(n+1) is final: the READ is the one execute would post,
// only earlier. No wait's exit condition changes.

// readAhead is the one request read ahead for. req.Ts == 0 means none.
type readAhead struct {
	req   Request
	epoch uint64
	// readSet is req's read set, computed once and handed to execute.
	readSet []store.OID
	// posts holds req's remote reads in read-set order, as execute lists
	// them; h == nil while a READ is not posted yet.
	posts []postedRead
	cq    *rdma.CQ
	// open is cleared when a post fails or finds no object, and nothing
	// more is posted.
	open bool
}

// postedRead is one remote READ in flight: the object, the replica it went
// to and the slot length it asked for.
type postedRead struct {
	rr      remoteRead
	node    rdma.NodeID
	slotLen int
	h       *rdma.ReadHandle
}

// readAheadFor makes req the request read ahead for, dropping any other,
// unless a configuration is pending: the partitioner may change at its
// position. req carries the payload execution will hand the application.
func (r *Replica) readAheadFor(req *Request) {
	ra := &r.ahead
	if ra.req.Ts == req.Ts && ra.epoch == r.epoch {
		return
	}
	r.dropReadAhead()
	if r.pendingCfg != nil {
		return
	}
	ra.req, ra.epoch = *req, r.epoch
	ra.readSet = r.app.ReadSet(&ra.req)
	for _, oid := range ra.readSet {
		if h := r.parter.PartitionOf(oid); h != r.part {
			ra.posts = append(ra.posts, postedRead{rr: remoteRead{oid: oid, part: h}})
		}
	}
	ra.open = len(ra.posts) > 0
}

// dropReadAhead forgets the read-ahead. Its CQ goes back to the pool once
// every READ has landed; with completions still in flight it is left to
// them, and nobody reads it.
func (r *Replica) dropReadAhead() {
	ra := &r.ahead
	for _, po := range ra.posts {
		if po.h != nil {
			r.obs.readAheadDropped.Inc()
		}
	}
	if ra.cq != nil && ra.cq.Outstanding() == 0 {
		r.putCQ(ra.cq)
	}
	clear(ra.posts)
	*ra = readAhead{posts: ra.posts[:0]}
}

// takeCQ returns a pooled completion queue, making one only when every
// queue the replica has holds READs.
func (r *Replica) takeCQ() *rdma.CQ {
	n := len(r.cqs)
	if n == 0 {
		return r.node.NewCQ()
	}
	cq := r.cqs[n-1]
	r.cqs[n-1] = nil
	r.cqs = r.cqs[:n-1]
	return cq
}

// putCQ resets cq, recycling its READs' handles and buffers, and returns it
// to the pool. Nothing may read those buffers any more.
func (r *Replica) putCQ(cq *rdma.CQ) {
	cq.Reset()
	r.cqs = append(r.cqs, cq)
}

// takeReadAhead hands execute the read set of req and the READs posted
// ahead for it, aligned with its remote reads, when req is the request
// read ahead for; nil otherwise. processSerial's phase 2 has already
// dropped a read-ahead made under another epoch. The read-ahead is then
// spent: nothing more is posted, and the next one reuses its slice.
func (r *Replica) takeReadAhead(req *Request) ([]store.OID, []postedRead, *rdma.CQ) {
	ra := &r.ahead
	if ra.req.Ts != req.Ts {
		return nil, nil, nil
	}
	readSet, posts, cq := ra.readSet, ra.posts, ra.cq
	*ra = readAhead{posts: posts[:0]}
	return readSet, posts, cq
}

// aheadPostable reports whether some READ not posted yet has a target, by
// the test selectProc applies; unlike selectProc it draws nothing from the
// replica's rng, which a wake predicate must not advance.
func (r *Replica) aheadPostable() bool {
	ra := &r.ahead
	if !ra.open {
		return false
	}
	for i := range ra.posts {
		po := &ra.posts[i]
		if po.h != nil {
			continue
		}
		for q := range r.peers[po.rr.part] {
			if _, _, ok := r.readable(po.rr.part, q, ra.req.Ts, po.rr.oid, nil); ok {
				return true
			}
		}
	}
	return false
}

// postAhead posts every READ that has a target now, to the replica
// selectProc picks. An object its partition does not host, or a post that
// fails, ends the read-ahead: execute meets the same case and handles it.
func (r *Replica) postAhead(p *sim.Proc) {
	ra := &r.ahead
	for i := range ra.posts {
		if !ra.open {
			return
		}
		po := &ra.posts[i]
		if po.h != nil {
			continue
		}
		info, ok := r.selectProc(po.rr.part, &ra.req, po.rr.oid, nil)
		if !ok {
			continue
		}
		ent := r.objMap[objMapKey{oid: po.rr.oid, node: info.node}]
		if ent.missing {
			ra.open = false
			return
		}
		if ra.cq == nil {
			ra.cq = r.takeCQ()
		}
		h, err := r.qp(info.node).PostRead(p, ra.cq, ent.addr, ent.slotLen)
		if err != nil {
			ra.open = false
			return
		}
		po.node, po.slotLen, po.h = info.node, ent.slotLen, h
		r.obs.readAheadPosts.Inc()
	}
}
