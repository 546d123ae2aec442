package multicast

import (
	"fmt"
	"slices"

	"heron/internal/rdma"
)

// What a member knows to be committed, kept in proportion to its retained
// log rather than to its history.
//
// A message is committed here when it is in the retained log (logIdx), or
// was truncated from it: a multi-group entry leaves its final timestamp in
// truncTs for proposal repair, and a single-group entry leaves nothing
// unless its client copy has not reached this member yet (owed). That
// suffices because a truncated single-group id is only ever asked about
// again by its own client copy: proposals and proposal pulls name only
// multi-group messages, and truncation waits until every member has
// appended the entry, so no member still holds it pending or unproposed.
// A client writes each message once to each member over one FIFO ring, so
// once a copy from a client has arrived, no earlier copy from it can;
// checkClientOrder enforces that on every copy.

// isCommitted reports whether message id is committed at this member.
func (pr *Process) isCommitted(id MsgID) bool {
	if _, ok := pr.logIdx[id]; ok {
		return true
	}
	if _, ok := pr.truncTs[id]; ok {
		return true
	}
	if len(pr.owed) == 0 {
		return false
	}
	_, owed := slices.BinarySearch(pr.owed[id.Node], id.Seq)
	return owed
}

// unindex takes the retained entries from absolute index from on, which
// the caller is about to overwrite, out of the log index.
func (pr *Process) unindex(from uint64) {
	for i := from - pr.logBase; i < uint64(len(pr.log)); i++ {
		delete(pr.logIdx, pr.log[i].id)
	}
}

// checkClientOrder enforces what owed rests on: at this member, a
// client's copies arrive at most once and in increasing sequence. A
// violation — a replayed or overtaken copy — is a substrate or protocol
// bug, surfaced loudly.
func (pr *Process) checkClientOrder(id MsgID) {
	if high := pr.clientHigh[id.Node]; id.Seq <= high {
		panic(fmt.Sprintf("multicast: group %d rank %d: client copy %v arrived after %v",
			pr.group, pr.rank, id, MsgID{Node: id.Node, Seq: high}))
	}
	pr.clientHigh[id.Node] = id.Seq
}

// owe records a single-group entry being dropped from the log: if its
// client copy has not reached this member, the copy may still come and
// must find the message committed. A copy that did arrive, or was
// overtaken by a later one and so lost, never comes again.
func (pr *Process) owe(id MsgID) {
	if id.Seq <= pr.clientHigh[id.Node] {
		return
	}
	if pr.owed == nil {
		pr.owed = make(map[rdma.NodeID][]uint64)
	}
	seqs := pr.owed[id.Node]
	if i, found := slices.BinarySearch(seqs, id.Seq); !found {
		pr.owed[id.Node] = slices.Insert(seqs, i, id.Seq)
	}
}

// payOwed settles the owed sequence numbers a client copy of id answers:
// its own, and every earlier one of the same client, whose copies can no
// longer arrive.
func (pr *Process) payOwed(id MsgID) {
	if len(pr.owed) == 0 {
		return
	}
	seqs, ok := pr.owed[id.Node]
	if !ok {
		return
	}
	i, found := slices.BinarySearch(seqs, id.Seq)
	if found {
		i++
	}
	if i == len(seqs) {
		delete(pr.owed, id.Node)
		return
	}
	pr.owed[id.Node] = seqs[i:]
}
