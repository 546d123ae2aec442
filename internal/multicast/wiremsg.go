package multicast

import (
	"fmt"

	"heron/internal/rdma"
	"heron/internal/wire"
)

// Protocol message kinds. Values start at 1 so a zero byte is invalid.
const (
	kindClient      = 1  // client -> all members of all destination groups
	kindRepProposal = 2  // leader -> followers: message body + proposal ts
	kindRepCommit   = 3  // leader -> followers: log append (body inline if single-group)
	kindAck         = 4  // follower -> leader: cumulative replication ack
	kindProposal    = 5  // leader -> members of other destination groups
	kindCommitIdx   = 6  // leader -> followers: commit index advance
	kindHeartbeat   = 7  // leader -> followers: liveness + commit index
	kindViewReq     = 8  // candidate -> group members: view-change request
	kindViewState   = 9  // member -> candidate: state for the new view
	kindResync      = 10 // leader -> lagging follower: state snapshot
	kindPropReq     = 11 // leader -> members of another destination group: re-request a lost proposal
)

// Every encodeX appends one datagram to b and returns the extended slice,
// so a sender with a reused buffer (Process's send arena, Client's
// record) allocates only when that buffer grows. The frequent kinds decode
// by value. Their payloads are views of the datagram, valid until the
// next receive: a handler copies a body only when it keeps one it does
// not already hold. Destination lists are interned (dstTable), so a
// decode allocates none. A view or resync state is kept whole and decodes
// into copies.

// clientMsg is the client submission.
type clientMsg struct {
	id      MsgID
	dst     []GroupID
	payload []byte
}

func encodeClient(b []byte, m *clientMsg) []byte {
	w := wire.AppendTo(b)
	w.U8(kindClient)
	encodeMsgID(&w, m.id)
	encodeDst(&w, m.dst)
	w.Bytes(m.payload)
	return w.Finish()
}

func decodeClient(r *wire.Reader, dsts *dstTable) clientMsg {
	return clientMsg{id: decodeMsgID(r), dst: decodeDst(r, dsts), payload: r.BytesView()}
}

// repProposal replicates a message body plus the leader's proposal.
type repProposal struct {
	view   uint64
	repSeq uint64
	msg    clientMsg
	prop   Timestamp
}

func encodeRepProposal(b []byte, m *repProposal) []byte {
	w := wire.AppendTo(b)
	w.U8(kindRepProposal)
	w.U64(m.view)
	w.U64(m.repSeq)
	encodeMsgID(&w, m.msg.id)
	encodeDst(&w, m.msg.dst)
	w.Bytes(m.msg.payload)
	w.U64(uint64(m.prop))
	return w.Finish()
}

func decodeRepProposal(r *wire.Reader, dsts *dstTable) repProposal {
	return repProposal{
		view:   r.U64(),
		repSeq: r.U64(),
		msg:    clientMsg{id: decodeMsgID(r), dst: decodeDst(r, dsts), payload: r.BytesView()},
		prop:   Timestamp(r.U64()),
	}
}

// repCommit replicates a log append. For single-group messages the body
// rides inline (hasBody); multi-group bodies were already replicated by a
// repProposal, so only the id is needed.
type repCommit struct {
	view    uint64
	repSeq  uint64
	gseq    uint64
	id      MsgID
	ts      Timestamp
	hasBody bool
	dst     []GroupID
	payload []byte
}

func encodeRepCommit(b []byte, m *repCommit) []byte {
	w := wire.AppendTo(b)
	w.U8(kindRepCommit)
	w.U64(m.view)
	w.U64(m.repSeq)
	w.U64(m.gseq)
	encodeMsgID(&w, m.id)
	w.U64(uint64(m.ts))
	w.Bool(m.hasBody)
	if m.hasBody {
		encodeDst(&w, m.dst)
		w.Bytes(m.payload)
	}
	return w.Finish()
}

func decodeRepCommit(r *wire.Reader, dsts *dstTable) repCommit {
	m := repCommit{
		view:   r.U64(),
		repSeq: r.U64(),
		gseq:   r.U64(),
		id:     decodeMsgID(r),
		ts:     Timestamp(r.U64()),
	}
	m.hasBody = r.Bool()
	if m.hasBody {
		m.dst = decodeDst(r, dsts)
		m.payload = r.BytesView()
	}
	return m
}

// ackMsg acknowledges replication records up to repSeq (cumulative).
type ackMsg struct {
	view   uint64
	repSeq uint64
}

func encodeAck(b []byte, m *ackMsg) []byte {
	w := wire.AppendTo(b)
	w.U8(kindAck)
	w.U64(m.view)
	w.U64(m.repSeq)
	return w.Finish()
}

func decodeAck(r *wire.Reader) ackMsg {
	return ackMsg{view: r.U64(), repSeq: r.U64()}
}

// proposalMsg carries one group's proposal to another group's members.
type proposalMsg struct {
	fromGroup GroupID
	id        MsgID
	prop      Timestamp
}

func encodeProposal(b []byte, m *proposalMsg) []byte {
	w := wire.AppendTo(b)
	w.U8(kindProposal)
	w.U8(uint8(m.fromGroup))
	encodeMsgID(&w, m.id)
	w.U64(uint64(m.prop))
	return w.Finish()
}

func decodeProposal(r *wire.Reader) proposalMsg {
	return proposalMsg{
		fromGroup: GroupID(r.U8()),
		id:        decodeMsgID(r),
		prop:      Timestamp(r.U64()),
	}
}

// commitIdxMsg advances followers' commit index.
type commitIdxMsg struct {
	view      uint64
	commitIdx uint64
	// truncate advertises the group-wide safe log truncation point.
	truncate uint64
}

func encodeCommitIdx(b []byte, kind uint8, m *commitIdxMsg) []byte {
	w := wire.AppendTo(b)
	w.U8(kind)
	w.U64(m.view)
	w.U64(m.commitIdx)
	w.U64(m.truncate)
	return w.Finish()
}

func decodeCommitIdx(r *wire.Reader) commitIdxMsg {
	return commitIdxMsg{view: r.U64(), commitIdx: r.U64(), truncate: r.U64()}
}

// viewReq asks a member to join view `view` and report its state.
type viewReq struct {
	view uint64
}

func encodeViewReq(b []byte, m *viewReq) []byte {
	w := wire.AppendTo(b)
	w.U8(kindViewReq)
	w.U64(m.view)
	return w.Finish()
}

func decodeViewReq(r *wire.Reader) *viewReq {
	return &viewReq{view: r.U64()}
}

// viewState is a member's full protocol state offered to a candidate.
type viewState struct {
	view             uint64
	lastAcceptedView uint64
	lc               uint64
	commitIdx        uint64
	logBase          uint64
	log              []logEntry
	pending          []pendingState
}

// pendingState is the view-change snapshot of a pending message. props
// is aligned with msg.dst, as pendingMsg's is, and owned by the snapshot.
type pendingState struct {
	msg     clientMsg
	ownProp Timestamp
	props   []Timestamp
}

func encodeViewState(b []byte, m *viewState) []byte {
	w := wire.AppendTo(b)
	w.U8(kindViewState)
	encodeViewStateBody(&w, m)
	return w.Finish()
}

func encodeViewStateBody(w *wire.Writer, m *viewState) {
	w.U64(m.view)
	w.U64(m.lastAcceptedView)
	w.U64(m.lc)
	w.U64(m.commitIdx)
	w.U64(m.logBase)
	w.U32(uint32(len(m.log)))
	for i := range m.log {
		e := &m.log[i]
		encodeMsgID(w, e.id)
		w.U64(uint64(e.ts))
		encodeDst(w, e.dst)
		w.Bytes(e.payload)
	}
	w.U32(uint32(len(m.pending)))
	for i := range m.pending {
		p := &m.pending[i]
		encodeMsgID(w, p.msg.id)
		encodeDst(w, p.msg.dst)
		w.Bytes(p.msg.payload)
		w.U64(uint64(p.ownProp))
		n := 0
		for _, ts := range p.props {
			if ts != 0 {
				n++
			}
		}
		w.U32(uint32(n))
		for i, ts := range p.props {
			if ts != 0 {
				w.U8(uint8(p.msg.dst[i]))
				w.U64(uint64(ts))
			}
		}
	}
}

func decodeViewState(r *wire.Reader, dsts *dstTable) *viewState {
	m := &viewState{
		view:             r.U64(),
		lastAcceptedView: r.U64(),
		lc:               r.U64(),
		commitIdx:        r.U64(),
		logBase:          r.U64(),
	}
	nLog := int(r.U32())
	for i := 0; i < nLog && r.Err() == nil; i++ {
		m.log = append(m.log, logEntry{
			id:      decodeMsgID(r),
			ts:      Timestamp(r.U64()),
			dst:     decodeDst(r, dsts),
			payload: r.Bytes(),
		})
	}
	nPend := int(r.U32())
	for i := 0; i < nPend && r.Err() == nil; i++ {
		p := pendingState{
			msg:     clientMsg{id: decodeMsgID(r), dst: decodeDst(r, dsts), payload: r.Bytes()},
			ownProp: Timestamp(r.U64()),
		}
		p.props = make([]Timestamp, len(p.msg.dst))
		nProps := int(r.U32())
		for j := 0; j < nProps && r.Err() == nil; j++ {
			g := GroupID(r.U8())
			setProp(p.msg.dst, p.props, g, Timestamp(r.U64()))
		}
		m.pending = append(m.pending, p)
	}
	return m
}

// resyncMsg re-replicates the leader's full retained state to one lagging
// follower, repairing replication records lost to fabric faults within a
// view (the view-change path already covers the cross-view case).
type resyncMsg struct {
	repSeq uint64 // the leader's replication-stream position at snapshot
	st     *viewState
}

func encodeResync(b []byte, m *resyncMsg) []byte {
	w := wire.AppendTo(b)
	w.U8(kindResync)
	w.U64(m.repSeq)
	encodeViewStateBody(&w, m.st)
	return w.Finish()
}

func decodeResync(r *wire.Reader, dsts *dstTable) *resyncMsg {
	return &resyncMsg{repSeq: r.U64(), st: decodeViewState(r, dsts)}
}

// propRequest asks a member of another destination group to re-send its
// group's proposal (or committed final timestamp) for a message stuck
// undecided at the requester — the pull half of proposal repair, for
// proposals lost on the fabric after the sender's group already decided
// and stopped pushing. The answer is an ordinary proposalMsg.
type propRequest struct {
	id MsgID
}

func encodePropRequest(b []byte, m *propRequest) []byte {
	w := wire.AppendTo(b)
	w.U8(kindPropReq)
	encodeMsgID(&w, m.id)
	return w.Finish()
}

func decodePropRequest(r *wire.Reader) propRequest {
	return propRequest{id: decodeMsgID(r)}
}

func encodeMsgID(w *wire.Writer, id MsgID) {
	w.U64(uint64(id.Node))
	w.U64(id.Seq)
}

func decodeMsgID(r *wire.Reader) MsgID {
	return MsgID{Node: rdma.NodeID(r.U64()), Seq: r.U64()}
}

func encodeDst(w *wire.Writer, dst []GroupID) {
	w.U8(uint8(len(dst)))
	for _, g := range dst {
		w.U8(uint8(g))
	}
}

// decodeDst reads a destination list as dsts' interned copy of it.
func decodeDst(r *wire.Reader, dsts *dstTable) []GroupID {
	raw := r.Raw(int(r.U8()))
	if r.Err() != nil {
		return nil
	}
	return dsts.intern(raw)
}

// dstTable interns destination lists. A process decodes every distinct
// list once and hands out that one slice for every message to it, so a
// Delivery's or a Request's Dst is shared and read-only: its capacity
// ends at its length, and no consumer writes it. A deployment has few
// distinct lists: one per destination set in use, in each order its
// clients list it.
type dstTable map[string][]GroupID

// intern returns the list whose encoding is raw (one byte per group),
// making the table on first use.
func (t *dstTable) intern(raw []byte) []GroupID {
	if dst, ok := (*t)[string(raw)]; ok {
		return dst
	}
	if *t == nil {
		*t = make(dstTable)
	}
	dst := make([]GroupID, len(raw))
	for i, g := range raw {
		dst[i] = GroupID(g)
	}
	(*t)[string(raw)] = dst
	return dst
}

// decodeKind splits the kind byte off a datagram. The reader is returned
// by value, so a caller that decodes through &r keeps it on its stack.
func decodeKind(b []byte) (uint8, wire.Reader, error) {
	if len(b) == 0 {
		return 0, wire.Reader{}, fmt.Errorf("multicast: empty datagram")
	}
	return b[0], *wire.NewReader(b[1:]), nil
}
