package core

import (
	"encoding/binary"
	"fmt"

	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/wire"
)

// Control-plane message kinds (distinct transport from the multicast).
const (
	ctlAddrQuery      = 1 // executor -> remote replicas: query_obj_addr(oids)
	ctlAddrReply      = 2 // remote control proc -> executor
	ctlResponse       = 3 // replica -> client: request response
	ctlLeaseRead      = 4 // client -> lease holder: local single-object read
	ctlLeaseReadReply = 5 // lease holder -> client: value or decline
)

// An address query asks one replica for the slot addresses of a batch of
// objects — the whole unknown part of a request's read set travels in one
// message, so address resolution costs one quorum round per request, not
// per OID. Its body is a u16 count and that many u64 OIDs; the reply's is
// a u16 count and that many entries of addrEntryLen bytes. Neither is
// decoded into a message struct: the control process reads each OID or
// entry off the datagram and answers or applies it (handleControl).

// encodeAddrQuery appends a query for oids to b.
func encodeAddrQuery(b []byte, oids []uint64) []byte {
	w := wire.AppendTo(b)
	w.U8(ctlAddrQuery)
	w.U16(uint16(len(oids)))
	for _, oid := range oids {
		w.U64(oid)
	}
	return w.Finish()
}

// addrEntry is one object's answer within a batched address reply.
type addrEntry struct {
	oid     uint64
	found   bool
	key     uint32
	off     uint64
	slotLen uint32
}

// addrEntryLen is an encoded addrEntry's size.
const addrEntryLen = 8 + 1 + 4 + 8 + 4

// appendAddrEntry appends one reply entry to w.
func appendAddrEntry(w *wire.Writer, e addrEntry) {
	w.U64(e.oid)
	w.Bool(e.found)
	w.U32(e.key)
	w.U64(e.off)
	w.U32(e.slotLen)
}

func decodeAddrEntry(r *wire.Reader) addrEntry {
	return addrEntry{
		oid:     r.U64(),
		found:   r.Bool(),
		key:     r.U32(),
		off:     r.U64(),
		slotLen: r.U32(),
	}
}

type responseMsg struct {
	id      multicast.MsgID
	part    PartitionID
	payload []byte
}

// encodeResponse appends the response datagram to b, in wire's format. It
// appends directly rather than through a wire.Writer: a store through the
// Writer's pointer makes escape analysis move b to the heap, and reply
// passes an array on its stack.
func encodeResponse(b []byte, m *responseMsg) []byte {
	b = append(b, ctlResponse)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.id.Node))
	b = binary.LittleEndian.AppendUint64(b, m.id.Seq)
	b = append(b, uint8(m.part))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.payload)))
	return append(b, m.payload...)
}

// decodeResponse decodes by value, allocating nothing: the payload is a
// view of the datagram, valid until the endpoint's next receive. A client
// copies only the reply it keeps.
func decodeResponse(r *wire.Reader) responseMsg {
	return responseMsg{
		id:      multicast.MsgID{Node: rdma.NodeID(r.U64()), Seq: r.U64()},
		part:    PartitionID(r.U8()),
		payload: r.BytesView(),
	}
}

// leaseReadMsg is a client's local-read probe to a lease holder: the
// token correlates the reply with the probe on the client's endpoint.
type leaseReadMsg struct {
	token uint64
	oid   uint64
}

// encodeLeaseRead appends the probe to b, directly rather than through a
// wire.Writer, so a caller's stack array stays on the stack
// (encodeResponse).
func encodeLeaseRead(b []byte, m leaseReadMsg) []byte {
	b = append(b, ctlLeaseRead)
	b = binary.LittleEndian.AppendUint64(b, m.token)
	return binary.LittleEndian.AppendUint64(b, m.oid)
}

func decodeLeaseRead(r *wire.Reader) leaseReadMsg {
	return leaseReadMsg{token: r.U64(), oid: r.U64()}
}

// leaseReadReply answers a local-read probe. ok=false declines (no live
// lease at the probed replica, or the dual-version slot was overrun) and
// the client retries on the ordered path.
type leaseReadReply struct {
	token uint64
	ok    bool
	val   []byte
}

// encodeLeaseReadReply appends the reply to b, in wire's format, directly
// as encodeLeaseRead does.
func encodeLeaseReadReply(b []byte, m *leaseReadReply) []byte {
	b = append(b, ctlLeaseReadReply)
	b = binary.LittleEndian.AppendUint64(b, m.token)
	ok := byte(0)
	if m.ok {
		ok = 1
	}
	b = append(b, ok)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.val)))
	return append(b, m.val...)
}

// decodeLeaseReadReply decodes by value; the value is a copy the client
// keeps.
func decodeLeaseReadReply(r *wire.Reader) leaseReadReply {
	return leaseReadReply{token: r.U64(), ok: r.Bool(), val: r.Bytes()}
}

// ctlKind splits the kind byte off a control datagram. The reader is
// returned by value, so a caller that decodes through &r keeps it on its
// stack.
func ctlKind(b []byte) (uint8, wire.Reader, error) {
	if len(b) == 0 {
		return 0, wire.Reader{}, fmt.Errorf("core: empty control datagram")
	}
	return b[0], *wire.NewReader(b[1:]), nil
}
