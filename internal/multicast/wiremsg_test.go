package multicast

import (
	"reflect"
	"testing"
)

// TestDecodeAckAllocatesNoReader: decodeKind hands its reader back by value
// and the frequent kinds decode by value, so decoding an ack — the most
// frequent datagram — a proposal or a heartbeat allocates nothing: no
// reader, no message.
func TestDecodeAckAllocatesNoReader(t *testing.T) {
	ack := ackMsg{view: 3, repSeq: 1 << 40}
	prop := proposalMsg{fromGroup: 2, id: MsgID{Node: 7, Seq: 9}, prop: MakeTimestamp(5, 2)}
	hb := commitIdxMsg{view: 3, commitIdx: 100, truncate: 50}
	for _, b := range [][]byte{encodeAck(nil, &ack), encodeProposal(nil, &prop), encodeCommitIdx(nil, kindHeartbeat, &hb)} {
		allocs := testing.AllocsPerRun(100, func() {
			kind, r, err := decodeKind(b)
			ok := err == nil
			switch kind {
			case kindAck:
				ok = ok && decodeAck(&r) == ack
			case kindProposal:
				ok = ok && decodeProposal(&r) == prop
			case kindHeartbeat:
				ok = ok && decodeCommitIdx(&r) == hb
			default:
				ok = false
			}
			if !ok || r.Err() != nil {
				t.Fatalf("kind %d decoded wrong (err %v, reader %v)", kind, err, r.Err())
			}
		})
		if allocs != 0 {
			t.Fatalf("decoding kind %d allocates %v times, want 0", b[0], allocs)
		}
	}
}

// TestEncodeIntoWarmArena: an ack and a repCommit with its body inline,
// appended to an arena that has held them before, allocate nothing, and
// decode back to what was encoded.
func TestEncodeIntoWarmArena(t *testing.T) {
	ack := ackMsg{view: 3, repSeq: 1 << 40}
	rc := repCommit{view: 3, repSeq: 9, gseq: 8, id: MsgID{Node: 7, Seq: 9}, ts: MakeTimestamp(5, 1),
		hasBody: true, dst: []GroupID{1}, payload: []byte("payload")}
	var arena []byte
	n := 0
	encode := func() {
		arena = encodeAck(arena[:0], &ack)
		n = len(arena)
		arena = encodeRepCommit(arena, &rc)
	}
	encode()
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("encoding into a warm arena allocates %v times, want 0", allocs)
	}
	kind, r, err := decodeKind(arena[:n])
	if gotAck := decodeAck(&r); err != nil || kind != kindAck || gotAck != ack {
		t.Fatalf("ack decoded as kind %d %+v (err %v), want %+v", kind, gotAck, err, ack)
	}
	kind, r, err = decodeKind(arena[n:])
	var dsts dstTable
	if gotRC := decodeRepCommit(&r, &dsts); err != nil || kind != kindRepCommit || r.Err() != nil || !reflect.DeepEqual(gotRC, rc) {
		t.Fatalf("repCommit decoded as kind %d %+v (err %v, %v), want %+v", kind, gotRC, err, r.Err(), rc)
	}
}
