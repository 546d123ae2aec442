package multicast

import (
	"testing"

	"heron/internal/wire"
)

// TestDecodeAckAllocatesNoReader: decodeKind hands its reader back by value,
// so decoding an ack — the most frequent datagram — through it allocates
// exactly what decoding the same bytes through a reader on the stack does:
// the message, no reader.
func TestDecodeAckAllocatesNoReader(t *testing.T) {
	want := ackMsg{view: 3, repSeq: 1 << 40}
	b := encodeAck(&want)
	check := func(m *ackMsg, r *wire.Reader) {
		if r.Err() != nil || *m != want {
			t.Fatalf("decoded %+v (err %v), want %+v", *m, r.Err(), want)
		}
	}
	split := testing.AllocsPerRun(100, func() {
		kind, r, err := decodeKind(b)
		if err != nil || kind != kindAck {
			t.Fatalf("kind %d, err %v", kind, err)
		}
		check(decodeAck(&r), &r)
	})
	direct := testing.AllocsPerRun(100, func() {
		r := wire.NewReader(b[1:])
		check(decodeAck(r), r)
	})
	if split != direct {
		t.Fatalf("decoding an ack through decodeKind allocates %v, through a stack reader %v", split, direct)
	}
}
