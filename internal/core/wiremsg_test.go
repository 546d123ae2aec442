package core

import (
	"bytes"
	"testing"

	"heron/internal/multicast"
	"heron/internal/wire"
)

// TestDecodeResponseAllocatesNoReader: ctlKind hands its reader back by
// value, so decoding a control response through it allocates exactly what
// decoding the same bytes through a reader on the stack does — the message
// and its payload copy, no reader.
func TestDecodeResponseAllocatesNoReader(t *testing.T) {
	want := responseMsg{id: multicast.MsgID{Node: 7, Seq: 1000}, part: 2, payload: []byte("reply")}
	b := encodeResponse(&want)
	check := func(m *responseMsg, r *wire.Reader) {
		if r.Err() != nil || m.id != want.id || m.part != want.part || !bytes.Equal(m.payload, want.payload) {
			t.Fatalf("decoded %+v (err %v), want %+v", m, r.Err(), want)
		}
	}
	split := testing.AllocsPerRun(100, func() {
		kind, r, err := ctlKind(b)
		if err != nil || kind != ctlResponse {
			t.Fatalf("kind %d, err %v", kind, err)
		}
		check(decodeResponse(&r), &r)
	})
	direct := testing.AllocsPerRun(100, func() {
		r := wire.NewReader(b[1:])
		check(decodeResponse(r), r)
	})
	if split != direct {
		t.Fatalf("decoding a response through ctlKind allocates %v, through a stack reader %v", split, direct)
	}
}
