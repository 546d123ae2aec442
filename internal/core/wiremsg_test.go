package core

import (
	"bytes"
	"testing"

	"heron/internal/multicast"
)

// TestDecodeResponseAllocatesNoReader: ctlKind hands its reader back by
// value and the response decodes by value, so decoding one allocates once
// — the payload copy the client keeps — and encoding one into a buffer
// with room allocates nothing.
func TestDecodeResponseAllocatesNoReader(t *testing.T) {
	want := responseMsg{id: multicast.MsgID{Node: 7, Seq: 1000}, part: 2, payload: []byte("reply")}
	b := encodeResponse(nil, &want)
	decode := testing.AllocsPerRun(100, func() {
		kind, r, err := ctlKind(b)
		if err != nil || kind != ctlResponse {
			t.Fatalf("kind %d, err %v", kind, err)
		}
		m := decodeResponse(&r)
		if r.Err() != nil || m.id != want.id || m.part != want.part || !bytes.Equal(m.payload, want.payload) {
			t.Fatalf("decoded %+v (err %v), want %+v", m, r.Err(), want)
		}
	})
	if decode != 1 {
		t.Fatalf("decoding a response allocates %v times, want 1 (the payload)", decode)
	}
	var buf [replyBuf]byte
	encode := testing.AllocsPerRun(100, func() {
		if !bytes.Equal(encodeResponse(buf[:0], &want), b) {
			t.Fatal("encoding into a buffer differs from encoding into nil")
		}
	})
	if encode != 0 {
		t.Fatalf("encoding a response into a buffer with room allocates %v times, want 0", encode)
	}
}
