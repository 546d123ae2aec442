package core

import (
	"bytes"
	"testing"

	"heron/internal/multicast"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// TestDecodeResponseAllocatesNoReader: ctlKind hands its reader back by
// value and the response decodes by value into a view of the datagram, so
// decoding one allocates nothing, and neither does encoding one into a
// buffer with room.
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
	if decode != 0 {
		t.Fatalf("decoding a response allocates %v times, want 0 (the payload is a view)", decode)
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

// queryOIDs decodes an address query's body.
func queryOIDs(rd *wire.Reader) []uint64 {
	oids := make([]uint64, rd.U16())
	for i := range oids {
		oids[i] = rd.U64()
	}
	return oids
}

// TestAddrMessagesDroppedWhole: the control process answers a query and
// applies a reply as it reads them, but one cut short is dropped whole — a
// truncated query is not answered and a truncated reply applies nothing —
// and a query encodes into a buffer with room without allocating.
func TestAddrMessagesDroppedWhole(t *testing.T) {
	s, d := testDeployment(t, 2, 3, 4)
	defer s.Close()
	r := d.Replicas[0][0]
	asker := d.NewClient().NodeID()
	ep := d.TrCtl.Endpoint(asker)
	oids := []uint64{uint64(kvOID(0, 1)), uint64(kvOID(0, 2))}
	query := encodeAddrQuery(nil, oids)
	w := wire.AppendTo(nil)
	w.U8(ctlAddrReply)
	w.U16(2)
	appendAddrEntry(&w, addrEntry{oid: uint64(kvOID(1, 3)), found: true, key: 1, off: 64, slotLen: 48})
	appendAddrEntry(&w, addrEntry{oid: uint64(kvOID(1, 2)), found: true, key: 1, off: 128, slotLen: 48})
	reply := w.Finish()
	from := d.Replicas[1][0].NodeID()

	var answers [][]byte
	var partial bool
	s.Spawn("control", func(p *sim.Proc) {
		r.handleControl(p, query[:len(query)-1], asker)
		r.handleControl(p, reply[:len(reply)-1], from)
		_, partial = r.objMap[objMapKey{oid: kvOID(1, 3), node: from}]
		p.Sleep(10 * sim.Microsecond)
		for msg, _, ok := ep.TryRecv(); ok; msg, _, ok = ep.TryRecv() {
			answers = append(answers, bytes.Clone(msg))
		}
		r.handleControl(p, query, asker)
		r.handleControl(p, reply, from)
		p.Sleep(10 * sim.Microsecond)
		for msg, _, ok := ep.TryRecv(); ok; msg, _, ok = ep.TryRecv() {
			answers = append(answers, bytes.Clone(msg))
		}
	})
	runFor(t, s, 50*sim.Microsecond)
	if len(answers) != 1 {
		t.Fatalf("%d answers to a truncated and a whole query, want the whole one's", len(answers))
	}
	kind, rd, err := ctlKind(answers[0])
	if err != nil || kind != ctlAddrReply || rd.U16() != 2 {
		t.Fatalf("answer kind %d (%v), want a 2-entry address reply", kind, err)
	}
	for _, oid := range oids {
		e := decodeAddrEntry(&rd)
		addr, slotLen, _ := r.Store().Addr(storeOID(oid))
		if want := (addrEntry{oid: oid, found: true, key: uint32(addr.Key), off: uint64(addr.Off), slotLen: uint32(slotLen)}); e != want {
			t.Fatalf("answer entry %+v, want %+v", e, want)
		}
	}
	if rd.Err() != nil || rd.Remaining() != 0 {
		t.Fatalf("answer is not exactly two entries: %v, %d bytes left", rd.Err(), rd.Remaining())
	}
	if partial {
		t.Fatal("a truncated reply applied its first entry")
	}
	for _, oid := range []store.OID{kvOID(1, 3), kvOID(1, 2)} {
		if _, ok := r.objMap[objMapKey{oid: oid, node: from}]; !ok {
			t.Fatalf("the whole reply's entry for %d was not applied", oid)
		}
	}

	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { encodeAddrQuery(buf[:0], oids) }); n != 0 {
		t.Fatalf("encoding a query into a buffer with room allocates %v times, want 0", n)
	}
}
