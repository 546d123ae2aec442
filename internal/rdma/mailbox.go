package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"

	"heron/internal/sim"
)

// Mailbox is a single-producer single-consumer message ring carried over
// one-sided RDMA writes, the communication pattern RamCast and Heron use
// for protocol messages: the producer writes records into a ring buffer
// registered at the consumer and advances a tail pointer with a second
// small write; the consumer polls its own memory (free local reads) and
// returns credit (its head position) to the producer with an unsignaled
// write. No remote CPU is involved in sending.
//
// Region layout at the consumer:
//
//	[0:8)   tail  — absolute byte count written, produced remotely
//	[8:16)  reserved
//	[16:16+cap) data ring
//
// Records are [u32 length][payload] padded to 8 bytes; a length of
// 0xFFFFFFFF is a wrap marker telling the consumer to skip to the next
// ring lap.
type Mailbox struct {
	node *Node
	reg  *Region
	cap  int
	head uint64 // absolute bytes consumed

	// creditQP posts the consumer's head back to the producer.
	creditQP   *QP
	creditAddr Addr
	// credit is returnCredit's payload scratch (QP.post copies it).
	credit [8]byte
	// ready is Recv's wake filter, built once.
	ready func() bool
}

// MailboxWriter is the producer half of a Mailbox. The ring is single
// producer in the sense of a single producing NODE; multiple processes on
// that node (e.g. a replica's executor and control process) may share the
// writer, serialized by a virtual-time lock inside Send.
type MailboxWriter struct {
	qp        *QP
	ringAddr  Addr // base of the consumer's mailbox region
	cap       int
	tail      uint64 // absolute bytes produced
	creditReg *Region

	// mu serializes Send across the producing node's processes.
	mu *sim.Mutex
	// word and rec are Send's scratch for the marker/tail words and the
	// framed record: QP.post copies every payload before Send yields, and
	// mu admits one Send at a time.
	word [8]byte
	rec  []byte
}

const (
	mailboxHdr   = 16
	wrapMarker   = 0xFFFFFFFF
	recordAlign  = 8
	maxRecordLen = 1 << 30
)

// ErrMailboxFull is returned when the ring cannot accept a record and the
// consumer is not returning credit (e.g. it crashed).
var ErrMailboxFull = errors.New("rdma: mailbox full, consumer not draining")

// NewMailbox registers a ring of the given capacity on the consumer node.
// Capacity is rounded up to a multiple of 8.
func NewMailbox(consumer *Node, capacity int) *Mailbox {
	capacity = (capacity + recordAlign - 1) &^ (recordAlign - 1)
	m := &Mailbox{
		node: consumer,
		reg:  consumer.RegisterRegion(mailboxHdr + capacity),
		cap:  capacity,
	}
	m.ready = func() bool { return m.node.crashed || m.stirred() }
	return m
}

// Connect returns the producer half for the given producer node. It
// allocates the credit cell on the producer and wires both directions.
// Connect must be called exactly once per mailbox (single producer).
func (m *Mailbox) Connect(f *Fabric, producer NodeID) *MailboxWriter {
	// The send lock lives in the producer's simulation domain: Send runs
	// on the producing node's processes.
	w := &MailboxWriter{
		qp:       f.Connect(producer, m.node.id),
		ringAddr: m.reg.Addr(0),
		cap:      m.cap,
		mu:       sim.NewMutex(f.nodes[producer].sched),
	}
	w.creditReg = f.nodes[producer].RegisterRegion(8)
	m.creditQP = f.Connect(m.node.id, producer)
	m.creditAddr = w.creditReg.Addr(0)
	return w
}

// tailShadow reads the remotely-written tail from local memory.
func (m *Mailbox) tailShadow() uint64 {
	return binary.LittleEndian.Uint64(m.reg.mem()[0:8])
}

// headShadow reads the consumer's credit from producer-local memory.
func (w *MailboxWriter) headShadow() uint64 {
	return binary.LittleEndian.Uint64(w.creditReg.mem()[0:8])
}

// recordSpan returns the ring bytes a payload occupies.
func recordSpan(n int) int {
	return (4 + n + recordAlign - 1) &^ (recordAlign - 1)
}

// Send writes one record into the ring. It blocks (in virtual time) only
// when the ring is full, waiting for consumer credit; it returns
// ErrMailboxFull if no credit arrives within the fabric failure timeout.
// The record becomes visible to the consumer one write latency later.
func (w *MailboxWriter) Send(p *sim.Proc, payload []byte) error {
	if len(payload) > maxRecordLen || recordSpan(len(payload))+recordAlign > w.cap {
		return fmt.Errorf("rdma: mailbox record of %d bytes exceeds ring capacity %d", len(payload), w.cap)
	}
	// Serialize processes of the producing node: Send yields the virtual
	// CPU inside (posting costs, credit waits), and interleaved sends
	// would corrupt the tail bookkeeping.
	w.mu.Lock(p)
	defer w.mu.Unlock(p)
	span := recordSpan(len(payload))

	// Reserve space, accounting for a possible wrap marker.
	need := span
	off := int(w.tail % uint64(w.cap))
	wrap := false
	if off+span > w.cap {
		// Not enough room before the end of the ring: emit a wrap marker
		// and start the record at offset 0 of the next lap.
		wrap = true
		need = (w.cap - off) + span
	}
	if err := w.waitCredit(p, need); err != nil {
		return err
	}

	if wrap {
		marker := w.word[:4]
		binary.LittleEndian.PutUint32(marker, wrapMarker)
		if err := w.qp.PostWrite(p, w.addAddr(mailboxHdr+off), marker); err != nil {
			return err
		}
		w.tail += uint64(w.cap - off)
		off = 0
	}

	if cap(w.rec) < span {
		w.rec = make([]byte, span)
	}
	rec := w.rec[:span]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	n := copy(rec[4:], payload)
	clear(rec[4+n:]) // the padding must not carry an earlier record's bytes
	if err := w.qp.PostWrite(p, w.addAddr(mailboxHdr+off), rec); err != nil {
		return err
	}
	w.tail += uint64(span)

	// Publish the new tail. RC guarantees in-order placement, so the
	// consumer never observes the tail ahead of the record bytes.
	binary.LittleEndian.PutUint64(w.word[:], w.tail)
	return w.qp.PostWrite(p, w.addAddr(0), w.word[:])
}

// addAddr offsets the ring base address.
func (w *MailboxWriter) addAddr(off int) Addr {
	a := w.ringAddr
	a.Off += off
	return a
}

// waitCredit blocks until at least need bytes are free in the ring.
func (w *MailboxWriter) waitCredit(p *sim.Proc, need int) error {
	free := func() bool {
		return int(w.tail-w.headShadow())+need <= w.cap
	}
	if free() {
		return nil
	}
	ok := w.qp.local.writeNotify.WaitUntilTimeout(p, w.qp.cfg.FailureTimeout, free)
	if !ok {
		return fmt.Errorf("%w (consumer node %d)", ErrMailboxFull, w.qp.remote.id)
	}
	return nil
}

// TryRecv returns the next record without blocking, or ok=false when the
// ring is empty. The returned slice is a copy.
//
// Under fault injection the ring can desynchronize: writes from the
// producer are dropped while its tail bookkeeping advances (crashed or
// partitioned consumer), or a link reset rewinds the producer while a
// stale tail value is still in flight. Both surface here as a tail behind
// the head or as a record that cannot be parsed; the consumer resynchronizes
// by jumping its head to the published tail, dropping the unparseable lap.
// Lost records are protocol messages, which the retry and view-change
// machinery already covers.
func (m *Mailbox) TryRecv(p *sim.Proc) ([]byte, bool) {
	for {
		tail := m.tailShadow()
		if tail == m.head {
			return nil, false
		}
		if tail < m.head {
			// The producer was reset behind us (link heal raced an
			// in-flight tail write): adopt its position.
			m.head = tail
			m.returnCredit(p)
			return nil, false
		}
		off := int(m.head % uint64(m.cap))
		length := binary.LittleEndian.Uint32(m.reg.mem()[mailboxHdr+off : mailboxHdr+off+4])
		if length == wrapMarker {
			m.head += uint64(m.cap - off)
			m.returnCredit(p)
			continue
		}
		span := recordSpan(int(length))
		if int(length) > maxRecordLen || off+span > m.cap || uint64(span) > tail-m.head {
			// Garbage record: dropped writes left a stale lap under the
			// published tail. Skip to the tail and resynchronize.
			m.head = tail
			m.returnCredit(p)
			return nil, false
		}
		payload := make([]byte, length)
		copy(payload, m.reg.mem()[mailboxHdr+off+4:mailboxHdr+off+4+int(length)])
		m.head += uint64(span)
		m.returnCredit(p)
		return payload, true
	}
}

// Recv blocks until a record is available.
func (m *Mailbox) Recv(p *sim.Proc) ([]byte, error) {
	for {
		if rec, ok := m.TryRecv(p); ok {
			return rec, nil
		}
		if m.node.crashed {
			return nil, fmt.Errorf("%w: node %d", ErrLocalFailure, m.node.id)
		}
		m.node.writeNotify.WaitFor(p, m.ready)
	}
}

// Pending reports whether a record is available without consuming it.
func (m *Mailbox) Pending() bool { return m.tailShadow() > m.head }

// stirred reports whether TryRecv would do anything at all: the published
// tail is off the head — ahead of it (a record or wrap marker) or behind
// it (a producer reset to adopt). While it is false TryRecv is a pure
// no-op, which is what lets it filter a receiver's wakes.
func (m *Mailbox) stirred() bool { return m.tailShadow() != m.head }

// reset reinitializes the consumer half: the tail cell and the head
// cursor return to zero, discarding whatever the ring holds. Called when
// the link to the producer is re-established after faults.
func (m *Mailbox) reset() {
	for i := 0; i < mailboxHdr; i++ {
		m.reg.mem()[i] = 0
	}
	m.head = 0
}

// reset reinitializes the producer half: the tail bookkeeping and the
// credit cell return to zero, matching a freshly reset consumer ring.
func (w *MailboxWriter) reset() {
	w.tail = 0
	for i := range w.creditReg.mem() {
		w.creditReg.mem()[i] = 0
	}
}

// returnCredit posts the consumer head back to the producer (unsignaled).
func (m *Mailbox) returnCredit(p *sim.Proc) {
	if m.creditQP == nil {
		return // producer never connected; nothing to credit
	}
	binary.LittleEndian.PutUint64(m.credit[:], m.head)
	// Best effort: a dead producer no longer needs credit.
	_ = m.creditQP.PostWrite(p, m.creditAddr, m.credit[:])
}

// Node returns the consumer node hosting the ring.
func (m *Mailbox) Node() *Node { return m.node }
