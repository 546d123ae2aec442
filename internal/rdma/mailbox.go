package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"

	"heron/internal/sim"
)

// Mailbox is a single-producer single-consumer message ring carried over
// one-sided RDMA verbs, the communication pattern RamCast and Heron use
// for protocol messages: the producer writes records into a ring buffer
// registered at the consumer and advances a tail pointer — whatever one
// Send carries is one chain of WRITEs behind a single doorbell; the
// consumer polls its own memory (free local reads) and publishes its head
// there with a free local store. The producer reads that word, one-sidedly,
// only when its shadow of it says the ring is full. No remote CPU is
// involved in sending, and an undisturbed Send costs no verb but its own
// two, the records' WRITE and the tail's (DESIGN §18).
//
// Region layout at the consumer:
//
//	[0:8)   tail  — absolute byte count written, produced remotely
//	[8:16)  head  — absolute byte count consumed, published locally
//	[16:16+cap) data ring
//
// Records are [u32 length][payload] padded to 8 bytes; a length of
// 0xFFFFFFFF is a wrap marker telling the consumer to skip to the next
// ring lap.
type Mailbox struct {
	node *Node
	reg  *Region
	cap  int
	head uint64 // absolute bytes consumed; moved only by advance
	// ready is Recv's wake filter, built once.
	ready func() bool
}

// MailboxWriter is the producer half of a Mailbox. The ring is single
// producer in the sense of a single producing NODE; multiple processes on
// that node (e.g. a replica's executor and control process) may share the
// writer, serialized by a virtual-time lock inside Send.
type MailboxWriter struct {
	qp       *QP
	ringAddr Addr // base of the consumer's mailbox region
	cap      int
	tail     uint64 // absolute bytes produced
	head     uint64 // shadow of the consumer's published head (waitCredit)

	// mu serializes Send across the producing node's processes.
	mu *sim.Mutex
	// word and rec are Send's scratch for the tail word and the framed
	// records of one chain: PostWrites copies every payload before Send
	// yields, and mu admits one Send at a time.
	word [8]byte
	rec  []byte
}

const (
	mailboxHdr   = 16
	mailboxHead  = 8 // offset of the published head
	wrapMarker   = 0xFFFFFFFF
	recordAlign  = 8
	maxRecordLen = 1 << 30
)

// recordPad pads a framed record to recordAlign; the scratch it is framed
// into is reused, and padding must not carry an earlier record's bytes.
var recordPad [recordAlign]byte

// ErrMailboxFull is returned when the ring cannot accept a record and the
// consumer is not draining it (e.g. it crashed).
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

// Connect returns the producer half for the given producer node. Connect
// must be called exactly once per mailbox (single producer).
func (m *Mailbox) Connect(f *Fabric, producer NodeID) *MailboxWriter {
	return &MailboxWriter{
		qp:       f.Connect(producer, m.node.id),
		ringAddr: m.reg.Addr(0),
		cap:      m.cap,
		mu:       sim.NewMutex(f.sched),
	}
}

// tailShadow reads the remotely-written tail from local memory.
func (m *Mailbox) tailShadow() uint64 {
	return binary.LittleEndian.Uint64(m.reg.mem()[0:8])
}

// advance moves the head and publishes it for the producer's credit READ.
func (m *Mailbox) advance(head uint64) {
	m.head = head
	binary.LittleEndian.PutUint64(m.reg.mem()[mailboxHead:], head)
}

// recordSpan returns the ring bytes a payload occupies.
func recordSpan(n int) int {
	return (4 + n + recordAlign - 1) &^ (recordAlign - 1)
}

// Send writes the payloads into the ring, in order, one record each. It
// blocks (in virtual time) only when the ring is full, waiting for the
// consumer to drain it; it returns ErrMailboxFull if no room appears within
// the fabric failure timeout. The records become visible to the consumer,
// together, one write latency later.
func (w *MailboxWriter) Send(p *sim.Proc, payloads ...[]byte) error {
	return w.send(p, nil, payloads)
}

// send is Send with every record given in two parts (Transport's sender
// prefix and the datagram), framed straight into the writer's scratch. A
// record the ring could never hold fails the call with nothing sent.
func (w *MailboxWriter) send(p *sim.Proc, prefix []byte, payloads [][]byte) error {
	for _, pl := range payloads {
		if n := len(prefix) + len(pl); n > maxRecordLen || recordSpan(n)+recordAlign > w.cap {
			return fmt.Errorf("rdma: mailbox record of %d bytes exceeds ring capacity %d", n, w.cap)
		}
	}
	// Serialize processes of the producing node: Send yields the virtual
	// CPU inside (the post, credit waits), and interleaved sends would
	// corrupt the tail bookkeeping.
	w.mu.Lock(p)
	defer w.mu.Unlock(p)
	for len(payloads) > 0 {
		k, err := w.postChain(p, prefix, payloads)
		if err != nil {
			return err
		}
		payloads = payloads[k:]
	}
	return nil
}

// postChain posts as many leading payloads as one lap of the ring holds —
// always at least one — behind a single doorbell, and returns how many it
// took. The records are laid end to end, so they are ONE WRITE however many
// they are; where the lap wraps they are two, the first closed by the wrap
// marker (by nothing when its last record ends exactly at the ring's end),
// the second starting at offset 0. The tail follows as the chain's last
// WR: RC places the chain in order, so the consumer never observes the
// tail ahead of the record bytes, and parses record after record up to it.
func (w *MailboxWriter) postChain(p *sim.Proc, prefix []byte, payloads [][]byte) (int, error) {
	off := int(w.tail % uint64(w.cap))
	var (
		buf   = w.rec[:0]
		pos   = off // ring offset the next record starts at
		need  = 0   // ring bytes the chain takes, a skipped lap end included
		split = -1  // where in buf the second WRITE starts; -1 while the lap has not wrapped
		k     = 0
	)
	for ; k < len(payloads); k++ {
		n := len(prefix) + len(payloads[k])
		span := recordSpan(n)
		wraps := pos+span > w.cap
		skip := 0
		if wraps {
			skip = w.cap - pos
		}
		if k > 0 && need+skip+span > w.cap {
			break // the next chain's; a chain within one lap also wraps at most once
		}
		if wraps {
			if skip > 0 {
				buf = binary.LittleEndian.AppendUint32(buf, wrapMarker)
			}
			split, pos = len(buf), 0
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		buf = append(buf, prefix...)
		buf = append(buf, payloads[k]...)
		buf = append(buf, recordPad[:span-4-n]...)
		pos += span
		need += skip + span
	}
	w.rec = buf[:0] // keep what the scratch grew to
	if err := w.waitCredit(p, need); err != nil {
		return 0, err
	}

	var chain [3]WR
	wrs := chain[:0]
	if split < 0 {
		wrs = append(wrs, WR{w.addAddr(mailboxHdr + off), buf})
	} else {
		wrs = append(wrs, WR{w.addAddr(mailboxHdr + off), buf[:split]}, WR{w.addAddr(mailboxHdr), buf[split:]})
	}
	w.tail += uint64(need)
	binary.LittleEndian.PutUint64(w.word[:], w.tail)
	wrs = append(wrs, WR{w.ringAddr, w.word[:]})
	return k, w.qp.PostWrites(p, wrs...)
}

// addAddr offsets the ring base address.
func (w *MailboxWriter) addAddr(off int) Addr {
	a := w.ringAddr
	a.Off += off
	return a
}

// waitCredit blocks until at least need bytes are free in the ring. Credit
// is fetched on demand: while the shadow head leaves room — all but about
// once a lap — nothing is sent; when it does not, it is refreshed by
// one-sided READs of the consumer's published head until the consumer has
// drained enough. A consumer that is down fails the READ, and one that is
// up but stuck keeps the ring full, for the failure timeout.
func (w *MailboxWriter) waitCredit(p *sim.Proc, need int) error {
	full := func() error { return fmt.Errorf("%w (consumer node %d)", ErrMailboxFull, w.qp.remote.id) }
	deadline := p.Now() + sim.Time(w.qp.cfg.FailureTimeout)
	for int(w.tail-w.head)+need > w.cap {
		if p.Now() >= deadline {
			return full()
		}
		word, err := w.qp.Read(p, w.addAddr(mailboxHead), 8)
		if io := w.qp.o(); io != nil {
			io.creditReads.Inc()
		}
		if err != nil {
			return full()
		}
		w.head = binary.LittleEndian.Uint64(word)
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
			m.advance(tail)
			return nil, false
		}
		off := int(m.head % uint64(m.cap))
		length := binary.LittleEndian.Uint32(m.reg.mem()[mailboxHdr+off : mailboxHdr+off+4])
		if length == wrapMarker {
			m.advance(m.head + uint64(m.cap-off))
			continue
		}
		span := recordSpan(int(length))
		if int(length) > maxRecordLen || off+span > m.cap || uint64(span) > tail-m.head {
			// Garbage record: dropped writes left a stale lap under the
			// published tail. Skip to the tail and resynchronize.
			m.advance(tail)
			return nil, false
		}
		payload := make([]byte, length)
		copy(payload, m.reg.mem()[mailboxHdr+off+4:mailboxHdr+off+4+int(length)])
		m.advance(m.head + uint64(span))
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

// reset reinitializes the consumer half: the tail cell, the published head
// and the head cursor return to zero, discarding whatever the ring holds.
// Called when the link to the producer is re-established after faults.
func (m *Mailbox) reset() {
	clear(m.reg.mem()[:mailboxHdr])
	m.head = 0
}

// reset reinitializes the producer half: the tail bookkeeping and the
// shadow head return to zero, matching a freshly reset consumer ring.
func (w *MailboxWriter) reset() { w.tail, w.head = 0, 0 }

// Node returns the consumer node hosting the ring.
func (m *Mailbox) Node() *Node { return m.node }
