package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"heron/internal/sim"
)

// Mailbox is a single-producer single-consumer message ring carried over
// one-sided RDMA verbs, the communication pattern RamCast and Heron use
// for protocol messages: whatever one Send carries is one WRITE of records
// into a ring registered at the consumer, two where the lap wraps, behind
// a single doorbell. The consumer polls the slot at its head in its own
// memory and publishes its head there with a local store, which the
// producer READs only when its shadow of it says the ring is full
// (DESIGN §18).
//
// Region layout at the consumer:
//
//	[0:8)      head — absolute byte count consumed, published locally
//	[8:8+cap)  data ring
//
// A record is [u32 length+1][payload][pad][u32 stamp], 8-aligned; a length
// word of 0xFFFFFFFF is a wrap marker, telling the consumer to skip to the
// next lap. A record is its own tail: the consumer takes it once its
// length word and its lap's stamp, its last word, have landed. That rests
// on RC losing no WRITE on a live link (QP.transmit), and on every ring
// byte reading zero until a WRITE of its lap lands there.
//
// The ring's memory holds only the bytes in flight (DESIGN §18 "Ring
// pages"): the head word lives apart, and the data ring in pageSize pages,
// each materialized when a WRITE first reaches it in a lap and handed back
// to the fabric's free list once the head has passed its end. A byte of a
// page that is not materialized reads as zero, and so does every byte the
// head has passed until a later lap writes it.
type Mailbox struct {
	node *Node
	reg  *Region
	cap  int
	head uint64 // absolute bytes consumed; moved only by advance
	// lap and off are the head's lap and ring offset: head = lap*cap + off.
	lap uint64
	off int
	// hdr is region bytes [0, mailboxHdr): the head word.
	hdr [mailboxHdr]byte
	// pages is the data ring, page i holding ring bytes [i*pageSize,
	// (i+1)*pageSize); nil until the first WRITE into it.
	pages []ringPage
	// ep is the transport endpoint whose ring number ring this mailbox is
	// (Transport.writer), nil for a mailbox of its own.
	ep   *Endpoint
	ring int
	// ready is Recv's wake filter, built at its first wait.
	ready func() bool
	// rec is what TryRecv returns: the last record received, copied out of
	// the ring into this one reused buffer, which grows to the largest
	// record seen.
	rec []byte
}

// ringPage is one page of a ring's data area.
type ringPage struct {
	buf *[pageSize]byte // nil while not materialized
	// lap is the latest lap a WRITE into the page belonged to: the page is
	// freed when the head passes its end in that lap, not before.
	lap uint64
}

// MailboxWriter is the producer half of a Mailbox. The ring is single
// producer in the sense of a single producing NODE; multiple processes on
// that node (e.g. a replica's executor and control process) may share the
// writer, serialized by a virtual-time lock inside Send.
type MailboxWriter struct {
	qp   *QP
	mb   *Mailbox // the consumer half: its region and capacity
	tail uint64   // absolute bytes produced
	head uint64   // shadow of the consumer's published head (waitCredit)

	// mu serializes Send across the producing node's processes.
	mu *sim.Mutex
	// rec is Send's scratch for the framed records of one chain:
	// PostWrites copies every payload before Send yields, and mu admits
	// one Send at a time.
	rec []byte
}

const (
	mailboxHdr   = 8
	mailboxHead  = 0 // offset of the published head
	wrapMarker   = 0xFFFFFFFF
	recordAlign  = 8
	maxRecordLen = 1 << 30
)

// recordPad pads a framed record to recordAlign; the scratch it is framed
// into is reused, and padding must not carry an earlier record's bytes.
var recordPad [recordAlign]byte

// stamp is the last word of every record of lap lap, never zero.
func stamp(lap uint64) uint32 { return uint32(lap%math.MaxUint32) + 1 }

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
	m.reg.mb = m
	return m
}

// Connect returns the producer half for the given producer node. Connect
// must be called exactly once per mailbox (single producer).
func (m *Mailbox) Connect(f *Fabric, producer NodeID) *MailboxWriter {
	return &MailboxWriter{
		qp: f.Connect(producer, m.node.id),
		mb: m,
		mu: sim.NewMutex(f.sched),
	}
}

// place lands a WRITE of data at region offset off: into the head word,
// and into the data pages, taking each page it reaches that is not
// materialized from the fabric's free list and marking the ring in its
// endpoint's ready set (Endpoint.landed). A byte ahead of the head in the
// ring belongs to the head's lap, one behind it to the next lap.
func (m *Mailbox) place(off int, data []byte) {
	if off < mailboxHdr {
		n := copy(m.hdr[off:], data)
		off, data = mailboxHdr, data[n:]
	}
	if len(data) == 0 {
		return
	}
	if m.ep != nil {
		m.ep.mark(m.ring)
	}
	if m.pages == nil {
		m.pages = m.node.fabric.pageTable((m.cap + pageSize - 1) / pageSize)
	}
	for x := off - mailboxHdr; len(data) > 0; {
		lap := m.lap
		if x < m.off {
			lap++
		}
		pg := &m.pages[x/pageSize]
		if pg.buf == nil {
			pg.buf = m.node.fabric.takePage()
		}
		pg.lap = max(pg.lap, lap)
		n := copy(pg.buf[x%pageSize:], data)
		x, data = x+n, data[n:]
	}
}

// read copies the ring's bytes at region offset off into dst.
func (m *Mailbox) read(dst []byte, off int) {
	if off < mailboxHdr {
		n := copy(dst, m.hdr[off:])
		off, dst = mailboxHdr, dst[n:]
	}
	for x := off - mailboxHdr; len(dst) > 0; {
		var n int
		if pg := m.page(x); pg != nil {
			n = copy(dst, pg[x%pageSize:])
		} else {
			n = min(len(dst), pageSize-x%pageSize)
			clear(dst[:n])
		}
		x, dst = x+n, dst[n:]
	}
}

// page returns the materialized page holding ring byte x, or nil.
func (m *Mailbox) page(x int) *[pageSize]byte {
	if m.pages == nil {
		return nil
	}
	return m.pages[x/pageSize].buf
}

// advance moves the head n bytes on, publishes it for the producer's
// credit READ and gives up the ring bytes the head passed (pass).
func (m *Mailbox) advance(n int) {
	m.pass(uint64(n))
	m.head += uint64(n)
	binary.LittleEndian.PutUint64(m.hdr[mailboxHead:], m.head)
}

// pass moves the head's lap and offset n ring bytes on, zeroing the bytes
// it passes where they are materialized and freeing each page whose end it
// reaches unless a WRITE of a later lap has landed in it. A freed page is
// all zero: the head passed every byte of it that its lap wrote.
func (m *Mailbox) pass(n uint64) {
	for n > 0 {
		end := min(m.off&^(pageSize-1)+pageSize, m.cap)
		k := int(min(uint64(end-m.off), n))
		if m.pages != nil {
			if pg := &m.pages[m.off/pageSize]; pg.buf != nil {
				clear(pg.buf[m.off%pageSize : m.off%pageSize+k])
				if m.off+k == end && pg.lap <= m.lap {
					m.node.fabric.putPage(pg.buf)
					*pg = ringPage{}
				}
			}
		}
		m.off += k
		n -= uint64(k)
		if m.off == m.cap {
			m.lap, m.off = m.lap+1, 0
		}
	}
}

// recordSpan returns the ring bytes a payload occupies: its length word,
// the payload, the padding and the stamp.
func recordSpan(n int) int {
	return (4 + n + 4 + recordAlign - 1) &^ (recordAlign - 1)
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
		if n := len(prefix) + len(pl); n > maxRecordLen || recordSpan(n)+recordAlign > w.mb.cap {
			return fmt.Errorf("rdma: mailbox record of %d bytes exceeds ring capacity %d", n, w.mb.cap)
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
// the second starting at offset 0.
func (w *MailboxWriter) postChain(p *sim.Proc, prefix []byte, payloads [][]byte) (int, error) {
	off := int(w.tail % uint64(w.mb.cap))
	var (
		buf   = w.rec[:0]
		pos   = off // ring offset the next record starts at
		lap   = w.tail / uint64(w.mb.cap)
		need  = 0  // ring bytes the chain takes, a skipped lap end included
		split = -1 // where in buf the second WRITE starts; -1 while the lap has not wrapped
		k     = 0
	)
	for ; k < len(payloads); k++ {
		n := len(prefix) + len(payloads[k])
		span := recordSpan(n)
		wraps := pos+span > w.mb.cap
		skip := 0
		if wraps {
			skip = w.mb.cap - pos
		}
		if k > 0 && need+skip+span > w.mb.cap {
			break // the next chain's; a chain within one lap also wraps at most once
		}
		if wraps {
			if skip > 0 {
				buf = binary.LittleEndian.AppendUint32(buf, wrapMarker)
			}
			split, pos, lap = len(buf), 0, lap+1
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n)+1)
		buf = append(buf, prefix...)
		buf = append(buf, payloads[k]...)
		buf = append(buf, recordPad[:span-8-n]...)
		buf = binary.LittleEndian.AppendUint32(buf, stamp(lap))
		pos += span
		need += skip + span
	}
	w.rec = buf[:0] // keep what the scratch grew to
	if err := w.waitCredit(p, need); err != nil {
		return 0, err
	}

	w.tail += uint64(need)
	if split < 0 {
		return k, w.qp.PostWrites(p, WR{w.mb.reg.Addr(mailboxHdr + off), buf})
	}
	return k, w.qp.PostWrites(p, WR{w.mb.reg.Addr(mailboxHdr + off), buf[:split]}, WR{w.mb.reg.Addr(mailboxHdr), buf[split:]})
}

// waitCredit blocks until at least need bytes are free in the ring. Credit
// is fetched on demand: while the shadow head leaves room — all but about
// once a lap — nothing is sent; when it does not, it is refreshed by
// one-sided READs of the consumer's published head until the consumer has
// drained enough. A consumer that is down fails the READ, and one that is
// up but stuck keeps the ring full, for the failure timeout.
func (w *MailboxWriter) waitCredit(p *sim.Proc, need int) error {
	full := func() error { return fmt.Errorf("%w (consumer node %d)", ErrMailboxFull, w.qp.remote.id) }
	deadline := p.Now() + sim.Time(FailureTimeout)
	for int(w.tail-w.head)+need > w.mb.cap {
		if p.Now() >= deadline {
			return full()
		}
		word, err := w.qp.Read(p, w.mb.reg.Addr(mailboxHead), 8)
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

// word returns the 4-aligned word at ring offset x; it lies in one page.
func (m *Mailbox) word(x int) uint32 {
	if pg := m.page(x); pg != nil {
		return binary.LittleEndian.Uint32(pg[x%pageSize:])
	}
	return 0
}

// slot reads the slot at the head: a wrap marker, or a record of n payload
// bytes landed whole; ok is false while its length word or stamp is zero.
// A length the ring could not hold, or another lap's stamp, panics.
func (m *Mailbox) slot() (n int, wrap, ok bool) {
	length := m.word(m.off)
	switch length {
	case 0:
		return 0, false, false
	case wrapMarker:
		return 0, true, true
	}
	n = int(length - 1)
	span := recordSpan(n)
	if n > maxRecordLen || m.off+span > m.cap {
		panic(fmt.Sprintf("rdma: broken ring %v: length word %#x at head %d", m.reg.Addr(0), length, m.head))
	}
	switch st := m.word(m.off + span - 4); st {
	case 0:
		return 0, false, false
	case stamp(m.lap):
		return n, false, true
	default:
		panic(fmt.Sprintf("rdma: broken ring %v: stamp %#x of a %d-byte record at head %d, lap %d", m.reg.Addr(0), st, n, m.head, m.lap))
	}
}

// TryRecv returns the next record without blocking, or ok=false when no
// record has landed whole at the head. The record stays valid until the
// next receive on this mailbox: it is copied out of the ring (the head is
// published here, so the producer may overwrite the ring bytes at once)
// into a buffer the mailbox reuses. A caller that keeps any of it copies
// it.
func (m *Mailbox) TryRecv() ([]byte, bool) {
	for {
		n, wrap, ok := m.slot()
		switch {
		case !ok:
			return nil, false
		case wrap:
			m.advance(m.cap - m.off)
			continue
		}
		m.rec = slices.Grow(m.rec[:0], n)[:n]
		m.read(m.rec, mailboxHdr+m.off+4)
		m.advance(recordSpan(n))
		return m.rec, true
	}
}

// Recv blocks until a record is available. The record stays valid until
// the next receive on this mailbox, as with TryRecv.
func (m *Mailbox) Recv(p *sim.Proc) ([]byte, error) {
	for {
		if rec, ok := m.TryRecv(); ok {
			return rec, nil
		}
		if m.node.crashed {
			return nil, fmt.Errorf("%w: node %d", ErrLocalFailure, m.node.id)
		}
		if m.ready == nil {
			m.ready = func() bool { return m.node.crashed || m.Pending() }
		}
		m.node.writeNotify.WaitFor(p, m.ready)
	}
}

// Pending reports whether TryRecv would do anything at all: a record or a
// wrap marker is at the head. While it is false TryRecv is a pure no-op,
// which is what lets it filter a receiver's wakes.
func (m *Mailbox) Pending() bool {
	_, _, ok := m.slot()
	return ok
}

// reset reinitializes the consumer half: the published head and the head
// cursor return to zero, and every data page goes back to the
// free list, discarding whatever the ring holds. Called when the link to
// the producer is re-established after faults.
func (m *Mailbox) reset() {
	m.hdr = [mailboxHdr]byte{}
	m.head, m.lap, m.off = 0, 0, 0
	for i := range m.pages {
		if pg := &m.pages[i]; pg.buf != nil {
			clear(pg.buf[:])
			m.node.fabric.putPage(pg.buf)
			*pg = ringPage{}
		}
	}
}

// reset reinitializes the ring: the producer's tail and its shadow head
// return to zero, and so does its consumer half (Mailbox.reset).
func (w *MailboxWriter) reset() {
	w.tail, w.head = 0, 0
	w.mb.reset()
}
