// Package rdma simulates an RDMA fabric with one-sided verbs.
//
// The fabric models what Heron consumes from a real RDMA NIC (Mellanox
// ConnectX-4 in the paper): registered memory regions, reliable-connection
// queue pairs, one-sided READ and WRITE, and failure semantics
// (operations against a crashed node fail with an RDMA exception after a
// timeout). One-sidedness is preserved exactly: a READ or WRITE never
// runs code on the target node; it observes or mutates the target's
// registered memory at the operation's completion instant on the virtual
// clock.
//
// Latency follows a calibrated model: a per-verb base latency plus a
// payload/bandwidth term, with per-NIC occupancy so that saturating a node
// queues operations and throughput caps realistically. The constants are
// calibrated to published ConnectX-4 numbers (~1.6 us small READ, 25 Gb/s
// line rate, ~10 M verbs/s per NIC).
package rdma

import (
	"errors"
	"fmt"
	"math/rand"

	"heron/internal/obs"
	"heron/internal/sim"
)

// NodeID identifies a node (one NIC) on the fabric.
type NodeID int

// RKey identifies a registered memory region within a node.
type RKey uint32

// Addr names a remote memory location: a region on a node plus a byte
// offset into that region.
type Addr struct {
	Node NodeID
	Key  RKey
	Off  int
}

// String implements fmt.Stringer for diagnostics.
func (a Addr) String() string { return fmt.Sprintf("n%d/r%d+%d", a.Node, a.Key, a.Off) }

// Fabric errors.
var (
	// ErrRemoteFailure is the RDMA exception surfaced when the target node
	// has crashed; it is reported after FailureTimeout.
	ErrRemoteFailure = errors.New("rdma: remote node failure")
	// ErrNoSuchRegion is returned when the target rkey is not registered.
	ErrNoSuchRegion = errors.New("rdma: no such memory region")
	// ErrOutOfBounds is returned when an access exceeds the region.
	ErrOutOfBounds = errors.New("rdma: access out of region bounds")
	// ErrLocalFailure is returned when the issuing node has crashed.
	ErrLocalFailure = errors.New("rdma: local node failure")
)

// The fabric's latency and occupancy model, calibrated to the paper's
// testbed (Mellanox ConnectX-4, 25 Gb/s; DESIGN §1 lists each value with
// its source). It is a fact of the simulated hardware, not a setting.
const (
	// ReadBase is the base latency of a small one-sided READ.
	ReadBase = 1600 * sim.Nanosecond
	// WriteBase is the base latency of a small one-sided WRITE (until the
	// payload is visible in target memory; completion at the issuer takes
	// the same time under RC).
	WriteBase = 1150 * sim.Nanosecond
	// BytesPerNS is the line rate in bytes per nanosecond
	// (25 Gb/s = 3.125 B/ns).
	BytesPerNS = 3.125
	// VerbOverhead is the per-operation NIC occupancy, bounding verb rate
	// (~105 ns = 9.5 M verbs/s).
	VerbOverhead = 105 * sim.Nanosecond
	// FailureTimeout is how long an operation against a crashed node takes
	// to surface ErrRemoteFailure (RC retransmission exhaustion).
	FailureTimeout = 200 * sim.Microsecond
	// RetransmitTimeout (RC's transport timer, 4.096 µs · 2²) and
	// RetryCount (the InfiniBand maximum) price a lossy link: QP.transmit.
	RetransmitTimeout = 16384 * sim.Nanosecond
	RetryCount        = 7
	// PostOverhead is the CPU cost at the issuer to post a work request
	// without waiting for completion.
	PostOverhead = 90 * sim.Nanosecond
)

// Config is empty: the latency model is the constants above. It exists
// only because benchmark/ passes DefaultConfig() to NewFabric and
// multicast.NewDomainCluster.
type Config struct{}

// DefaultConfig returns the empty Config; see Config.
func DefaultConfig() Config { return Config{} }

// Fabric is a set of nodes connected by simulated RDMA.
type Fabric struct {
	sched *sim.Scheduler
	nodes map[NodeID]*Node
	obs   *obs.Observer

	// Per-link fault state and the seeded RNG driving jitter/drop draws
	// (see faults.go).
	faults map[linkKey]*linkFault
	frng   *rand.Rand
	// resetHooks fire when a path is re-established (Fabric.resetLink) so
	// transports can reinitialize desynchronized ring state.
	resetHooks []func(a, b NodeID)
	// resets counts the resets of each node pair (pairKey): its QPs'
	// incarnation (QP.incarnation). Nil until the first reset.
	resets map[linkKey]uint64

	// pages is the free list of ring pages (Mailbox.place), every one
	// zeroed: a page the head has passed comes back here for any ring of
	// the fabric, so the list holds at most what the rings once held
	// together.
	pages []*[pageSize]byte
	// tables is what is left of the slab the rings' page tables are cut
	// from (pageTable).
	tables []ringPage
}

// tableSlab is how many page-table entries the fabric allocates at once:
// the tables of 64 rings of 64 KiB, the transports' size.
const tableSlab = 1024

// pageTable returns n zeroed page-table entries for a ring's first data
// WRITE (Mailbox.place), cut from a slab: a ring that carries nothing
// costs no table, and one that does costs no allocation of its own.
func (f *Fabric) pageTable(n int) []ringPage {
	if len(f.tables) < n {
		f.tables = make([]ringPage, max(n, tableSlab))
	}
	t := f.tables[:n:n]
	f.tables = f.tables[n:]
	return t
}

// takePage returns a zeroed ring page, allocating one only when the free
// list is empty.
func (f *Fabric) takePage() *[pageSize]byte {
	n := len(f.pages)
	if n == 0 {
		return new([pageSize]byte)
	}
	pg := f.pages[n-1]
	f.pages[n-1] = nil
	f.pages = f.pages[:n-1]
	return pg
}

// putPage returns a zeroed ring page to the free list.
func (f *Fabric) putPage(pg *[pageSize]byte) { f.pages = append(f.pages, pg) }

// NewFabric creates a fabric over the given scheduler. Its Config
// argument is empty (see Config).
func NewFabric(s *sim.Scheduler, _ Config) *Fabric {
	return &Fabric{
		sched:  s,
		nodes:  make(map[NodeID]*Node),
		faults: make(map[linkKey]*linkFault),
	}
}

// Scheduler returns the underlying virtual-time scheduler.
func (f *Fabric) Scheduler() *sim.Scheduler { return f.sched }

// Observe attaches an observability layer to the fabric. Instruments are
// resolved lazily per node and per QP on first use, so Observe may be
// called before or after nodes are added and QPs connected. A nil
// observer (the default) keeps every verb's instrumentation down to a
// pointer test.
func (f *Fabric) Observe(o *obs.Observer) { f.obs = o }

// AddNode registers a node (one NIC) on the fabric. Adding the same id
// twice panics: node identity is a static configuration error.
func (f *Fabric) AddNode(id NodeID) *Node {
	if _, dup := f.nodes[id]; dup {
		panic(fmt.Sprintf("rdma: duplicate node %d", id))
	}
	n := &Node{
		id:          id,
		fabric:      f,
		regions:     make(map[RKey]*Region),
		writeNotify: sim.NewCond(f.sched),
	}
	f.nodes[id] = n
	return n
}

// Node returns the node with the given id, or nil.
func (f *Fabric) Node(id NodeID) *Node { return f.nodes[id] }

// admit returns the virtual instant at which a verb of the given payload
// size begins service on the node's NIC, and advances the NIC's busy
// horizon: a verb occupies the NIC for VerbOverhead + payload/line-rate,
// and while it is busy later verbs queue.
func (n *Node) admit(now sim.Time, size int) sim.Time {
	start := max(now, n.nicFree)
	occ := sim.Time(VerbOverhead) + sim.Time(float64(size)/BytesPerNS)
	n.nicFree = start + occ
	if io := n.o(); io != nil {
		io.nicBusy.Add(uint64(occ))
		io.nicVerbs.Inc()
	}
	return start
}

// Node is a machine on the fabric with registered memory and a NIC.
type Node struct {
	id      NodeID
	fabric  *Fabric
	crashed bool
	regions map[RKey]*Region
	nextKey RKey
	// nicFree is when the NIC finishes the verbs admitted so far (admit).
	nicFree sim.Time

	// writeNotify is broadcast whenever a remote WRITE commits into
	// this node's memory. Replicas use it to wait on coordination memory
	// without busy-polling the virtual clock.
	writeNotify *sim.Cond

	// io holds lazily resolved observability instruments; nil until the
	// fabric has an observer and the node issues its first verb.
	io *nodeObs
}

// nodeObs bundles a node's observability instruments. The track shares
// the node's process group with the protocol layer (thread "nic"), so
// in-flight verbs render alongside the request lifecycle in the trace.
type nodeObs struct {
	track   *obs.Track
	nicWait *obs.Histogram
	// nicBusy and nicVerbs are the NIC's occupancy, in virtual ns, and the
	// verbs it served, issued here or targeting here: busy time over the
	// window is the NIC's utilisation, beside what verbs waited (nicWait).
	nicBusy, nicVerbs *obs.Counter
}

// o resolves (once) the node's instruments, returning nil while
// observability is disabled.
func (n *Node) o() *nodeObs {
	if n.io == nil && n.fabric.obs != nil {
		ob := n.fabric.obs
		n.io = &nodeObs{
			track:    ob.Track(fmt.Sprintf("node%d", n.id), "nic", n.fabric.sched),
			nicWait:  ob.Histogram(fmt.Sprintf("rdma/n%d/nic_wait", n.id)),
			nicBusy:  ob.Counter(fmt.Sprintf("rdma/n%d/nic_busy_ns", n.id)),
			nicVerbs: ob.Counter(fmt.Sprintf("rdma/n%d/nic_verbs", n.id)),
		}
	}
	return n.io
}

// ID returns the node id.
func (n *Node) ID() NodeID { return n.id }

// Crashed reports whether the node has been crash-injected.
func (n *Node) Crashed() bool { return n.crashed }

// Crash marks the node failed: all subsequent (and in-flight) operations
// targeting it fail with ErrRemoteFailure, and operations it issues fail
// with ErrLocalFailure. The caller is responsible for killing processes
// hosted on the node.
func (n *Node) Crash() {
	n.crashed = true
	// Wake local waiters so hosted processes observe the crash promptly.
	n.writeNotify.Broadcast()
}

// Recover rejoins a crashed node to the fabric: registered memory
// survives (the regions are re-registered with the NIC, keeping their
// rkeys, as the paper's recovery path assumes), and link-reset hooks
// fire for every peer so transports reinitialize rings whose producer
// and consumer cursors desynchronized while writes to the dead node were
// dropped. The caller then runs the recovery path (state transfer) to
// catch the hosted replica up.
func (n *Node) Recover() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.fabric.resetNodeLinks(n.id)
	n.writeNotify.Broadcast()
}

// WriteNotify returns the condition broadcast after every remote write
// into this node's memory.
func (n *Node) WriteNotify() *sim.Cond { return n.writeNotify }

// RegisterRegion registers size bytes of RDMA-accessible memory and
// returns the region. Nothing is allocated yet: a region materializes as
// far as it is touched (Region.mem).
func (n *Node) RegisterRegion(size int) *Region {
	n.nextKey++
	r := &Region{node: n, key: n.nextKey, size: size}
	n.regions[n.nextKey] = r
	return r
}

// Region is a registered memory region, remotely readable and writable.
type Region struct {
	node *Node
	key  RKey
	size int
	// buf is the materialized prefix [0, len(buf)): bytes past it were
	// never touched and read as zero. Use mem.
	buf []byte
	// mb is the mailbox whose ring this region carries, nil for any other
	// region. A ring keeps its memory in the mailbox (Mailbox.place), never
	// in buf, and no caller outside rdma gets its region: Bytes and
	// BytesTo are for the others.
	mb *Mailbox
}

// pageSize is the granule registered memory materializes in, as an
// operating system backs a demand-zeroed mapping page by page.
const pageSize = 4096

// mem returns the region's first end bytes, materializing them on demand.
// Registered memory is demand-zeroed, and a region costs only the prefix
// its accesses reached, in whole pages: a replica's 8 MB aux staging area
// after a transfer of a few hundred bytes holds a page, not its size. The
// prefix at least quadruples as it grows, and takes the whole region once
// it would cover half of it, so a region that fills grows a handful of
// times and copies each byte O(1) times amortized. A growth moves the
// prefix: what mem returns is valid until the next call that grows the
// region, and only Bytes, which materializes all of it, hands out memory
// that never moves. A ring region has no prefix (Mailbox.place).
func (r *Region) mem(end int) []byte {
	if end > len(r.buf) {
		n := max((end+pageSize-1)&^(pageSize-1), 4*len(r.buf))
		if n >= r.size/2 {
			n = r.size
		}
		buf := make([]byte, n)
		copy(buf, r.buf)
		r.buf = buf
	}
	return r.buf[:end]
}

// write lands data at off, as a WRITE's DMA does.
func (r *Region) write(off int, data []byte) {
	if r.mb != nil {
		r.mb.place(off, data)
		return
	}
	copy(r.mem(off + len(data))[off:], data)
}

// read copies the bytes at off into dst, as a READ's DMA does.
func (r *Region) read(dst []byte, off int) {
	if r.mb != nil {
		r.mb.read(dst, off)
		return
	}
	copy(dst, r.mem(off + len(dst))[off:])
}

// Len returns the region size in bytes.
func (r *Region) Len() int { return r.size }

// Addr returns the fabric-wide address of offset off within the region.
func (r *Region) Addr(off int) Addr { return Addr{Node: r.node.id, Key: r.key, Off: off} }

// Bytes exposes the region's backing memory for local (same-node) access:
// the full-length slice, materialized at once, which never moves
// afterwards, so a caller may keep it. Local access is free: the host CPU
// reads and writes its own DRAM.
func (r *Region) Bytes() []byte { return r.mem(r.size) }

// BytesTo exposes the region's first n bytes for local access,
// materializing only those. The slice is valid until an access past the
// materialized prefix grows the region; a caller that keeps the bytes
// copies them, or holds Bytes instead.
func (r *Region) BytesTo(n int) []byte { return r.mem(n) }
