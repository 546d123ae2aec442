// Package rdma simulates an RDMA fabric with one-sided verbs.
//
// The fabric models what Heron consumes from a real RDMA NIC (Mellanox
// ConnectX-4 in the paper): registered memory regions, reliable-connection
// queue pairs, one-sided READ / WRITE / atomic compare-and-swap, and
// failure semantics (operations against a crashed node fail with an RDMA
// exception after a timeout). One-sidedness is preserved exactly: a READ
// or WRITE never runs code on the target node; it observes or mutates the
// target's registered memory at the operation's completion instant on the
// virtual clock.
//
// Latency follows a calibrated model: a per-verb base latency plus a
// payload/bandwidth term, with per-NIC occupancy so that saturating a node
// queues operations and throughput caps realistically. Defaults are
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
	// has crashed; it is reported after Config.FailureTimeout.
	ErrRemoteFailure = errors.New("rdma: remote node failure")
	// ErrNoSuchRegion is returned when the target rkey is not registered.
	ErrNoSuchRegion = errors.New("rdma: no such memory region")
	// ErrOutOfBounds is returned when an access exceeds the region.
	ErrOutOfBounds = errors.New("rdma: access out of region bounds")
	// ErrLocalFailure is returned when the issuing node has crashed.
	ErrLocalFailure = errors.New("rdma: local node failure")
	// ErrCASMisaligned is returned for atomics not on 8-byte boundaries.
	ErrCASMisaligned = errors.New("rdma: atomic access must be 8-byte aligned")
)

// Config is the fabric latency/occupancy model.
type Config struct {
	// ReadBase is the base latency of a small one-sided READ.
	ReadBase sim.Duration
	// WriteBase is the base latency of a small one-sided WRITE (until the
	// payload is visible in target memory; completion at the issuer takes
	// the same time under RC).
	WriteBase sim.Duration
	// CASBase is the base latency of an atomic compare-and-swap.
	CASBase sim.Duration
	// SendBase is the base latency of a two-sided SEND until the payload
	// is available to the target's receive queue. Two-sided verbs involve
	// the remote CPU, hence the higher base than WRITE.
	SendBase sim.Duration
	// BytesPerNS is the line rate in bytes per nanosecond
	// (25 Gb/s = 3.125 B/ns).
	BytesPerNS float64
	// VerbOverhead is the per-operation NIC occupancy, bounding verb rate
	// (~105 ns = 9.5 M verbs/s).
	VerbOverhead sim.Duration
	// FailureTimeout is how long an operation against a crashed node takes
	// to surface ErrRemoteFailure (RC retransmission timeout).
	FailureTimeout sim.Duration
	// PostOverhead is the CPU cost at the issuer to post a work request
	// without waiting for completion.
	PostOverhead sim.Duration
}

// DefaultConfig returns latency parameters calibrated to the paper's
// testbed (ConnectX-4, 25 Gb/s).
func DefaultConfig() Config {
	return Config{
		ReadBase:       1600 * sim.Nanosecond,
		WriteBase:      1150 * sim.Nanosecond,
		CASBase:        1700 * sim.Nanosecond,
		SendBase:       2600 * sim.Nanosecond,
		BytesPerNS:     3.125,
		VerbOverhead:   105 * sim.Nanosecond,
		FailureTimeout: 200 * sim.Microsecond,
		PostOverhead:   90 * sim.Nanosecond,
	}
}

// Fabric is a set of nodes connected by simulated RDMA.
type Fabric struct {
	sched *sim.Scheduler
	cfg   Config
	nodes map[NodeID]*Node
	obs   *obs.Observer

	// Per-link fault state and the seeded RNG driving jitter/drop draws
	// (see faults.go).
	faults map[linkKey]*linkFault
	frng   *rand.Rand
	// resetHooks fire when a path is re-established (heal, node recovery)
	// so transports can reinitialize desynchronized ring state.
	resetHooks []func(a, b NodeID)
}

// NewFabric creates a fabric over the given scheduler.
func NewFabric(s *sim.Scheduler, cfg Config) *Fabric {
	if cfg.BytesPerNS <= 0 {
		cfg.BytesPerNS = 3.125
	}
	return &Fabric{
		sched:  s,
		cfg:    cfg,
		nodes:  make(map[NodeID]*Node),
		faults: make(map[linkKey]*linkFault),
	}
}

// Scheduler returns the underlying virtual-time scheduler.
func (f *Fabric) Scheduler() *sim.Scheduler { return f.sched }

// Config returns the fabric's latency model.
func (f *Fabric) Config() Config { return f.cfg }

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
		inbox:       sim.NewChan[Message](f.sched),
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
	cfg := &n.fabric.cfg
	start := max(now, n.nicFree)
	occ := sim.Time(cfg.VerbOverhead) + sim.Time(float64(size)/cfg.BytesPerNS)
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

	// writeNotify is broadcast whenever a remote WRITE or CAS commits into
	// this node's memory. Replicas use it to wait on coordination memory
	// without busy-polling the virtual clock.
	writeNotify *sim.Cond

	// inbox receives two-sided SENDs (control plane only).
	inbox *sim.Chan[Message]

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
	n.inbox.Close()
}

// Recover rejoins a crashed node to the fabric: registered memory
// survives (the regions are re-registered with the NIC, keeping their
// rkeys, as the paper's recovery path assumes), the two-sided inbox is
// recreated (the old receive queue died with the node), and link-reset
// hooks fire for every peer so transports reinitialize rings whose
// producer and consumer cursors desynchronized while writes to the dead
// node were dropped. The caller then runs the recovery path (state
// transfer) to catch the hosted replica up.
func (n *Node) Recover() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.inbox = sim.NewChan[Message](n.fabric.sched)
	n.fabric.resetNodeLinks(n.id)
	n.writeNotify.Broadcast()
}

// WriteNotify returns the condition broadcast after every remote write
// into this node's memory.
func (n *Node) WriteNotify() *sim.Cond { return n.writeNotify }

// RegisterRegion allocates and registers size bytes of RDMA-accessible
// memory and returns the region.
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
	// buf is nil until the region is first touched; use mem().
	buf []byte
}

// mem returns the region's bytes, materializing them on first touch:
// registered memory is demand-zeroed, so a large region that nobody
// writes (a replica's 8 MB aux staging area outside a state transfer)
// costs nothing to set up or to keep.
func (r *Region) mem() []byte {
	if r.buf == nil {
		r.buf = make([]byte, r.size)
	}
	return r.buf
}

// Key returns the region's rkey.
func (r *Region) Key() RKey { return r.key }

// Len returns the region size in bytes.
func (r *Region) Len() int { return r.size }

// Addr returns the fabric-wide address of offset off within the region.
func (r *Region) Addr(off int) Addr { return Addr{Node: r.node.id, Key: r.key, Off: off} }

// Bytes exposes the region's backing memory for local (same-node) access.
// Local access is free: the host CPU reads and writes its own DRAM.
func (r *Region) Bytes() []byte { return r.mem() }

// Message is a two-sided SEND payload (control plane).
type Message struct {
	From    NodeID
	Payload any
}

// Inbox returns the node's receive queue for two-sided SENDs.
func (n *Node) Inbox() *sim.Chan[Message] { return n.inbox }
