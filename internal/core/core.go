// Package core implements Heron: partitioned state machine replication on
// shared memory (Eslahi-Kelorazi, Le, Pedone — DSN 2023).
//
// Application state is partitioned; each partition is a multicast group
// of 2f+1 replicas. Clients atomically multicast requests to the involved
// partitions. Single-partition requests execute as in classic SMR, in
// delivery order. Multi-partition requests add two coordination phases
// around execution (Algorithm 1):
//
//	Phase 2: before executing request R, a replica writes a coordination
//	  record into every replica of every involved partition and waits
//	  until a majority of each involved partition has reached R — which
//	  guarantees their state reflects everything ordered before R.
//	Phase 3: execution — the replica reads local objects from its store
//	  and remote objects with one-sided RDMA reads against replicas that
//	  coordinated in Phase 2, selecting versions with Heron's dual-
//	  versioning rule; it updates local objects only.
//	Phase 4: a second coordination round ensures no replica starts a
//	  later request before every involved partition finished R, keeping
//	  remote reads of subsequent requests consistent.
//
// Coordinating with majorities (not all replicas) avoids blocking on
// failures but admits laggers — replicas left behind their partition.
// A lagger detects itself when a remote read finds no object version
// older than its current request, and recovers with the state transfer
// protocol (Algorithm 3) over the partition's update logs. An optional
// cut-off delay after each majority wait reduces lagger probability
// (Section V-E1 / Table I).
package core

import (
	"fmt"

	"heron/internal/multicast"
	"heron/internal/sim"
	"heron/internal/store"
)

// PartitionID identifies a partition; partitions map 1:1 onto multicast
// groups.
type PartitionID = multicast.GroupID

// Request is a client request as delivered by atomic multicast.
type Request struct {
	ID      multicast.MsgID
	Ts      multicast.Timestamp
	Dst     []multicast.GroupID // the delivery's shared list: read-only
	Payload []byte
}

// MultiPartition reports whether the request involves several partitions.
func (r *Request) MultiPartition() bool { return len(r.Dst) > 1 }

// Write is one local object update produced by request execution.
type Write struct {
	OID store.OID
	Val []byte
}

// ExecContext carries everything an application needs to execute a
// request deterministically: the request, the executing partition, and
// the values of the read set (local and remote reads already resolved by
// the core). A missing object maps to nil.
//
// Lifetime rule: Req, Values, LocalGet results, Alloc'd bytes and the
// Outcome's Writes and Response are valid until the request's writes are
// applied and its reply is sent. The core reuses one context, with its
// arena and write list, for every request an executing proc runs, so an
// application that keeps any of these bytes past Execute copies them.
type ExecContext struct {
	Req       *Request
	Partition PartitionID
	Values    map[store.OID][]byte

	localGet  func(oid store.OID) ([]byte, bool)
	localGets int
	// arena holds the request's local reads and everything the
	// application Allocs; writes is the list WriteList hands out.
	arena  arena
	writes []Write
}

// NewExecContext builds an execution context outside the Heron replica —
// used by the DynaStar baseline, whose executing partition runs the same
// Application against migrated object values. The context owns an arena
// of its own that is never reset, so what Alloc hands out stays valid.
func NewExecContext(req *Request, part PartitionID, values map[store.OID][]byte,
	localGet func(oid store.OID) ([]byte, bool)) *ExecContext {
	return &ExecContext{Req: req, Partition: part, Values: values, localGet: localGet}
}

// LocalGets returns how many LocalGet calls execution made (for cost
// accounting by non-Heron harnesses).
func (ctx *ExecContext) LocalGets() int { return ctx.localGets }

// LocalGet reads a local object whose identity is only known during
// execution (e.g. TPCC Delivery's customer, determined by the oldest
// undelivered order). It must only be used for objects of the executing
// partition — remote objects have to be in the estimated read set, per
// Heron's one-shot execution model. The read observes the version the
// executing request must see; per-read CPU is charged by the core after
// execution. The value lives in the context's arena (the lifetime rule).
func (ctx *ExecContext) LocalGet(oid store.OID) ([]byte, bool) {
	ctx.localGets++
	if ctx.localGet == nil {
		return nil, false
	}
	return ctx.localGet(oid)
}

// Alloc returns n zeroed bytes from the context's arena, capped so an
// append cannot spill into the next allocation. They are valid under the
// lifetime rule: a row or response built in them may be returned in the
// Outcome, and nothing else may keep them.
func (ctx *ExecContext) Alloc(n int) []byte {
	b := ctx.arena.take(n)
	clear(b)
	return b
}

// WriteList returns an empty write list with room for n writes, for the
// Outcome. The context reuses its backing array for the next request (the
// lifetime rule).
func (ctx *ExecContext) WriteList(n int) []Write {
	if cap(ctx.writes) < n {
		ctx.writes = make([]Write, 0, n)
	}
	return ctx.writes[:0]
}

// arena hands out byte slices from one buffer that reset makes free again.
// A slice handed out before a reset must be dead by then. When the buffer
// is full, take starts a larger one; slices still in use keep the old one
// alive, and reset keeps only the newest, so a reused arena soon holds a
// whole request.
type arena struct {
	buf []byte
}

// take returns n bytes of the arena, not zeroed, with capacity n.
func (a *arena) take(n int) []byte {
	off := len(a.buf)
	if off+n > cap(a.buf) {
		a.buf = make([]byte, 0, max(2*cap(a.buf), n))
		off = 0
	}
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}

// clone copies b into the arena.
func (a *arena) clone(b []byte) []byte {
	out := a.take(len(b))
	copy(out, b)
	return out
}

func (a *arena) reset() { a.buf = a.buf[:0] }

// Outcome is the result of application execution. CPU is the modeled
// compute time of the transaction logic ((de)serialization, business
// logic); the core charges it to the replica's virtual clock between the
// reading and writing phases.
type Outcome struct {
	Writes   []Write
	Response []byte
	CPU      sim.Duration
}

// Application is the replicated service. Implementations must be
// deterministic: every replica of a partition must produce identical
// writes for the same request sequence. Execute's context, and every byte
// it hands out, is reused for the next request (ExecContext's lifetime
// rule): an application that keeps bytes copies them.
//
// Heron assumes one-shot requests: the read set is computable from the
// request alone, execution has a reading phase followed by a writing
// phase, and writes target only the executing replica's partition
// (Section III-A). Writes to non-local objects are ignored by the core.
type Application interface {
	// ReadSet lists the objects the request reads. It must be a pure
	// function of the request: the executor calls it once while the
	// request is still queued, to fetch remote addresses ahead, and again
	// when executing it.
	ReadSet(req *Request) []store.OID
	// Execute computes writes and the client response from the read
	// values.
	Execute(ctx *ExecContext) Outcome
}

// AuxSyncer is an optional Application extension for state kept outside
// the RDMA-registered store (the paper's non-serialized tables, e.g. TPCC
// tables held in hash maps). During state transfer the responder
// serializes this state and the lagger applies it; both charge the
// modeled (de)serialization CPU through the returned costs.
type AuxSyncer interface {
	// SnapshotAux serializes auxiliary state modified by requests in
	// (fromTmp, toTmp]. fromTmp 0 means a full snapshot.
	SnapshotAux(fromTmp, toTmp uint64) []byte
	// ApplyAux installs a snapshot produced by SnapshotAux on a peer.
	ApplyAux(data []byte)
}

// Partitioner maps objects to partitions (the paper's application-defined
// partitioning method, query_mapping).
type Partitioner interface {
	PartitionOf(oid store.OID) PartitionID
}

// PartitionerFunc adapts a function to the Partitioner interface.
type PartitionerFunc func(oid store.OID) PartitionID

// PartitionOf implements Partitioner.
func (f PartitionerFunc) PartitionOf(oid store.OID) PartitionID { return f(oid) }

// TraceRecord is per-request instrumentation emitted to a Tracer.
type TraceRecord struct {
	// Delivered is when atomic multicast handed the request over.
	Delivered sim.Time
	// Done is when the replica finished the request (before replying).
	Done sim.Time
	// CoordPhase2 and CoordPhase4 are the coordination wait times.
	CoordPhase2 sim.Duration
	CoordPhase4 sim.Duration
	// Exec is the execution time (reads + compute + writes).
	Exec sim.Duration
	// Delayed reports that at the instant the majority condition held,
	// coordination records were not yet present from all replicas
	// (Table I numerator), in phase 4.
	Delayed bool
	// DelayWait is how long the replica then waited for the remaining
	// records (bounded by the cut-off delay).
	DelayWait sim.Duration
	// MultiPartition mirrors the request shape for aggregation.
	MultiPartition bool
}

// Tracer observes request completions on a replica. Implementations must
// be cheap; they run inline on the replica's virtual-time path.
type Tracer interface {
	RequestDone(part PartitionID, rank int, id multicast.MsgID, rec TraceRecord)
}

// Config parameterizes a Heron deployment.
type Config struct {
	// Multicast is the ordering layer configuration; its group layout
	// defines the partitions and replica placement.
	Multicast multicast.Config
	// StoreCapacity is the per-replica object region size in bytes.
	StoreCapacity int
	// CutoffDelay is the extra time a replica tentatively waits for
	// coordination records from all replicas after a majority is present
	// (0 disables the heuristic). Per the paper only phase 4 needs it.
	CutoffDelay sim.Duration
	// ExecWorkers enables multi-threaded execution of non-conflicting
	// single-partition requests when > 1 (Section III-D.1's extension).
	// Requires the application to implement ConflictEstimator; requests
	// with unestimable conflict sets and all multi-partition requests
	// execute serially as barriers.
	ExecWorkers int
	// AuxStagingCap is the staging region size for auxiliary-state
	// transfer.
	AuxStagingCap int
	// MaxPartitions / MaxGroupSize cap how far elastic reconfiguration may
	// grow the deployment. They size the coordination and state-transfer
	// regions, whose strides must be identical on every replica ever
	// created, so they are normalized once at deployment creation and a
	// reconfiguration may never exceed them. Zero means "the initial
	// layout's size" (a static deployment pays nothing extra).
	MaxPartitions int
	MaxGroupSize  int
}

// The paper-calibrated cost model and protocol timeouts, which no
// deployment varies.
const (
	// ringCap is the control-plane transport ring size.
	ringCap = 1 << 16
	// dispatchCPU is charged per delivered request (decode, bookkeeping).
	dispatchCPU = 300 * sim.Nanosecond
	// localReadCPU / localWriteCPU are charged per local object access.
	localReadCPU  = 120 * sim.Nanosecond
	localWriteCPU = 200 * sim.Nanosecond
	// queryTimeout bounds one round of object-address queries before the
	// replica retransmits them.
	queryTimeout = 500 * sim.Microsecond
	// stateTransferChunk is the RDMA write payload for state transfer.
	stateTransferChunk = 32 << 10
	// stateTransferTimeout is how long replicas wait for the designated
	// responder before the next one takes over (Algorithm 3, timeout).
	stateTransferTimeout = 2 * sim.Millisecond
	// serializeBytesPerNS / deserializeBytesPerNS model the CPU rate of
	// (de)serializing auxiliary state (Fig. 8's second scenario): ~0.9
	// GB/s and 1.2 GB/s match the paper's 32.4 MB in 72.5 ms.
	serializeBytesPerNS   = 0.9
	deserializeBytesPerNS = 1.2
)

// DefaultConfig returns a configuration for the given multicast layout.
func DefaultConfig(mc multicast.Config) Config {
	return Config{
		Multicast:     mc,
		StoreCapacity: 1 << 26,
		CutoffDelay:   10 * sim.Microsecond,
		AuxStagingCap: 8 << 20,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Multicast.Validate(); err != nil {
		return err
	}
	if c.StoreCapacity <= 0 {
		return fmt.Errorf("core: non-positive store capacity")
	}
	return nil
}
