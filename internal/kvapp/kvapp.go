// Package kvapp is the one register workload the verification harnesses
// (chaos, reconfig, rebalance) run under faults and hand to lincheck: a
// deterministic key-value application whose sequential specification the
// checker can state directly. A request reads a set of objects and writes
// a set of objects; every written value is the sum of the read values plus
// a request-supplied constant, and the response is that sum.
//
// The package holds the request codec, the value codec, the key layout,
// the application, its lincheck.Model, the History that records a run's
// operations and decides its verdict, and the bring-up and client loop
// the harnesses share (Deploy, Run.Drive). internal/core's tests keep a
// private copy of the app and model: an internal test of core cannot
// import a package that imports core.
package kvapp

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"heron/internal/core"
	"heron/internal/lincheck"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/wire"
)

// Req is one read-sum-write request.
type Req struct {
	Reads  []store.OID
	Writes []store.OID
	Add    uint64
}

// Encode serializes the request: the read count and OIDs, the write count
// and OIDs, Add, and a trailing zero word (a CPU-cost field this workload
// never sets). The size of the payload is part of every replay, so the
// layout must not drift.
func (r *Req) Encode() []byte {
	w := wire.NewWriter(24 + 8*(len(r.Reads)+len(r.Writes)))
	w.U32(uint32(len(r.Reads)))
	for _, oid := range r.Reads {
		w.U64(uint64(oid))
	}
	w.U32(uint32(len(r.Writes)))
	for _, oid := range r.Writes {
		w.U64(uint64(oid))
	}
	w.U64(r.Add)
	w.U64(0)
	return w.Finish()
}

// OIDs returns the reads followed by the writes: every object whose home
// a router must reach.
func (r *Req) OIDs() []store.OID {
	return append(append([]store.OID(nil), r.Reads...), r.Writes...)
}

// Decode parses a payload written by Encode.
func Decode(b []byte) *Req {
	r := wire.NewReader(b)
	req := &Req{}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		req.Reads = append(req.Reads, store.OID(r.U64()))
	}
	n = int(r.U32())
	for i := 0; i < n; i++ {
		req.Writes = append(req.Writes, store.OID(r.U64()))
	}
	req.Add = r.U64()
	return req
}

// EncodeVal encodes v zero-padded to n bytes (at least 8), so store-size
// sweeps can scale the durable footprint without changing the checked
// semantics.
func EncodeVal(v uint64, n int) []byte {
	out := make([]byte, valSize(n))
	binary.LittleEndian.PutUint64(out, v)
	return out
}

// DecodeVal reads the leading 8 bytes, so padded and unpadded values
// decode identically.
func DecodeVal(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func valSize(n int) int { return max(n, 8) }

// OID builds an OID whose high 32 bits name the owning partition.
func OID(part core.PartitionID, key uint32) store.OID {
	return store.OID(uint64(part)<<32 | uint64(key))
}

// Partitioner maps an OID built by OID to its owning partition.
var Partitioner = core.PartitionerFunc(func(oid store.OID) core.PartitionID {
	return core.PartitionID(uint64(oid) >> 32)
})

// PartitionKeys returns OID(p, k) for every partition p < parts and key
// k < keys, partition by partition.
func PartitionKeys(parts, keys int) []store.OID {
	var oids []store.OID
	for p := 0; p < parts; p++ {
		for k := 0; k < keys; k++ {
			oids = append(oids, OID(core.PartitionID(p), uint32(k)))
		}
	}
	return oids
}

// Keys returns the plain key indices 0..n-1 as OIDs: the layout whose
// ownership a routing table, not the OID's bits, decides.
func Keys(n int) []store.OID {
	oids := make([]store.OID, n)
	for k := range oids {
		oids[k] = store.OID(k)
	}
	return oids
}

// SlotCapacity sizes a replica store for keys objects at valBytes.
func SlotCapacity(keys, valBytes int) int {
	return keys*store.SlotSize(valSize(valBytes)) + 1<<12
}

// Populate registers every oid, in the given order, on each replica of
// the partition owner assigns it to, with a zero value of valBytes.
func Populate(d *core.Deployment, owner core.Partitioner, oids []store.OID, valBytes int) error {
	zero := EncodeVal(0, valBytes)
	return d.PopulateAll(func(part core.PartitionID, _ int, rep *core.Replica) error {
		for _, oid := range oids {
			if owner.PartitionOf(oid) != part {
				continue
			}
			if err := rep.Store().Register(oid, len(zero)); err != nil {
				return err
			}
			if err := rep.Store().Init(oid, zero); err != nil {
				return err
			}
		}
		return nil
	})
}

type app struct {
	owner    core.Partitioner
	part     core.PartitionID
	valBytes int
	// aux mirrors the writes to objects owner assigns to this partition
	// outside the store, exercising the auxiliary-state half of state
	// transfer on every recovery.
	aux map[store.OID]uint64
}

// New returns the application factory: values are padded to valBytes,
// and owner decides which written objects the aux mirror keeps.
func New(owner core.Partitioner, valBytes int) core.AppFactory {
	return func(part core.PartitionID, _ int) core.Application {
		return &app{owner: owner, part: part, valBytes: valBytes, aux: make(map[store.OID]uint64)}
	}
}

func (a *app) ReadSet(req *core.Request) []store.OID {
	return Decode(req.Payload).Reads
}

func (a *app) Execute(ctx *core.ExecContext) core.Outcome {
	req := Decode(ctx.Req.Payload)
	sum := req.Add
	for _, oid := range req.Reads {
		sum += DecodeVal(ctx.Values[oid])
	}
	out := core.Outcome{Response: EncodeVal(sum, 8)}
	for _, oid := range req.Writes {
		out.Writes = append(out.Writes, core.Write{OID: oid, Val: EncodeVal(sum, a.valBytes)})
		if a.owner.PartitionOf(oid) == a.part {
			a.aux[oid] = sum
		}
	}
	return out
}

// HeatKey implements core.HeatKeyer: the first written (else first read)
// object id, so the rebalance planner's sketch keys are OIDs. It runs on
// the host only.
func (a *app) HeatKey(req *core.Request) uint64 {
	r := Decode(req.Payload)
	if len(r.Writes) > 0 {
		return uint64(r.Writes[0])
	}
	if len(r.Reads) > 0 {
		return uint64(r.Reads[0])
	}
	return 0
}

// SnapshotAux / ApplyAux implement core.AuxSyncer: full dump and replace
// of the mirror map, so recoveries also move auxiliary state.
func (a *app) SnapshotAux(fromTmp, toTmp uint64) []byte {
	w := wire.NewWriter(4 + 16*len(a.aux))
	w.U32(uint32(len(a.aux)))
	for oid, v := range a.aux {
		w.U64(uint64(oid))
		w.U64(v)
	}
	return w.Finish()
}

func (a *app) ApplyAux(data []byte) {
	r := wire.NewReader(data)
	n := int(r.U32())
	m := make(map[store.OID]uint64, n)
	for i := 0; i < n; i++ {
		oid := store.OID(r.U64())
		m[oid] = r.U64()
	}
	if r.Err() == nil {
		a.aux = m
	}
}

var (
	_ core.AuxSyncer = (*app)(nil)
	_ core.HeatKeyer = (*app)(nil)
)

// Model is the sequential specification for the checker: the state maps
// OIDs to values; an operation sums its reads plus Add, stores the sum
// into every write, and returns the sum. Routing is invisible here, so
// under reconfiguration a linearizable history is also the proof that
// every object had exactly one authoritative home.
func Model() lincheck.Model {
	type state = map[store.OID]uint64
	return lincheck.Model{
		Init: func() any { return state{} },
		Step: func(st any, input any) (any, any) {
			s := st.(state)
			req := input.(*Req)
			sum := req.Add
			for _, oid := range req.Reads {
				sum += s[oid]
			}
			c := make(state, len(s))
			for k, v := range s {
				c[k] = v
			}
			for _, oid := range req.Writes {
				c[oid] = sum
			}
			return c, sum
		},
		Hash: func(st any) string {
			s := st.(state)
			keys := slices.Sorted(maps.Keys(s))
			var out []byte
			for _, k := range keys {
				out = strconv.AppendUint(out, uint64(k), 10)
				out = append(out, '=')
				out = strconv.AppendUint(out, s[k], 10)
				out = append(out, ';')
			}
			return string(out)
		},
		EqualOutput: func(observed, model any) bool {
			return observed.(uint64) == model.(uint64)
		},
	}
}

// History records one run's client operations with their virtual-time
// intervals. Client procs run in virtual time, so appends never race.
type History struct {
	// Ops counts operations that reached a clean outcome; Failed those
	// among them that timed out.
	Ops, Failed int

	want int
	ops  []lincheck.Operation
}

// NewHistory returns the history of clients × opsPerClient operations,
// or an error naming harness when that exceeds the checker's 64-op
// bound.
func NewHistory(harness string, clients, opsPerClient int) (*History, error) {
	n := clients * opsPerClient
	if n > 64 {
		return nil, fmt.Errorf("%s: %d operations exceed the checker's 64-op bound", harness, n)
	}
	return &History{want: n}, nil
}

// Do runs one operation of client: submit returns the observed sum, or
// false when the operation timed out. Do reports whether it completed.
func (h *History) Do(p *sim.Proc, client int, req *Req, submit func() (uint64, bool)) bool {
	call := int64(p.Now())
	out, ok := submit()
	h.Ops++
	if !ok {
		h.Failed++
		return false
	}
	h.ops = append(h.ops, lincheck.Operation{
		ClientID: client,
		Input:    req,
		Output:   out,
		Call:     call,
		Return:   int64(p.Now()),
	})
	return true
}

// Done reports whether every operation reached an outcome.
func (h *History) Done() bool { return h.Ops == h.want }

// Verdict decides the run. It leaves the history unchecked, with err
// set, when an operation was still in flight at the horizon, when some
// timed out (a maybe-executed operation cannot be expressed to the
// checker, so the run degrades instead of claiming a vacuous verdict), or
// when the checker refused the history. linearizable is only meaningful
// when checked.
func (h *History) Verdict() (checked, linearizable bool, err string) {
	if pending := h.want - h.Ops; pending > 0 {
		return false, false, fmt.Sprintf("%d operations still in flight at the horizon", pending)
	}
	if h.Failed > 0 {
		return false, false, fmt.Sprintf("%d of %d operations timed out (degraded, unchecked)", h.Failed, h.Ops)
	}
	ok, cerr := lincheck.Check(Model(), h.ops)
	if cerr != nil {
		return false, false, cerr.Error()
	}
	return true, ok, ""
}
