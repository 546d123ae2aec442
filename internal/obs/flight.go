package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"heron/internal/sim"
)

// Always-on flight recorder: a fixed-size ring buffer of cheap binary
// event records. Recording one event is a couple of integer
// stores into a preallocated ring — no allocation, no formatting, no
// branching on configuration beyond one nil test — so the recorder can
// stay armed on every run. When a trigger fires (lincheck violation,
// chaos crash, simulation deadlock, latency outlier) the ring is dumped
// as a Chrome trace_event / Perfetto file, so the failure ships with the
// protocol-level history that led up to it.

// FlightKind classifies one flight record.
type FlightKind uint8

const (
	FltSubmit        FlightKind = iota // client/pump handed a request to the multicast
	FltDeliver                         // atomic multicast delivered a message
	FltCommit                          // proposal committed at a group leader
	FltViewChange                      // multicast view change
	FltExec                            // replica finished executing a request
	FltStateTransfer                   // replica ran a state transfer
	FltCrash                           // fault injection: node crash
	FltRecover                         // fault injection: node recovery
	FltPartition                       // fault injection: link partition
	FltHeal                            // fault injection: link heal
	FltSlowLink                        // fault injection: link degradation
	FltReconfig                        // reconfiguration event fired
	FltCheckpoint                      // durable checkpoint written
	FltVerbError                       // rdma verb posting/completion error
	FltOutlier                         // latency outlier trigger marker
	FltCompaction                      // lsm background compaction committed

	fltCount
)

var fltNames = [fltCount]string{
	"submit", "deliver", "commit", "view_change", "exec", "state_transfer",
	"crash", "recover", "partition", "heal", "slow_link", "reconfig",
	"checkpoint", "verb_error", "outlier", "compaction",
}

// String names the kind for the dumped trace.
func (k FlightKind) String() string {
	if int(k) < len(fltNames) {
		return fltNames[k]
	}
	return fmt.Sprintf("flight(%d)", int(k))
}

// FlightRec is one binary event record: 32 bytes, no pointers.
type FlightRec struct {
	At   sim.Time
	A, B uint64 // kind-specific payload (ids, timestamps, byte counts)
	Node uint32 // originating fabric node (0 when not node-scoped)
	Kind FlightKind
}

// FlightRecorder is one run's ring. The ring buffer is allocated lazily
// on first record, so an armed-but-silent recorder costs a few words.
// All methods are no-ops on a nil recorder.
type FlightRecorder struct {
	buf     []FlightRec
	cap     int
	next    int
	wrapped bool
}

// NewFlightRecorder creates a recorder whose ring keeps the last capacity
// records (at least 16).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{cap: max(capacity, 16)}
}

// Record appends one event, overwriting the oldest once the ring is full.
func (f *FlightRecorder) Record(at sim.Time, kind FlightKind, node uint32, a, b uint64) {
	if f == nil {
		return
	}
	if f.buf == nil {
		f.buf = make([]FlightRec, f.cap)
	}
	f.buf[f.next] = FlightRec{At: at, Kind: kind, Node: node, A: a, B: b}
	f.next++
	if f.next == f.cap {
		f.next = 0
		f.wrapped = true
	}
}

// Len returns the number of live records in the ring.
func (f *FlightRecorder) Len() int {
	if f == nil || f.buf == nil {
		return 0
	}
	if f.wrapped {
		return f.cap
	}
	return f.next
}

// records returns a copy of the live records, oldest first.
func (f *FlightRecorder) records() []FlightRec {
	if f == nil || f.buf == nil {
		return nil
	}
	out := make([]FlightRec, 0, f.Len())
	if f.wrapped {
		out = append(out, f.buf[f.next:]...)
	}
	return append(out, f.buf[:f.next]...)
}

// WriteTrace dumps the ring as a Chrome trace_event file (loadable in
// chrome://tracing and Perfetto): one "flight" process with a thread per
// fabric node, every record an instant event carrying its payload.
// reason labels the dump in a metadata header. Records are written in a
// content-determined order — (time, node, kind, payload) — so the same
// recorded history serializes to the same bytes whatever order it was
// recorded in.
func (f *FlightRecorder) WriteTrace(w io.Writer, reason string) error {
	recs := f.records()
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})

	out := []jsonEvent{{Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "flight-recorder", "reason": reason}}}
	seenTid := make(map[int]bool)
	for _, r := range recs {
		tid := int(r.Node) + 1
		if !seenTid[tid] {
			seenTid[tid] = true
			out = append(out, jsonEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("node%d", r.Node)}})
		}
		out = append(out, jsonEvent{
			Name: r.Kind.String(),
			Cat:  "flight",
			Ph:   "i",
			S:    "t",
			Ts:   usec(r.At),
			Pid:  1,
			Tid:  tid,
			Args: map[string]any{"a": r.A, "b": r.B},
		})
	}
	return writeTraceEvents(w, out)
}

// DumpFile writes the trace to dir/name, creating dir if needed, and
// returns the full path.
func (f *FlightRecorder) DumpFile(dir, name, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := f.WriteTrace(fh, reason); err != nil {
		fh.Close()
		return "", err
	}
	return path, fh.Close()
}
