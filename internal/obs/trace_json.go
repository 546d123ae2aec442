package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"heron/internal/sim"
)

// Chrome trace_event JSON export (the "JSON Array Format" with an object
// wrapper), loadable in chrome://tracing and Perfetto. Timestamps are
// microseconds with nanosecond fractions; the virtual clock is exact, so
// the emitted file is byte-identical across same-seed runs.

// jsonEvent is the wire form of one trace event. Field order fixes the
// output byte layout; Args maps marshal with sorted keys, so the whole
// file is deterministic.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// usec converts virtual nanoseconds to trace microseconds.
func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteJSON writes the full trace: per-track metadata events followed by
// all span/instant/counter events sorted by timestamp (stable, so
// same-instant events keep their causal append order).
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[]}`)
		return err
	}
	var out []jsonEvent

	// Metadata: one process_name per pid, one thread_name per track.
	seenPid := make(map[int]bool)
	for _, tk := range t.tracks {
		if !seenPid[tk.pid] {
			seenPid[tk.pid] = true
			out = append(out, jsonEvent{Name: "process_name", Ph: "M", Pid: tk.pid, Tid: 0,
				Args: map[string]any{"name": tk.process}})
		}
		out = append(out, jsonEvent{Name: "thread_name", Ph: "M", Pid: tk.pid, Tid: tk.tid,
			Args: map[string]any{"name": tk.thread}})
	}

	evs := make([]Event, len(t.events))
	copy(evs, t.events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	for _, ev := range evs {
		je := jsonEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   string(ev.Phase),
			Ts:   usec(ev.Ts),
			Pid:  ev.Pid,
			Tid:  ev.Tid,
			Args: ev.Args,
		}
		switch ev.Phase {
		case PhaseComplete:
			d := usec(sim.Time(ev.Dur))
			je.Dur = &d
		case PhaseAsyncBegin, PhaseAsyncEnd:
			je.ID = fmt.Sprintf("0x%x", ev.ID)
			if je.Cat == "" {
				je.Cat = "async"
			}
		case PhaseInstant:
			je.S = "t"
		}
		out = append(out, je)
	}

	return writeTraceEvents(w, out)
}

// writeTraceEvents emits the trace_event wrapper with one event per
// line. Field order and sorted Args keys fix the byte layout.
func writeTraceEvents(w io.Writer, out []jsonEvent) error {
	if len(out) == 0 {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[]}`)
		return err
	}
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, je := range out {
		b, err := json.Marshal(je)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// fmtDur renders a virtual duration compactly.
func fmtDur(d sim.Duration) string {
	switch {
	case d < sim.Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < sim.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(sim.Microsecond))
	case d < sim.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(sim.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(sim.Second))
	}
}
