package obs

import "heron/internal/sim"

// Tracer collects spans and instants across all tracks of one run. It is
// not safe for concurrent use from OS threads; the simulation kernel runs
// exactly one process at a time, which is the intended usage.
type Tracer struct {
	tracks []*Track
	byKey  map[trackKey]*Track
	// pids maps a process name to its pid; tids counts threads per pid.
	pids map[string]int
	tids map[int]int

	events []Event
	nextID uint64
}

type trackKey struct{ process, thread string }

// Event phases, mirroring the Chrome trace_event phase letters.
const (
	PhaseComplete   = 'X' // span with ts + dur
	PhaseAsyncBegin = 'b' // async span begin (paired by ID)
	PhaseAsyncEnd   = 'e' // async span end
	PhaseInstant    = 'i'
	PhaseCounter    = 'C'
)

// Event is one recorded trace event.
type Event struct {
	Phase byte
	Name  string
	Cat   string
	Ts    sim.Time
	Dur   sim.Duration
	Pid   int
	Tid   int
	ID    uint64 // nonzero for async pairs
	Args  map[string]any
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		byKey: make(map[trackKey]*Track),
		pids:  make(map[string]int),
		tids:  make(map[int]int),
	}
}

// Track returns (registering on first use) the track for a (process,
// thread) pair. Pids and tids are assigned in first-seen order, which is
// deterministic under the simulation.
func (t *Tracer) Track(process, thread string, clock Clock) *Track {
	if t == nil {
		return nil
	}
	k := trackKey{process, thread}
	if tk, ok := t.byKey[k]; ok {
		return tk
	}
	pid, ok := t.pids[process]
	if !ok {
		pid = len(t.pids) + 1
		t.pids[process] = pid
	}
	t.tids[pid]++
	tk := &Track{t: t, clock: clock, process: process, thread: thread, pid: pid, tid: t.tids[pid]}
	t.byKey[k] = tk
	t.tracks = append(t.tracks, tk)
	return tk
}

// Events returns the recorded events in append order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// record appends one event.
func (t *Tracer) record(ev Event) { t.events = append(t.events, ev) }

// Track is one timeline: a (process, thread) pair in the Chrome trace
// model. Heron maps fabric nodes to processes and the node's simulation
// processes (NIC, executor, control, multicast) to threads.
type Track struct {
	t       *Tracer
	clock   Clock
	process string
	thread  string
	pid     int
	tid     int
}

// Begin opens a synchronous nested span on the track. Synchronous spans
// must strictly nest per track (end before their parent), which holds
// when a track is only used from its own simulation process.
func (tk *Track) Begin(name string) *Span {
	if tk == nil {
		return nil
	}
	return &Span{tk: tk, name: name, start: tk.clock.Now()}
}

// BeginAsync opens an asynchronous span: it may overlap other spans on
// the track and may be ended from a different simulation process (e.g. a
// posted RDMA verb ending at its completion event). cat groups related
// async spans in the viewer.
func (tk *Track) BeginAsync(cat, name string) *Span {
	if tk == nil {
		return nil
	}
	tk.t.nextID++
	sp := &Span{tk: tk, name: name, cat: cat, id: tk.t.nextID, start: tk.clock.Now()}
	tk.t.record(Event{Phase: PhaseAsyncBegin, Name: name, Cat: cat, Ts: sp.start, Pid: tk.pid, Tid: tk.tid, ID: sp.id})
	return sp
}

// Instant records a zero-duration marker event.
func (tk *Track) Instant(name string, args map[string]any) {
	if tk == nil {
		return
	}
	tk.t.record(Event{Phase: PhaseInstant, Name: name, Ts: tk.clock.Now(), Pid: tk.pid, Tid: tk.tid, Args: args})
}

// Count records a counter sample, rendered as a time series in the
// viewer (e.g. queue depth over virtual time).
func (tk *Track) Count(name string, value float64) {
	if tk == nil {
		return
	}
	tk.t.record(Event{Phase: PhaseCounter, Name: name, Ts: tk.clock.Now(), Pid: tk.pid, Tid: tk.tid,
		Args: map[string]any{"value": value}})
}

// Span is one open span. End it exactly once; a nil span ignores all
// calls.
type Span struct {
	tk    *Track
	name  string
	cat   string
	start sim.Time
	id    uint64
	args  map[string]any
	ended bool
}

// Arg attaches a key/value argument shown in the viewer. It returns the
// span for chaining.
func (sp *Span) Arg(key string, v any) *Span {
	if sp == nil {
		return nil
	}
	if sp.args == nil {
		sp.args = make(map[string]any, 4)
	}
	sp.args[key] = v
	return sp
}

// End closes the span at the current virtual time.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	tk := sp.tk
	now := tk.clock.Now()
	if sp.id != 0 {
		tk.t.record(Event{Phase: PhaseAsyncEnd, Name: sp.name, Cat: sp.cat, Ts: now, Pid: tk.pid, Tid: tk.tid, ID: sp.id, Args: sp.args})
	} else {
		tk.t.record(Event{Phase: PhaseComplete, Name: sp.name, Ts: sp.start, Dur: sim.Duration(now - sp.start), Pid: tk.pid, Tid: tk.tid, Args: sp.args})
	}
}
