// Package obs is the virtual-time observability layer: a span tracer and
// a metrics registry, both stamped from the simulation clock.
//
// Because all protocol logic runs on a deterministic virtual clock, traces
// here are exact rather than sampled: every span boundary is a scheduler
// instant, two runs with the same seed emit byte-identical trace files,
// and a latency histogram is the full population, not a sketch.
//
// Everything is nil-safe: every method on a nil *Observer, *Tracer,
// *Track, *Span, *Metrics, *Counter, *Gauge or *Histogram is a no-op (or
// returns nil), so instrumented code paths carry a single pointer test
// when observability is disabled and zero allocations.
package obs

import "heron/internal/sim"

// Clock supplies the current virtual time. *sim.Scheduler and *sim.Proc
// both satisfy it.
type Clock interface {
	Now() sim.Time
}

// Observer bundles a Tracer and a Metrics registry behind one handle that
// instrumented subsystems accept, with optional name scoping so several
// sub-runs (e.g. the five workloads of Fig. 6) land in one trace file
// under distinct process groups and metric prefixes.
type Observer struct {
	tracer  *Tracer
	metrics *Metrics
	// The critical path, heat and flight instruments are keyed by
	// identity (request id, partition, node) rather than by name, and
	// order their content deterministically at report time.
	critpath *CritPath
	heat     *Heat
	flight   *FlightRecorder
	prefix   string
}

// New returns an observer over the given tracer and metrics registry,
// either of which may be nil. It returns nil when both are nil, so the
// disabled case stays a nil pointer all the way down.
func New(t *Tracer, m *Metrics) *Observer {
	return NewFull(t, m, nil, nil, nil)
}

// NewFull returns an observer over any combination of instruments; nil
// members stay on their zero-cost disabled paths. It returns nil when
// every instrument is nil.
func NewFull(t *Tracer, m *Metrics, cp *CritPath, h *Heat, fr *FlightRecorder) *Observer {
	if t == nil && m == nil && cp == nil && h == nil && fr == nil {
		return nil
	}
	return &Observer{tracer: t, metrics: m, critpath: cp, heat: h, flight: fr}
}

// WithFlight returns an observer like o but carrying fr (o itself is
// not modified; o may be nil). Harnesses that keep the flight recorder
// always armed use this to graft it onto whatever observer the caller
// supplied.
func WithFlight(o *Observer, fr *FlightRecorder) *Observer {
	if o == nil {
		return NewFull(nil, nil, nil, nil, fr)
	}
	c := *o
	c.flight = fr
	return &c
}

// WithHeat returns an observer like o but carrying h (o itself is not
// modified; o may be nil). Harnesses that need the heat feed armed —
// e.g. the open-loop engine's shadow rebalance planner — graft it onto
// whatever observer the caller supplied.
func WithHeat(o *Observer, h *Heat) *Observer {
	if o == nil {
		return NewFull(nil, nil, nil, h, nil)
	}
	c := *o
	c.heat = h
	return &c
}

// Tracer returns the underlying tracer (nil when disabled).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the underlying metrics registry (nil when disabled).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Scope returns a view of the observer whose track process names and
// metric names are prefixed with name + "/". Scopes nest. The critical
// path, heat and flight instruments are identity-keyed, so they pass
// through unprefixed.
func (o *Observer) Scope(name string) *Observer {
	if o == nil {
		return nil
	}
	c := *o
	c.prefix = o.prefix + name + "/"
	return &c
}

// CritPath returns the critical-path engine (nil when disabled).
func (o *Observer) CritPath() *CritPath {
	if o == nil {
		return nil
	}
	return o.critpath
}

// Heat returns the partition-heat collector (nil when disabled).
func (o *Observer) Heat() *Heat {
	if o == nil {
		return nil
	}
	return o.heat
}

// HeatPartition returns partition i's heat collector (nil when
// disabled). Resolve at wiring time.
func (o *Observer) HeatPartition(i int) *PartitionHeat {
	if o == nil {
		return nil
	}
	return o.heat.Partition(i)
}

// Flight returns the flight recorder (nil when disabled).
func (o *Observer) Flight() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.flight
}

// Track registers (or returns) the span track for a (process, thread)
// pair, applying the observer's scope prefix to the process name.
func (o *Observer) Track(process, thread string, clock Clock) *Track {
	if o == nil {
		return nil
	}
	return o.tracer.Track(o.prefix+process, thread, clock)
}

// Counter returns the named counter, applying the scope prefix.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.metrics.Counter(o.prefix + name)
}

// Gauge returns the named gauge, applying the scope prefix.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.metrics.Gauge(o.prefix + name)
}

// Histogram returns the named latency histogram, applying the scope
// prefix.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.metrics.Histogram(o.prefix + name)
}
