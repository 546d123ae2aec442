package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"heron/internal/sim"
)

// Per-partition heat telemetry: each partition accumulates throughput,
// queue-depth and latency figures that roll into a time series on a
// fixed virtual-time cadence, plus a space-saving top-k sketch of the
// hottest keys. The report is the input format for a load-driven
// auto-rebalancing loop: per partition, "how hot, how backed up, how
// skewed, and trending which way".
//
// Rolling is lazy — samples are cut when a record call crosses a cadence
// boundary, and Report flushes the final partial interval — so the
// series needs no timer processes and stays deterministic.

// HeatSample is one cadence interval of one partition.
type HeatSample struct {
	AtNS      int64  `json:"at_ns"` // interval start
	Executed  uint64 `json:"executed"`
	QueueMax  int64  `json:"queue_max"`
	MeanLatNS int64  `json:"mean_lat_ns"`
	MaxLatNS  int64  `json:"max_lat_ns"`
}

// KeyCount is one entry of the top-k sketch. Err bounds the
// overestimation inherited from the counter the key displaced.
type KeyCount struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// PartitionHeat accumulates one partition's telemetry. All methods are
// no-ops on a nil receiver.
type PartitionHeat struct {
	cadence  sim.Duration
	nextTick sim.Time
	samples  []HeatSample

	// Current-interval accumulators.
	executed uint64
	latSum   int64
	latMax   int64
	latCount uint64
	queueMax int64

	total uint64 // executed across all intervals

	// Space-saving sketch state: entries plus a key index. k is small,
	// so min-replacement is a linear scan. Counts halve every
	// DefaultSketchDecayWindows cadence intervals (zeroed entries are
	// evicted), so a key that stops being touched ages out of the sketch
	// instead of shadowing the current hotspot forever: the rebalancer
	// must never split at a boundary a past flash crowd picked.
	k        int
	entries  []KeyCount
	keyIdx   map[uint64]int
	decayCtr int
}

// roll cuts samples for every cadence boundary passed by now.
func (ph *PartitionHeat) roll(now sim.Time) {
	for now >= ph.nextTick {
		s := HeatSample{
			AtNS:     int64(ph.nextTick - sim.Time(ph.cadence)),
			Executed: ph.executed,
			QueueMax: ph.queueMax,
			MaxLatNS: ph.latMax,
		}
		if ph.latCount > 0 {
			s.MeanLatNS = ph.latSum / int64(ph.latCount)
		}
		ph.samples = append(ph.samples, s)
		ph.executed, ph.latSum, ph.latMax, ph.latCount, ph.queueMax = 0, 0, 0, 0, 0
		ph.nextTick += sim.Time(ph.cadence)
		ph.decaySketch()
	}
}

// decaySketch ages the sketch by one cadence window: every
// DefaultSketchDecayWindows windows all counts (and error bounds) halve
// and entries that reach zero are evicted, preserving slot order so
// replacement stays deterministic.
func (ph *PartitionHeat) decaySketch() {
	if len(ph.entries) == 0 {
		return
	}
	ph.decayCtr++
	if ph.decayCtr < DefaultSketchDecayWindows {
		return
	}
	ph.decayCtr = 0
	kept := ph.entries[:0]
	for _, e := range ph.entries {
		e.Count /= 2
		e.Err /= 2
		if e.Count > 0 {
			kept = append(kept, e)
		}
	}
	ph.entries = kept
	for key := range ph.keyIdx {
		delete(ph.keyIdx, key)
	}
	for i, e := range ph.entries {
		ph.keyIdx[e.Key] = i
	}
}

// RecordExec records one completed request with its service latency.
func (ph *PartitionHeat) RecordExec(now sim.Time, lat sim.Duration) {
	if ph == nil {
		return
	}
	ph.roll(now)
	ph.executed++
	ph.total++
	v := int64(lat)
	if v < 0 {
		v = 0
	}
	ph.latSum += v
	ph.latCount++
	if v > ph.latMax {
		ph.latMax = v
	}
}

// RecordQueue records an observed queue depth (pending deliveries,
// pump backlog); the interval keeps the maximum.
func (ph *PartitionHeat) RecordQueue(now sim.Time, depth int) {
	if ph == nil {
		return
	}
	ph.roll(now)
	if int64(depth) > ph.queueMax {
		ph.queueMax = int64(depth)
	}
}

// Touch feeds one key access into the space-saving top-k sketch.
func (ph *PartitionHeat) Touch(key uint64) {
	if ph == nil || ph.k == 0 {
		return
	}
	if i, ok := ph.keyIdx[key]; ok {
		ph.entries[i].Count++
		return
	}
	if len(ph.entries) < ph.k {
		ph.keyIdx[key] = len(ph.entries)
		ph.entries = append(ph.entries, KeyCount{Key: key, Count: 1})
		return
	}
	// Replace the minimum counter (first minimum in slot order, which is
	// deterministic), inheriting its count as the error bound.
	min := 0
	for i := 1; i < len(ph.entries); i++ {
		if ph.entries[i].Count < ph.entries[min].Count {
			min = i
		}
	}
	old := ph.entries[min]
	delete(ph.keyIdx, old.Key)
	ph.keyIdx[key] = min
	ph.entries[min] = KeyCount{Key: key, Count: old.Count + 1, Err: old.Count}
}

// TopKeys returns the sketch sorted by count descending (then error
// ascending, then key ascending).
func (ph *PartitionHeat) TopKeys() []KeyCount {
	if ph == nil {
		return nil
	}
	out := make([]KeyCount, len(ph.entries))
	copy(out, ph.entries)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Err != out[j].Err {
			return out[i].Err < out[j].Err
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Heat owns all partitions' telemetry for one run.
type Heat struct {
	cadence sim.Duration
	topK    int
	parts   []*PartitionHeat
}

// DefaultSketchDecayWindows is the sketch half-life in cadence windows:
// counts halve every this many intervals, so a key untouched for a few
// half-lives drops out of the sketch entirely.
const DefaultSketchDecayWindows = 4

// NewHeat creates a heat collector with the given sampling cadence and
// sketch width. Partitions are materialized by Partition; resolve them
// at deployment wiring time. The hot-key sketch decays with
// DefaultSketchDecayWindows.
func NewHeat(partitions int, cadence sim.Duration, topK int) *Heat {
	if partitions < 1 {
		partitions = 1
	}
	if cadence <= 0 {
		cadence = 100 * sim.Microsecond
	}
	if topK < 0 {
		topK = 0
	}
	h := &Heat{cadence: cadence, topK: topK, parts: make([]*PartitionHeat, partitions)}
	for i := range h.parts {
		h.parts[i] = &PartitionHeat{
			cadence:  cadence,
			nextTick: sim.Time(cadence),
			k:        topK,
			keyIdx:   make(map[uint64]int, topK),
		}
	}
	return h
}

// Partition returns partition i's collector (clamped into range;
// nil-safe).
func (h *Heat) Partition(i int) *PartitionHeat {
	if h == nil {
		return nil
	}
	if i < 0 || i >= len(h.parts) {
		i = 0
	}
	return h.parts[i]
}

// PartitionHeatReport is one partition's serialized series.
type PartitionHeatReport struct {
	Partition int          `json:"partition"`
	Executed  uint64       `json:"executed"`
	Samples   []HeatSample `json:"samples,omitempty"`
	TopKeys   []KeyCount   `json:"top_keys,omitempty"`
}

// HeatReport is the full telemetry snapshot, the format the
// auto-rebalancing policy loop consumes.
type HeatReport struct {
	CadenceNS  int64                 `json:"cadence_ns"`
	Partitions []PartitionHeatReport `json:"partitions"`
}

// Report flushes every partition up to end and serializes the series,
// partitions in index order. The output depends only on recorded
// content, so same-seed runs produce byte-identical reports.
func (h *Heat) Report(end sim.Time) *HeatReport {
	if h == nil {
		return &HeatReport{}
	}
	r := &HeatReport{CadenceNS: int64(h.cadence)}
	for i, ph := range h.parts {
		ph.roll(end)
		pr := PartitionHeatReport{Partition: i, Executed: ph.total, TopKeys: ph.TopKeys()}
		// Trim the idle tail: keep up to the last active sample.
		last := -1
		for j, s := range ph.samples {
			if s.Executed > 0 || s.QueueMax > 0 {
				last = j
			}
		}
		if last >= 0 {
			pr.Samples = append(pr.Samples, ph.samples[:last+1]...)
		}
		r.Partitions = append(r.Partitions, pr)
	}
	return r
}

// HeatSub is an incremental subscription over a Heat collector: each Poll
// returns only the cadence samples cut since the previous Poll, plus the
// current (decayed) hot-key sketch. It is the feed a policy loop consumes
// on its own cadence — pull-based, so the collector needs no timers and
// the consumer decides the decision tick.
type HeatSub struct {
	h      *Heat
	cursor []int // per partition: samples already delivered
}

// Subscribe returns a new incremental subscription (nil-safe). Multiple
// subscriptions are independent: each keeps its own cursor.
func (h *Heat) Subscribe() *HeatSub {
	if h == nil {
		return nil
	}
	return &HeatSub{h: h, cursor: make([]int, len(h.parts))}
}

// Poll rolls every partition up to now and returns the samples cut since
// the previous Poll, in partition index order. The report's TopKeys carry
// the sketch as of now. Nil-safe: a nil subscription returns an empty
// report.
func (s *HeatSub) Poll(now sim.Time) *HeatReport {
	if s == nil {
		return &HeatReport{}
	}
	r := &HeatReport{CadenceNS: int64(s.h.cadence)}
	for i, ph := range s.h.parts {
		ph.roll(now)
		pr := PartitionHeatReport{Partition: i, Executed: ph.total, TopKeys: ph.TopKeys()}
		if n := len(ph.samples); n > s.cursor[i] {
			pr.Samples = append(pr.Samples, ph.samples[s.cursor[i]:n]...)
			s.cursor[i] = n
		}
		r.Partitions = append(r.Partitions, pr)
	}
	return r
}

// WriteJSON writes the report as deterministic indented JSON.
func (r *HeatReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Format renders a per-partition summary table.
func (r *HeatReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition heat (cadence %s):\n", fmtDur(sim.Duration(r.CadenceNS)))
	fmt.Fprintf(&b, "%-10s %10s %8s %10s %10s  %s\n",
		"partition", "executed", "samples", "peak_rps", "queue_max", "hottest keys")
	for _, p := range r.Partitions {
		var peak uint64
		var qmax int64
		for _, s := range p.Samples {
			if s.Executed > peak {
				peak = s.Executed
			}
			if s.QueueMax > qmax {
				qmax = s.QueueMax
			}
		}
		peakRPS := float64(peak) / (float64(r.CadenceNS) / 1e9)
		var keys []string
		for i, k := range p.TopKeys {
			if i == 3 {
				break
			}
			keys = append(keys, fmt.Sprintf("%d(×%d)", k.Key, k.Count))
		}
		fmt.Fprintf(&b, "%-10d %10d %8d %10.0f %10d  %s\n",
			p.Partition, p.Executed, len(p.Samples), peakRPS, qmax, strings.Join(keys, " "))
	}
	return b.String()
}
