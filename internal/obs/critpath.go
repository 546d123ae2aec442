package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"heron/internal/sim"
)

// Causal critical-path engine. Instrumented subsystems record, per
// request, timestamped marks (submit, delivered, done, complete) and
// named leaf intervals (nic_wait, addr_resolve, coordination waits,
// app_execute, ...) keyed by the request's multicast id — the causal
// edge that links the client, the ordering layer, and every involved
// replica. Profile then reassembles each request's interval set, walks
// it backward from completion, and attributes every nanosecond of
// end-to-end latency to exactly one segment; residual gaps no interval
// explains go to "other", so the per-request segment sum always equals
// the measured end-to-end latency.
//
// Recording appends to one buffer per run, and Profile regroups it by
// request in a content-determined order, so the aggregated profile
// depends only on what was recorded, never on the order it was appended
// in: same-seed runs produce byte-identical output.

// ReqID identifies one request across nodes: the submitting client's
// fabric node and its multicast sequence number (multicast.MsgID, kept
// as plain integers so obs stays dependency-free).
type ReqID struct {
	Node uint64 `json:"node"`
	Seq  uint64 `json:"seq"`
}

// Segment names one attributed slice of a request's lifetime. Mark
// segments (submit..complete) carry instants; the rest are leaf
// intervals recorded by instrumented code, except ordering, reply and
// other, which Profile synthesizes from the marks.
type Segment uint8

const (
	// Marks (instants, not intervals).
	SegSubmit    Segment = iota // client handed the request to the multicast
	SegSent                     // multicast posting started (= submit unless queued first)
	SegDelivered                // an involved replica received the ordered request
	SegDone                     // an involved replica finished executing (before replying)
	SegComplete                 // client collected the last needed response

	// Leaf intervals recorded by instrumented code.
	SegPumpWait      // open-loop backlog: generated arrival waiting in a pump
	SegCoord2Wait    // phase-2 coordination write + quorum wait
	SegAddrResolve   // batched object-address quorum round
	SegReadPost      // posting the pipelined one-sided READs
	SegNicWait       // completion-queue wait for the posted READs
	SegVersionSelect // dual-version decode and selection
	SegLocalRead     // local read-set resolution
	SegAppExecute    // application execute (compute + local gets)
	SegWriteApply    // applying the write set to the local store
	SegCoord4Wait    // phase-4 coordination write + quorum wait (incl. cut-off delay)
	SegLeaseWait     // reply deferred behind the partition lease gate

	// Synthesized by Profile.
	SegOrdering // sent (or submit) -> earliest delivery: the atomic multicast
	SegReply    // latest done -> complete: response network + client collect
	SegOther    // residual end-to-end time no interval explains

	segCount
)

var segNames = [segCount]string{
	"submit", "sent", "delivered", "done", "complete",
	"pump_wait", "coord2_wait", "addr_resolve", "read_post", "nic_wait",
	"version_select", "local_read", "app_execute", "write_apply",
	"coord4_wait", "lease_wait",
	"ordering", "reply", "other",
}

// String names the segment for reports.
func (s Segment) String() string {
	if int(s) < len(segNames) {
		return segNames[s]
	}
	return fmt.Sprintf("segment(%d)", int(s))
}

// cpRecord is one recorded mark (start == end) or interval.
type cpRecord struct {
	id    ReqID
	seg   Segment
	start sim.Time
	end   sim.Time
}

// CritPath is one run's append-only record buffer. The scheduler runs
// one event at a time, so instrumented code records without locking.
// All methods are no-ops on a nil engine.
type CritPath struct {
	recs []cpRecord
}

// NewCritPath creates an engine. Its unused int parameter stays only
// because benchmark/workloads.go calls NewCritPath(1).
func NewCritPath(int) *CritPath { return &CritPath{} }

// Mark records an instant for the request.
func (c *CritPath) Mark(id ReqID, seg Segment, at sim.Time) {
	if c == nil {
		return
	}
	c.recs = append(c.recs, cpRecord{id: id, seg: seg, start: at, end: at})
}

// Record records one leaf interval. Empty or inverted intervals are
// dropped: they cannot carry latency.
func (c *CritPath) Record(id ReqID, seg Segment, start, end sim.Time) {
	if c == nil || end <= start {
		return
	}
	c.recs = append(c.recs, cpRecord{id: id, seg: seg, start: start, end: end})
}

// Len returns the number of records.
func (c *CritPath) Len() int {
	if c == nil {
		return 0
	}
	return len(c.recs)
}

// SegmentStat aggregates one segment's contribution.
type SegmentStat struct {
	Name    string  `json:"name"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  int64   `json:"mean_ns"`
	Count   int     `json:"count"` // requests where the segment contributed
	Pct     float64 `json:"pct"`   // share of total attributed latency
}

// CPOutlier is one slowest-N request with its own attribution.
type CPOutlier struct {
	ID       ReqID         `json:"id"`
	E2ENS    int64         `json:"e2e_ns"`
	Segments []SegmentStat `json:"segments"`
}

// CPProfile is the deterministic latency-attribution profile of a run.
type CPProfile struct {
	Requests     int           `json:"requests"`   // requests with a submit mark
	Attributed   int           `json:"attributed"` // requests with submit and complete
	TotalE2ENS   int64         `json:"total_e2e_ns"`
	MeanE2ENS    int64         `json:"mean_e2e_ns"`
	SegmentSumNS int64         `json:"segment_sum_ns"` // == TotalE2ENS by construction
	Segments     []SegmentStat `json:"segments"`
	Slowest      []CPOutlier   `json:"slowest,omitempty"`
}

// cpInterval is one clipped interval during the walk.
type cpInterval struct {
	seg        Segment
	start, end sim.Time
}

// Profile groups the records by request and attributes each request's
// end-to-end latency across segments via a backward critical-path walk,
// returning the aggregate plus the slowestN slowest requests with their
// own breakdowns. The result depends only on recorded content, never on
// the order records were appended in.
func (c *CritPath) Profile(slowestN int) *CPProfile {
	p := &CPProfile{}
	if c == nil {
		return p
	}
	byID := make(map[ReqID][]cpRecord)
	var ids []ReqID
	for _, r := range c.recs {
		if _, ok := byID[r.id]; !ok {
			ids = append(ids, r.id)
		}
		byID[r.id] = append(byID[r.id], r)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Node != ids[j].Node {
			return ids[i].Node < ids[j].Node
		}
		return ids[i].Seq < ids[j].Seq
	})

	type reqAttr struct {
		id     ReqID
		e2e    int64
		perSeg [segCount]int64
	}
	var attrs []reqAttr
	var totSeg [segCount]int64
	var totCount [segCount]int

	for _, id := range ids {
		recs := byID[id]
		// Resolve marks: earliest submit/sent/delivered, latest done/complete.
		var submit, sent, delivered, done, complete sim.Time
		var haveSubmit, haveSent, haveDelivered, haveDone, haveComplete bool
		for _, r := range recs {
			switch r.seg {
			case SegSubmit:
				if !haveSubmit || r.start < submit {
					submit, haveSubmit = r.start, true
				}
			case SegSent:
				if !haveSent || r.start < sent {
					sent, haveSent = r.start, true
				}
			case SegDelivered:
				if !haveDelivered || r.start < delivered {
					delivered, haveDelivered = r.start, true
				}
			case SegDone:
				if !haveDone || r.start > done {
					done, haveDone = r.start, true
				}
			case SegComplete:
				if !haveComplete || r.start > complete {
					complete, haveComplete = r.start, true
				}
			}
		}
		if !haveSubmit {
			continue
		}
		p.Requests++
		if !haveComplete || complete <= submit {
			continue
		}
		p.Attributed++

		// Build the clipped interval set: recorded leaves plus the
		// synthesized ordering and reply edges.
		var ivs []cpInterval
		add := func(seg Segment, start, end sim.Time) {
			if start < submit {
				start = submit
			}
			if end > complete {
				end = complete
			}
			if end > start {
				ivs = append(ivs, cpInterval{seg: seg, start: start, end: end})
			}
		}
		for _, r := range recs {
			if r.seg >= SegPumpWait && r.seg <= SegLeaseWait {
				add(r.seg, r.start, r.end)
			}
		}
		if haveDelivered {
			from := submit
			if haveSent {
				from = sent
			}
			add(SegOrdering, from, delivered)
		}
		if haveDone {
			add(SegReply, done, complete)
		}

		// Backward critical-path walk: from complete toward submit, at
		// every frontier pick the interval that explains the most recent
		// unattributed time (largest capped end, then earliest start,
		// then lowest segment id — all content-determined).
		a := reqAttr{id: id, e2e: int64(complete - submit)}
		frontier := complete
		for frontier > submit {
			best := -1
			var bestCap, bestStart sim.Time
			var bestSeg Segment
			for i, iv := range ivs {
				if iv.start >= frontier {
					continue
				}
				capped := iv.end
				if capped > frontier {
					capped = frontier
				}
				if best == -1 || capped > bestCap ||
					(capped == bestCap && (iv.start < bestStart ||
						(iv.start == bestStart && iv.seg < bestSeg))) {
					best, bestCap, bestStart, bestSeg = i, capped, iv.start, iv.seg
				}
			}
			if best == -1 {
				a.perSeg[SegOther] += int64(frontier - submit)
				break
			}
			if bestCap < frontier {
				a.perSeg[SegOther] += int64(frontier - bestCap)
			}
			a.perSeg[bestSeg] += int64(bestCap - bestStart)
			frontier = bestStart
		}

		p.TotalE2ENS += a.e2e
		for seg, ns := range a.perSeg {
			if ns > 0 {
				totSeg[seg] += ns
				totCount[seg]++
			}
		}
		attrs = append(attrs, a)
	}

	if p.Attributed > 0 {
		p.MeanE2ENS = p.TotalE2ENS / int64(p.Attributed)
	}
	mkStats := func(perSeg [segCount]int64, counts [segCount]int, total int64) []SegmentStat {
		var out []SegmentStat
		for seg := Segment(0); seg < segCount; seg++ {
			ns := perSeg[seg]
			if ns == 0 {
				continue
			}
			st := SegmentStat{Name: seg.String(), TotalNS: ns, Count: counts[seg]}
			if counts[seg] > 0 {
				st.MeanNS = ns / int64(counts[seg])
			}
			if total > 0 {
				st.Pct = float64(ns) / float64(total) * 100
			}
			out = append(out, st)
		}
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].TotalNS != out[j].TotalNS {
				return out[i].TotalNS > out[j].TotalNS
			}
			return out[i].Name < out[j].Name
		})
		return out
	}
	p.Segments = mkStats(totSeg, totCount, p.TotalE2ENS)
	for _, st := range p.Segments {
		p.SegmentSumNS += st.TotalNS
	}

	if slowestN > 0 && len(attrs) > 0 {
		sort.SliceStable(attrs, func(i, j int) bool {
			if attrs[i].e2e != attrs[j].e2e {
				return attrs[i].e2e > attrs[j].e2e
			}
			if attrs[i].id.Node != attrs[j].id.Node {
				return attrs[i].id.Node < attrs[j].id.Node
			}
			return attrs[i].id.Seq < attrs[j].id.Seq
		})
		if slowestN > len(attrs) {
			slowestN = len(attrs)
		}
		for _, a := range attrs[:slowestN] {
			var counts [segCount]int
			for seg, ns := range a.perSeg {
				if ns > 0 {
					counts[seg] = 1
				}
			}
			p.Slowest = append(p.Slowest, CPOutlier{
				ID:       a.id,
				E2ENS:    a.e2e,
				Segments: mkStats(a.perSeg, counts, a.e2e),
			})
		}
	}
	return p
}

// WriteJSON writes the profile as deterministic indented JSON.
func (p *CPProfile) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Format renders the profile as text tables.
func (p *CPProfile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical-path latency attribution: %d requests, %d attributed\n",
		p.Requests, p.Attributed)
	if p.Attributed == 0 {
		b.WriteString("(no attributable requests: need submit and complete marks)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "end-to-end: total %s  mean %s  (segment sum %s)\n",
		fmtDur(sim.Duration(p.TotalE2ENS)), fmtDur(sim.Duration(p.MeanE2ENS)),
		fmtDur(sim.Duration(p.SegmentSumNS)))
	fmt.Fprintf(&b, "%-16s %12s %12s %8s %7s\n", "segment", "total", "mean", "count", "pct")
	for _, st := range p.Segments {
		fmt.Fprintf(&b, "%-16s %12s %12s %8d %6.1f%%\n",
			st.Name, fmtDur(sim.Duration(st.TotalNS)), fmtDur(sim.Duration(st.MeanNS)),
			st.Count, st.Pct)
	}
	if len(p.Slowest) > 0 {
		fmt.Fprintf(&b, "\nslowest %d requests:\n", len(p.Slowest))
		for _, o := range p.Slowest {
			fmt.Fprintf(&b, "  node%d/seq%d  e2e %s:", o.ID.Node, o.ID.Seq, fmtDur(sim.Duration(o.E2ENS)))
			for _, st := range o.Segments {
				fmt.Fprintf(&b, "  %s %s (%.0f%%)", st.Name, fmtDur(sim.Duration(st.TotalNS)), st.Pct)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
