// Package chaos is the deterministic fault-injection engine: scripted
// schedules of crash/recovery, link-partition, and slow-NIC events fire
// at exact virtual instants against a Heron deployment, while a
// linearizability harness (Run) verifies that the client-visible history
// stays correct through the faults. Everything is driven by the virtual
// clock and seeded RNGs, so the same seed and parameters reproduce the
// same faults, the same interleavings, and byte-identical reports.
package chaos

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// EventKind classifies one fault or heal event.
type EventKind int

const (
	// EvCrash fails the replica at (Part, Rank): its fabric node drops
	// all traffic and its processes die.
	EvCrash EventKind = iota
	// EvRecover restarts a crashed replica: the node rejoins the fabric,
	// the ordering state is rebuilt from the live members, and the
	// application state resynchronizes via full state transfer.
	EvRecover
	// EvPartition cuts the link between (Part, Rank) and (Part2, Rank2)
	// in both directions.
	EvPartition
	// EvHeal restores a partitioned link and resets its rings.
	EvHeal
	// EvSlowLink degrades every link of (Part, Rank): Extra/Jitter added
	// latency and a Drop fraction of lost completions, both directions.
	EvSlowLink
	// EvClearLink removes EvSlowLink degradation from (Part, Rank).
	EvClearLink
	// EvReconfig fires the engine's Reconfig hook, letting fault schedules
	// compose with elastic reconfigurations (internal/reconfig drives the
	// actual change; the chaos engine only times it).
	EvReconfig
)

// String names the kind for reports and traces.
func (k EventKind) String() string {
	switch k {
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvSlowLink:
		return "slow-link"
	case EvClearLink:
		return "clear-link"
	case EvReconfig:
		return "reconfig"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one scheduled fault or heal, fired at an exact virtual instant.
type Event struct {
	At   sim.Duration // offset from the start of the run
	Kind EventKind

	// Part/Rank name the primary replica; Part2/Rank2 name the peer for
	// link events (EvPartition, EvHeal).
	Part, Rank   int
	Part2, Rank2 int

	// Link degradation parameters (EvSlowLink).
	Extra  sim.Duration
	Jitter sim.Duration
	Drop   float64
}

// Schedule is a reproducible fault script: the seed and profile that
// generated it plus the timestamped events.
type Schedule struct {
	Seed    int64
	Profile string
	Events  []Event
}

// Engine executes a schedule against a deployment, firing each event as a
// scheduler callback at its exact virtual instant and routing every fault
// through the observability layer: counters (chaos/crash, chaos/recover,
// chaos/partition, chaos/heal), an instant per event, and an async span
// covering each open partition window.
type Engine struct {
	d     *core.Deployment
	track *obs.Track

	cCrash     *obs.Counter
	cRecover   *obs.Counter
	cPartition *obs.Counter
	cHeal      *obs.Counter
	cReconfig  *obs.Counter

	// openParts holds the async span of each currently partitioned pair.
	openParts map[[4]int]*obs.Span

	// Virtual-state tallies for the report (never wall clock).
	Crashes    int
	Recoveries int
	Partitions int
	Heals      int

	// unfired counts the schedule's events still to fire.
	unfired int

	// Errors collects event application failures (e.g. recovering a
	// replica that is not crashed), for the report.
	Errors []string

	// Reconfig is called for each EvReconfig event. The hook runs in
	// scheduler-callback context (no sleeping); it typically signals a
	// driver process that performs the reconfiguration. nil hooks make
	// EvReconfig a no-op.
	Reconfig func(Event)

	// Reconfigs counts fired EvReconfig events.
	Reconfigs int

	// flight mirrors every fault into the always-on flight recorder ring.
	flight *obs.FlightRecorder
	// OnCrash, when set, fires after each applied EvCrash — Run wires it
	// to the flight recorder's auto-dump, so the ring is snapshotted
	// while the pre-crash history is still in it.
	OnCrash func(Event)
}

// Install arms every event of the schedule on the deployment's scheduler.
// The observer may be nil (all instruments become no-ops). Install must
// run before the scheduler passes the earliest event time.
func Install(d *core.Deployment, sc Schedule, o *obs.Observer) *Engine {
	e := &Engine{
		d:          d,
		track:      o.Track("chaos", "faults", d.Sched),
		cCrash:     o.Counter("chaos/crash"),
		cRecover:   o.Counter("chaos/recover"),
		cPartition: o.Counter("chaos/partition"),
		cHeal:      o.Counter("chaos/heal"),
		cReconfig:  o.Counter("chaos/reconfig"),
		openParts:  make(map[[4]int]*obs.Span),
		flight:     o.Flight(),
		unfired:    len(sc.Events),
	}
	for _, ev := range sc.Events {
		ev := ev
		d.Sched.At(sim.Time(ev.At), func() {
			e.unfired--
			e.apply(ev)
		})
	}
	return e
}

// Fired reports whether every event of the schedule has fired.
func (e *Engine) Fired() bool { return e.unfired == 0 }

// node resolves a (partition, rank) pair to its fabric node.
func (e *Engine) node(part, rank int) rdma.NodeID {
	return e.d.Cfg.Multicast.Groups[part][rank]
}

// crashed reports whether a replica's node is down.
func (e *Engine) crashed(part, rank int) bool {
	return e.d.Fabric.Node(e.node(part, rank)).Crashed()
}

// apply fires one event.
func (e *Engine) apply(ev Event) {
	f := e.d.Fabric
	now := e.d.Sched.Now()
	node := func(part, rank int) uint32 { return uint32(e.node(part, rank)) }
	switch ev.Kind {
	case EvCrash:
		if e.crashed(ev.Part, ev.Rank) {
			return
		}
		e.d.Replica(core.PartitionID(ev.Part), ev.Rank).Crash()
		e.Crashes++
		e.cCrash.Inc()
		e.track.Instant("crash", map[string]any{"part": ev.Part, "rank": ev.Rank})
		e.flight.Record(now, obs.FltCrash, node(ev.Part, ev.Rank), uint64(ev.Part), uint64(ev.Rank))
		if e.OnCrash != nil {
			e.OnCrash(ev)
		}
	case EvRecover:
		if !e.crashed(ev.Part, ev.Rank) {
			return
		}
		if err := e.d.RecoverReplica(core.PartitionID(ev.Part), ev.Rank); err != nil {
			e.Errors = append(e.Errors, err.Error())
			return
		}
		e.Recoveries++
		e.cRecover.Inc()
		e.track.Instant("recover", map[string]any{"part": ev.Part, "rank": ev.Rank})
		e.flight.Record(now, obs.FltRecover, node(ev.Part, ev.Rank), uint64(ev.Part), uint64(ev.Rank))
	case EvPartition:
		a, b := e.node(ev.Part, ev.Rank), e.node(ev.Part2, ev.Rank2)
		f.PartitionLink(a, b)
		e.Partitions++
		e.cPartition.Inc()
		e.track.Instant("partition", map[string]any{
			"a": fmt.Sprintf("p%d/r%d", ev.Part, ev.Rank),
			"b": fmt.Sprintf("p%d/r%d", ev.Part2, ev.Rank2),
		})
		e.flight.Record(now, obs.FltPartition, node(ev.Part, ev.Rank), uint64(a), uint64(b))
		key := [4]int{ev.Part, ev.Rank, ev.Part2, ev.Rank2}
		if e.openParts[key] == nil {
			e.openParts[key] = e.track.BeginAsync("chaos", "partition").
				Arg("a", int(a)).Arg("b", int(b))
		}
	case EvHeal:
		a, b := e.node(ev.Part, ev.Rank), e.node(ev.Part2, ev.Rank2)
		f.HealLink(a, b)
		e.Heals++
		e.cHeal.Inc()
		e.track.Instant("heal", map[string]any{
			"a": fmt.Sprintf("p%d/r%d", ev.Part, ev.Rank),
			"b": fmt.Sprintf("p%d/r%d", ev.Part2, ev.Rank2),
		})
		e.flight.Record(now, obs.FltHeal, node(ev.Part, ev.Rank), uint64(a), uint64(b))
		key := [4]int{ev.Part, ev.Rank, ev.Part2, ev.Rank2}
		if sp := e.openParts[key]; sp != nil {
			sp.End()
			delete(e.openParts, key)
		}
	case EvSlowLink:
		a := e.node(ev.Part, ev.Rank)
		for _, peer := range e.allNodes() {
			if peer == a {
				continue
			}
			f.SetLinkDelay(a, peer, ev.Extra, ev.Jitter)
			f.SetLinkDelay(peer, a, ev.Extra, ev.Jitter)
			f.SetLinkDrop(a, peer, ev.Drop)
			f.SetLinkDrop(peer, a, ev.Drop)
		}
		e.track.Instant("slow-link", map[string]any{"part": ev.Part, "rank": ev.Rank})
		e.flight.Record(now, obs.FltSlowLink, node(ev.Part, ev.Rank), uint64(ev.Extra), uint64(ev.Drop*1e6))
	case EvClearLink:
		a := e.node(ev.Part, ev.Rank)
		for _, peer := range e.allNodes() {
			if peer == a {
				continue
			}
			f.SetLinkDelay(a, peer, 0, 0)
			f.SetLinkDelay(peer, a, 0, 0)
			f.SetLinkDrop(a, peer, 0)
			f.SetLinkDrop(peer, a, 0)
		}
		e.track.Instant("clear-link", map[string]any{"part": ev.Part, "rank": ev.Rank})
	case EvReconfig:
		e.Reconfigs++
		e.cReconfig.Inc()
		e.track.Instant("reconfig", nil)
		e.flight.Record(now, obs.FltReconfig, 0, uint64(ev.Part), uint64(ev.Rank))
		if e.Reconfig != nil {
			e.Reconfig(ev)
		}
	}
}

// allNodes lists every replica node in group order (deterministic).
func (e *Engine) allNodes() []rdma.NodeID {
	var out []rdma.NodeID
	for _, g := range e.d.Cfg.Multicast.Groups {
		out = append(out, g...)
	}
	return out
}

// Close ends any partition spans still open at the end of a run.
func (e *Engine) Close() {
	for key, sp := range e.openParts {
		sp.End()
		delete(e.openParts, key)
	}
}
