package reconfig

import (
	"errors"
	"fmt"
	"sort"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Fence verdicts recorded per config command.
const (
	verdictCommit = byte(1)
	verdictAbort  = byte(2)
)

// ManagerOptions configure a Manager.
type ManagerOptions struct {
	// Apps builds the application instance for replicas the manager
	// creates (joiners and members of new partitions). Required for any
	// change that adds replicas or partitions.
	Apps core.AppFactory
	// FenceTimeout bounds how long a change waits for a majority of every
	// partition to fence on the config command before rolling back.
	FenceTimeout sim.Duration
	// Obs optionally attaches reconfiguration counters.
	Obs *obs.Observer
	// Seeder, when set, supplies joiners with a checkpoint-based recovery
	// source: bring-up ships a durable checkpoint plus a delta transfer
	// instead of the full state. persist.Layer implements it.
	Seeder JoinerSeeder
}

// LeaseFencer drains partition read leases around a configuration change.
// FenceLeases must stop new grants, revoke live leases, and not return
// until no replica can serve a local read under a pre-change lease (on the
// shared virtual clock: until every granted lease's absolute expiry has
// passed) — otherwise a laggard holder that has not executed the config
// command could serve stale reads of migrated objects after the flip.
// ResumeLeases re-enables granting. internal/lease implements it.
type LeaseFencer interface {
	FenceLeases(p *sim.Proc)
	ResumeLeases()
}

// JoinerSeeder seeds a joining replica's recovery. JoinerSource is called
// while the joiner at (part, rank) is attached, with fromRank naming the
// live member whose state the joiner would otherwise full-transfer; a nil
// return keeps the full-transfer bring-up.
type JoinerSeeder interface {
	JoinerSource(part core.PartitionID, fromRank, rank int) core.RecoverySource
}

// Manager is the configuration service: it owns the current Configuration,
// replicates changes as totally-ordered config commands, drives object
// migration, and performs the flip that installs the new layout. It is also
// every replica's core.ConfigHook — the fence the executors block on.
//
// The manager runs inside the deployment's cooperative simulation; exactly
// one change may be in flight at a time.
type Manager struct {
	d    *core.Deployment
	apps core.AppFactory
	o    *obs.Observer

	cur      *Configuration
	curBytes []byte

	node rdma.NodeID
	mc   *multicast.Client
	ep   *rdma.Endpoint
	qps  map[rdma.NodeID]*rdma.QP

	cond         *sim.Cond
	fenceTimeout sim.Duration
	seeder       JoinerSeeder
	fencer       LeaseFencer

	attempt *attempt
	// verdicts/outcomes record the fate of every config command ever
	// submitted, keyed by its multicast id: laggards delivering the command
	// after the decision — even replicas replaying an ABORTED attempt —
	// get the recorded outcome instead of blocking on a dead attempt.
	verdicts map[multicast.MsgID]byte
	outcomes map[multicast.MsgID][]byte

	seed int64
	// planned is the most recent Execute's migration plan (for Result).
	planned []migration
	// mig accumulates the in-flight change's migration progress; a copy
	// lands in the Result and the totals in TotalMig.
	mig MigrationStats

	// Stats (virtual-state only, safe for deterministic reports).
	Commits int
	Aborts  int
	Moved   int
	// TotalMig accumulates migration cost across every Execute, so sweeps
	// report bytes moved and freeze time, not just outcomes.
	TotalMig MigrationStats
}

// MigrationStats is the cost of one reconfiguration's object migration:
// how much data the bulk and delta copies moved, how long the sources
// stayed frozen behind the fence, and how many layout flips committed.
type MigrationStats struct {
	BulkObjects  int   `json:"bulk_objects"`
	BulkBytes    int   `json:"bulk_bytes"`
	DeltaObjects int   `json:"delta_objects"`
	DeltaBytes   int   `json:"delta_bytes"`
	FreezeNS     int64 `json:"freeze_ns"` // first fence -> flip (or abort)
	Flips        int   `json:"flips"`
}

func (m *MigrationStats) add(o MigrationStats) {
	m.BulkObjects += o.BulkObjects
	m.BulkBytes += o.BulkBytes
	m.DeltaObjects += o.DeltaObjects
	m.DeltaBytes += o.DeltaBytes
	m.FreezeNS += o.FreezeNS
	m.Flips += o.Flips
}

// attempt tracks the in-flight change between command submission and its
// verdict.
type attempt struct {
	id     multicast.MsgID
	ts     multicast.Timestamp // the command's position in the total order
	tsSet  bool
	fenced [][]bool // [part][rank] over the OLD layout
	counts []int    // fenced replicas per partition
	// freezeAt is the instant the first replica fenced: migration sources
	// are frozen from here until the flip (or abort) releases them.
	freezeAt    sim.Time
	freezeAtSet bool
}

// NewManager wires the configuration service onto a deployment: installs
// the initial epoch and routing on every replica and registers itself as
// their config hook. Call before Deployment.Start.
func NewManager(d *core.Deployment, initial *Configuration, o ManagerOptions) *Manager {
	if o.FenceTimeout <= 0 {
		o.FenceTimeout = 500 * sim.Millisecond
	}
	m := &Manager{
		d:            d,
		apps:         o.Apps,
		o:            o.Obs,
		cur:          initial,
		curBytes:     initial.Encode(),
		qps:          make(map[rdma.NodeID]*rdma.QP),
		cond:         sim.NewCond(d.Sched),
		fenceTimeout: o.FenceTimeout,
		seeder:       o.Seeder,
		verdicts:     make(map[multicast.MsgID]byte),
		outcomes:     make(map[multicast.MsgID][]byte),
		seed:         7001,
	}
	m.node = d.AllocClientNode()
	m.mc = multicast.NewClient(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, m.node)
	m.ep = d.TrCtl.Endpoint(m.node)
	for g := range d.Replicas {
		for _, rep := range d.Replicas[g] {
			rep.SetEpoch(initial.Epoch, initial, m.curBytes)
			rep.SetConfigHook(m)
		}
	}
	return m
}

// SetLeaseFencer installs the lease-drain hook run before every config
// command submission (and released after the flip or abort).
func (m *Manager) SetLeaseFencer(f LeaseFencer) { m.fencer = f }

// Current returns the configuration of the highest committed epoch.
func (m *Manager) Current() *Configuration { return m.cur }

// OnConfigCommand implements core.ConfigHook: called from a replica's
// executor when the config command reaches the head of its execution
// order. The replica fences (blocks) here until the manager decides the
// command's fate; replays of already-decided commands return immediately.
func (m *Manager) OnConfigCommand(p *sim.Proc, r *core.Replica, req *core.Request) []byte {
	if _, done := m.verdicts[req.ID]; done {
		return m.outcomes[req.ID]
	}
	a := m.attempt
	if a == nil {
		// A command this manager is not driving (a foreign or superseded
		// submission): reject with the current configuration.
		return core.EncodeEpochMismatch(m.cur.Epoch, m.curBytes)
	}
	part, rank := int(r.Partition()), r.Rank()
	if part < len(a.fenced) && rank < len(a.fenced[part]) && !a.fenced[part][rank] {
		a.fenced[part][rank] = true
		a.counts[part]++
		if !a.tsSet {
			a.ts = req.Ts
			a.tsSet = true
		}
		if !a.freezeAtSet {
			a.freezeAt = m.d.Sched.Now()
			a.freezeAtSet = true
		}
		m.o.Counter("reconfig/fences").Inc()
	}
	m.cond.Broadcast()
	id := req.ID
	m.cond.WaitUntil(p, func() bool { _, done := m.verdicts[id]; return done })
	return m.outcomes[id]
}

// Result reports the outcome of one Execute.
type Result struct {
	Epoch     uint64 // epoch in force after the change (unchanged on abort)
	Committed bool
	Moved     int // objects migrated
	Fenced    int // replicas fenced before the decision
	// Mig is this change's migration cost (bytes copied, freeze time),
	// for decision feedback and experiment tables.
	Mig MigrationStats
}

// InFlight reports whether a change is currently between command
// submission and its verdict — the signal a policy loop checks before
// synthesizing the next change (at most one may be in flight).
func (m *Manager) InFlight() bool { return m.attempt != nil }

// Execute drives one reconfiguration end to end:
//
//  1. validate the change and compute the next configuration;
//  2. create new-partition nodes/stores and register migration targets
//     (invisible: nothing routes to them yet);
//  3. bulk-copy migrating objects while traffic still runs;
//  4. submit the config command through the atomic multicast to every
//     current partition and wait for a majority of each to fence;
//  5. delta-copy the writes that raced the bulk copy from a frozen
//     fenced source;
//  6. flip — crash removed replicas, reshape surviving ordering groups,
//     bring up joiners and new partitions, install the new routing
//     everywhere — in one virtual instant;
//  7. release the fence with a commit verdict (or roll back on fence
//     timeout with an abort verdict, leaving the current epoch in force).
func (m *Manager) Execute(p *sim.Proc, ch Change) (*Result, error) {
	m.drain()
	if m.attempt != nil {
		return nil, fmt.Errorf("reconfig: change already in flight")
	}
	next, err := m.cur.Apply(ch, m.d.Cfg.MaxPartitions, m.d.Cfg.MaxGroupSize)
	if err != nil {
		return nil, err
	}
	if (len(ch.AddReplicas) > 0 || len(ch.AddPartitions) > 0) && m.apps == nil {
		return nil, fmt.Errorf("reconfig: change adds replicas but Options.Apps is nil")
	}
	oldParts := len(m.cur.Groups)
	m.mig = MigrationStats{}
	plan := m.planMigrations(ch)
	newStores, err := m.prepareTargets(next, oldParts, plan)
	if err != nil {
		return nil, err
	}
	preTs := m.capturePreTs(plan)
	if err := m.bulkCopy(p, plan, oldParts, newStores); err != nil {
		return nil, err
	}

	// Drain read leases before the command enters the total order: after
	// FenceLeases returns, no replica can serve a local read under a
	// pre-change lease, so the flip cannot strand a leased laggard.
	if m.fencer != nil {
		m.fencer.FenceLeases(p)
	}

	// Submit the command. The fence hook may fire (on replica executors)
	// while Multicast is still sending; it does not need the id — only the
	// decision paths below do, and both run after Multicast returned.
	a := &attempt{counts: make([]int, oldParts)}
	for part := 0; part < oldParts; part++ {
		a.fenced = append(a.fenced, make([]bool, len(m.cur.Groups[part])))
	}
	m.attempt = a
	parts := make([]core.PartitionID, oldParts)
	for i := range parts {
		parts[i] = core.PartitionID(i)
	}
	a.id = m.mc.Multicast(p, parts, core.EncodeConfigCommand(next.Epoch, next.Encode()))

	fenced := m.cond.WaitUntilTimeout(p, m.fenceTimeout, func() bool {
		for part := 0; part < oldParts; part++ {
			if a.counts[part] < len(m.cur.Groups[part])/2+1 {
				return false
			}
		}
		return true
	})
	if !fenced {
		return m.finishChange(m.abort(a)), nil
	}
	if err := m.deltaCopy(p, plan, oldParts, newStores, preTs, a); err != nil {
		// The catch-up copy lost its last frozen source: the new layout
		// cannot be made complete, so the change rolls back.
		return m.finishChange(m.abort(a)), nil
	}
	return m.finishChange(m.flip(a, next, ch, oldParts, newStores)), nil
}

// finishChange re-enables lease granting after a change's verdict.
func (m *Manager) finishChange(res *Result) *Result {
	if m.fencer != nil {
		m.fencer.ResumeLeases()
	}
	return res
}

// abort rolls a change back: the command becomes a no-op everywhere (the
// recorded outcome is an epoch mismatch for the unchanged configuration),
// fenced replicas resume under the current epoch, and pre-created stores
// stay unreferenced (their registrations are tolerated on retry).
func (m *Manager) abort(a *attempt) *Result {
	m.verdicts[a.id] = verdictAbort
	m.outcomes[a.id] = core.EncodeEpochMismatch(m.cur.Epoch, m.curBytes)
	m.attempt = nil
	m.cond.Broadcast()
	m.Aborts++
	m.o.Counter("reconfig/aborts").Inc()
	m.finishMig(a)
	return &Result{Epoch: m.cur.Epoch, Committed: false, Fenced: a.fencedTotal(), Mig: m.mig}
}

// finishMig closes the in-flight change's migration accounting: the
// freeze window ends now (flip or abort both release the fence), and the
// attempt's stats roll into the manager totals and the obs registry.
func (m *Manager) finishMig(a *attempt) {
	if a.freezeAtSet {
		m.mig.FreezeNS = int64(m.d.Sched.Now() - a.freezeAt)
		m.o.Histogram("reconfig/freeze").Observe(sim.Duration(m.mig.FreezeNS))
	}
	m.TotalMig.add(m.mig)
}

func (a *attempt) fencedTotal() int {
	total := 0
	for _, c := range a.counts {
		total += c
	}
	return total
}

// flip installs the new configuration in one virtual instant: no call in
// here may sleep or touch a queue pair, so every replica observes either
// the complete old layout or the complete new one.
func (m *Manager) flip(a *attempt, next *Configuration, ch Change, oldParts int,
	newStores map[core.PartitionID][]*store.Store) *Result {
	d := m.d
	tsC := a.ts
	nextBytes := next.Encode()

	// Removed tail ranks die first; their state is never consulted.
	for part := 0; part < oldParts; part++ {
		oldN, newN := len(m.cur.Groups[part]), len(next.Groups[part])
		for rank := oldN - 1; rank >= newN; rank-- {
			d.Replicas[part][rank].Crash()
		}
	}

	// Joiner nodes must exist before the group swap makes them addressable.
	for part := 0; part < oldParts; part++ {
		oldN := len(m.cur.Groups[part])
		for rank := oldN; rank < len(next.Groups[part]); rank++ {
			d.Fabric.AddNode(next.Groups[part][rank])
		}
	}

	// The multicast membership swap: processes read cfg.Groups live, so
	// this retargets quorums, leader ranks, and member lists everywhere at
	// once.
	oldGroups := m.cur.Groups
	d.Cfg.Multicast.Groups = next.Groups

	// Reshape the ordering group of every partition whose membership
	// changed: survivors graft the freshest retained state and align on a
	// fresh view; joiners restore from snapshots of the live survivors.
	type startup struct {
		mcp  *multicast.Process
		part core.PartitionID
		rank int
	}
	var toStart []startup
	for part := 0; part < oldParts; part++ {
		oldN, newN := len(oldGroups[part]), len(next.Groups[part])
		if oldN == newN {
			continue
		}
		surviving := oldN
		if newN < surviving {
			surviving = newN
		}
		var live []int
		for rank := 0; rank < surviving; rank++ {
			if !d.Fabric.Node(oldGroups[part][rank]).Crashed() {
				live = append(live, rank)
			}
		}
		newView := uint64(0)
		for _, rank := range live {
			if v := d.MCProcs[part][rank].VotedView(); v >= newView {
				newView = v + 1
			}
		}
		// Land the new view on the lowest live survivor: it has the grafted
		// state and re-replicates the retained log to the new member set.
		for newView%uint64(newN) != uint64(live[0]) {
			newView++
		}
		snapshots := func() []*multicast.RecoveryState {
			out := make([]*multicast.RecoveryState, 0, len(live))
			for _, rank := range live {
				out = append(out, d.MCProcs[part][rank].SnapshotForRecovery())
			}
			return out
		}
		for _, rank := range live {
			d.MCProcs[part][rank].PrepareReshape(snapshots(), newView)
		}
		// Joiners: ordering state from the survivors, store layout cloned
		// from a live survivor, application state via the joiner bring-up
		// state transfer once the executor starts.
		srcRep := d.Replicas[part][live[0]]
		for rank := oldN; rank < newN; rank++ {
			node := d.Fabric.Node(next.Groups[part][rank])
			mcp := multicast.NewProcess(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, multicast.GroupID(part), rank)
			mcp.Restore(snapshots())
			mcp.AlignView(newView)
			st := cloneLayout(node, d.Cfg.StoreCapacity, srcRep.Store())
			rep := d.AttachReplica(core.PartitionID(part), rank, mcp, m.apps(core.PartitionID(part), rank), m.cur, st, m.nextSeed())
			rep.SetEpoch(m.cur.Epoch, m.cur, m.curBytes)
			rep.InstallPendingConfig(tsC, next.Epoch, next, nextBytes)
			rep.SetConfigHook(m)
			rep.MarkRecovering()
			if m.seeder != nil {
				// Checkpoint-seeded bring-up: the joiner's recovery restores
				// a live donor's durable checkpoint and pulls only the delta
				// suffix (the restore runs in the joiner's own executor
				// prologue — the flip itself never blocks on it).
				if rs := m.seeder.JoinerSource(core.PartitionID(part), live[0], rank); rs != nil {
					rep.SetRecoverySource(rs)
				}
			}
			toStart = append(toStart, startup{mcp, core.PartitionID(part), rank})
		}
		if newN < oldN {
			d.TruncateGroup(core.PartitionID(part), newN)
		}
	}

	// New partitions: fresh ordering groups seeded past the command's
	// clock (their first delivery must order after it), stores pre-built
	// and migrated, execution starting at the command's position.
	for pi := oldParts; pi < len(next.Groups); pi++ {
		pid := d.AttachPartition()
		for rank := range next.Groups[pi] {
			mcp := multicast.NewProcess(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, multicast.GroupID(pi), rank)
			mcp.SeedClock(tsC.Clock())
			rep := d.AttachReplica(pid, rank, mcp, m.apps(pid, rank), next, newStores[pid][rank], m.nextSeed())
			rep.SetEpoch(next.Epoch, next, nextBytes)
			rep.SetInitialPosition(tsC)
			rep.SetConfigHook(m)
			toStart = append(toStart, startup{mcp, pid, rank})
		}
	}

	// Every pre-existing replica — fenced, lagging, or crashed — swaps to
	// the new epoch exactly when its execution reaches the command.
	for part := 0; part < oldParts; part++ {
		for _, rep := range d.Replicas[part] {
			rep.InstallPendingConfig(tsC, next.Epoch, next, nextBytes)
		}
	}

	d.WirePeers()

	m.verdicts[a.id] = verdictCommit
	m.outcomes[a.id] = nextBytes
	m.cur = next
	m.curBytes = nextBytes
	m.attempt = nil
	m.cond.Broadcast()

	for _, st := range toStart {
		st.mcp.Start(d.Sched)
		d.StartReplica(st.part, st.rank)
	}

	m.Commits++
	m.o.Counter("reconfig/commits").Inc()
	m.mig.Flips = 1
	m.o.Counter("reconfig/flips").Inc()
	m.finishMig(a)
	return &Result{Epoch: next.Epoch, Committed: true, Moved: len(m.planned), Fenced: a.fencedTotal(), Mig: m.mig}
}

// --- Migration ----------------------------------------------------------

// migration is one object's move between partitions.
type migration struct {
	oid store.OID
	src core.PartitionID
	dst core.PartitionID
	max int
}

// planMigrations enumerates the objects a change moves, in deterministic
// (source partition, registration) order, from the live replicas' stores.
func (m *Manager) planMigrations(ch Change) []migration {
	m.planned = nil
	if len(ch.Moves) == 0 {
		return nil
	}
	moves := movedRanges(m.cur, ch)
	var out []migration
	for part := range m.cur.Groups {
		rep := m.liveReplica(core.PartitionID(part))
		if rep == nil {
			continue
		}
		for _, oid := range rep.Store().Objects() {
			if m.cur.PartitionOf(oid) != core.PartitionID(part) {
				continue
			}
			for _, mv := range moves {
				if oid < mv.Lo || oid > mv.Hi {
					continue
				}
				if mv.To != core.PartitionID(part) {
					max, _ := rep.Store().SlotMax(oid)
					out = append(out, migration{oid: oid, src: core.PartitionID(part), dst: mv.To, max: max})
				}
				break
			}
		}
	}
	m.planned = out
	return out
}

// prepareTargets creates the nodes and stores of new partitions and
// registers every migrating object on its target stores — on all ranks, in
// identical order, so slot addresses stay symmetric. This runs before the
// config command: nothing routes to the new slots yet, so it is invisible.
func (m *Manager) prepareTargets(next *Configuration, oldParts int, plan []migration) (map[core.PartitionID][]*store.Store, error) {
	newStores := make(map[core.PartitionID][]*store.Store)
	for pi := oldParts; pi < len(next.Groups); pi++ {
		stores := make([]*store.Store, 0, len(next.Groups[pi]))
		for _, id := range next.Groups[pi] {
			n := m.d.Fabric.Node(id)
			if n == nil {
				n = m.d.Fabric.AddNode(id)
			}
			stores = append(stores, store.New(n, m.d.Cfg.StoreCapacity))
		}
		newStores[core.PartitionID(pi)] = stores
	}
	for _, mg := range plan {
		if int(mg.dst) >= oldParts {
			for _, st := range newStores[mg.dst] {
				if err := registerSlot(st, mg.oid, mg.max); err != nil {
					return nil, err
				}
			}
			continue
		}
		for _, rep := range m.d.Replicas[mg.dst] {
			if err := registerSlot(rep.Store(), mg.oid, mg.max); err != nil {
				return nil, err
			}
		}
	}
	return newStores, nil
}

// registerSlot registers a migration target slot, tolerating a slot left
// behind by an aborted earlier attempt.
func registerSlot(st *store.Store, oid store.OID, max int) error {
	err := st.Register(oid, max)
	if errors.Is(err, store.ErrDuplicate) {
		return nil
	}
	return err
}

// capturePreTs records each source partition's execution position before
// the bulk copy: every write the bulk copy can miss has a timestamp at or
// after this point, which bounds the delta copy.
func (m *Manager) capturePreTs(plan []migration) map[core.PartitionID]uint64 {
	pre := make(map[core.PartitionID]uint64)
	for _, mg := range plan {
		if _, ok := pre[mg.src]; !ok {
			if rep := m.liveReplica(mg.src); rep != nil {
				pre[mg.src] = uint64(rep.LastExecuted())
			}
		}
	}
	return pre
}

// bulkCopy moves every planned object's slot while traffic still runs.
func (m *Manager) bulkCopy(p *sim.Proc, plan []migration, oldParts int,
	newStores map[core.PartitionID][]*store.Store) error {
	for _, mg := range plan {
		raw, err := m.readSlot(p, mg.src, -1, mg.oid)
		if err != nil {
			return err
		}
		m.writeTargets(p, mg, oldParts, newStores, raw, false)
	}
	return nil
}

// deltaCopy re-copies the objects written at or after the pre-copy capture
// point, reading from a fenced (frozen) source replica: its store holds
// exactly the writes of every request ordered before the config command.
func (m *Manager) deltaCopy(p *sim.Proc, plan []migration, oldParts int,
	newStores map[core.PartitionID][]*store.Store, preTs map[core.PartitionID]uint64, a *attempt) error {
	if len(plan) == 0 {
		return nil
	}
	byOID := make(map[store.OID]migration, len(plan))
	var srcs []core.PartitionID
	seen := make(map[core.PartitionID]bool)
	for _, mg := range plan {
		byOID[mg.oid] = mg
		if !seen[mg.src] {
			seen[mg.src] = true
			srcs = append(srcs, mg.src)
		}
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		copied := false
		for rank := range a.fenced[src] {
			if !a.fenced[src][rank] || m.d.Fabric.Node(m.d.Replicas[src][rank].NodeID()).Crashed() {
				continue
			}
			rep := m.d.Replicas[src][rank]
			oids := rep.Store().Log().ObjectsBetween(preTs[src], uint64(rep.LastExecuted()))
			ok := true
			for _, oid := range oids {
				mg, migrating := byOID[oid]
				if !migrating || mg.src != src {
					continue
				}
				raw, err := m.readSlot(p, src, rank, oid)
				if err != nil {
					ok = false
					break
				}
				m.writeTargets(p, mg, oldParts, newStores, raw, true)
			}
			if ok {
				copied = true
				break
			}
		}
		if !copied {
			return fmt.Errorf("reconfig: no live fenced source in partition %d", src)
		}
	}
	return nil
}

// writeTargets writes one slot image to every target replica's store. A
// failed write to a crashed target is dropped: that replica resynchronizes
// through state transfer if it ever returns. delta marks catch-up copies
// made from a frozen source (after the fence), as opposed to bulk copies
// made while traffic still ran.
func (m *Manager) writeTargets(p *sim.Proc, mg migration, oldParts int,
	newStores map[core.PartitionID][]*store.Store, raw []byte, delta bool) {
	m.Moved++
	m.o.Counter("reconfig/objects_moved").Inc()
	targets := 0
	if int(mg.dst) >= oldParts {
		for _, st := range newStores[mg.dst] {
			_ = m.writeSlot(p, st, mg.oid, raw)
			targets++
		}
	} else {
		for _, rep := range m.d.Replicas[mg.dst] {
			_ = m.writeSlot(p, rep.Store(), mg.oid, raw)
			targets++
		}
	}
	if delta {
		m.mig.DeltaObjects++
		m.mig.DeltaBytes += len(raw) * targets
		m.o.Counter("reconfig/delta_copy_bytes").Add(uint64(len(raw) * targets))
	} else {
		m.mig.BulkObjects++
		m.mig.BulkBytes += len(raw) * targets
		m.o.Counter("reconfig/bulk_copy_bytes").Add(uint64(len(raw) * targets))
	}
}

// readSlot fetches an object's slot bytes from a replica of its source
// partition over the fabric. fromRank pins the source (the frozen delta
// source); -1 tries ranks in order.
func (m *Manager) readSlot(p *sim.Proc, part core.PartitionID, fromRank int, oid store.OID) ([]byte, error) {
	for rank, rep := range m.d.Replicas[part] {
		if fromRank >= 0 && rank != fromRank {
			continue
		}
		addr, slotLen, ok := rep.Store().Addr(oid)
		if !ok {
			continue
		}
		raw, err := m.qp(rep.NodeID()).Read(p, addr, slotLen)
		if err == nil {
			return raw, nil
		}
	}
	return nil, fmt.Errorf("reconfig: no readable source for object %d in partition %d", oid, part)
}

// writeSlot installs raw slot bytes into a target store over the fabric.
func (m *Manager) writeSlot(p *sim.Proc, st *store.Store, oid store.OID, raw []byte) error {
	addr, slotLen, ok := st.Addr(oid)
	if !ok || slotLen != len(raw) {
		return fmt.Errorf("reconfig: target slot mismatch for object %d", oid)
	}
	return m.qp(st.Node().ID()).Write(p, addr, raw)
}

// cloneLayout builds a store with the identical slot layout of a source
// replica's store (same objects, same order, same sizes) but no data: the
// joiner's full state transfer fills it.
func cloneLayout(node *rdma.Node, capacity int, src *store.Store) *store.Store {
	st := store.New(node, capacity)
	for _, oid := range src.Objects() {
		max, _ := src.SlotMax(oid)
		if err := st.Register(oid, max); err != nil {
			panic(fmt.Sprintf("reconfig: clone layout: %v", err))
		}
	}
	return st
}

// liveReplica returns the lowest-ranked replica of a partition whose node
// is up, or nil.
func (m *Manager) liveReplica(part core.PartitionID) *core.Replica {
	for _, rep := range m.d.Replicas[part] {
		if !m.d.Fabric.Node(rep.NodeID()).Crashed() {
			return rep
		}
	}
	return nil
}

// qp returns (creating on first use) the manager's queue pair to a node.
func (m *Manager) qp(to rdma.NodeID) *rdma.QP {
	if q, ok := m.qps[to]; ok {
		return q
	}
	q := m.d.Fabric.Connect(m.node, to)
	m.qps[to] = q
	return q
}

// drain empties the manager's control endpoint of fence replies from
// earlier commands (the manager is the config command's client, so every
// fenced replica responds to it).
func (m *Manager) drain() {
	for {
		if _, _, ok := m.ep.TryRecv(); !ok {
			return
		}
	}
}

func (m *Manager) nextSeed() int64 {
	m.seed++
	return m.seed
}
