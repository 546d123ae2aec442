package multicast

import (
	"fmt"

	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// role is a replica's current protocol role.
type role int

const (
	roleFollower role = iota + 1
	roleLeader
	roleCandidate
)

// logEntry is one committed-order slot in the group log.
type logEntry struct {
	id      MsgID
	ts      Timestamp
	dst     []GroupID
	payload []byte
}

// pendingMsg tracks a message proposed by this group but not yet
// committed to the group log.
type pendingMsg struct {
	msg        clientMsg
	ownProp    Timestamp
	props      map[GroupID]Timestamp
	propStable bool      // own proposal replicated to a quorum
	final      Timestamp // 0 until decided
	lastSend   sim.Time
}

// milestone is a deferred action fired once a quorum of followers has
// acknowledged replication records up to seq.
type milestone struct {
	seq uint64
	fn  func(p *sim.Proc)
}

// outbox queues the datagrams bound for one destination until the event
// loop's next flush.
type outbox struct {
	to   rdma.NodeID
	msgs [][]byte
}

// Process is one multicast replica: a member of one group, hosted on one
// fabric node. Its event loop runs as a single simulation process.
type Process struct {
	cfg   *Config
	group GroupID
	rank  int
	id    rdma.NodeID
	tr    Transport
	ep    Endpoint
	sched *sim.Scheduler
	out   *sim.Chan[Delivery]
	proc  *sim.Proc

	role             role
	view             uint64
	votedView        uint64
	lastAcceptedView uint64
	lc               uint64

	log       []logEntry
	logBase   uint64 // absolute index of log[0] (grows with truncation)
	commitIdx uint64
	delivered uint64
	// truncateTo is the group-wide safe truncation point advertised to
	// followers on commit-index messages.
	truncateTo uint64
	// repToGseq records, per replication record that carried a log
	// append, the absolute log length it established — used to translate
	// follower acks into safe truncation points. Pruned on truncation.
	repToGseq []repGseq
	// Durable gating (see truncate.go): once a persistence layer enables
	// the gate, this member never discards entries with timestamps above
	// its own durable checkpoint — truncation would otherwise destroy the
	// only copy of ordering state a recovery needs. durableTmp is the
	// newest locally durable checkpoint timestamp; truncReq asks the
	// leader to attempt truncation on its next tick regardless of the
	// retained-entry threshold (set when a new checkpoint lands).
	durableGate bool
	durableTmp  Timestamp
	truncReq    bool
	// truncTs remembers the final timestamp of committed entries dropped
	// by truncation, so pull-based proposal repair (kindPropRequest) can
	// still answer from this snapshot of commit metadata. Rebuilt empty on
	// Restore/resync, mirroring the committed map's lifecycle.
	truncTs map[MsgID]Timestamp

	pending     map[MsgID]*pendingMsg
	remoteProps map[MsgID]map[GroupID]Timestamp
	committed   map[MsgID]bool
	unproposed  map[MsgID]*clientMsg

	// Leader state. repSeq doubles as follower state: the highest
	// replication record applied contiguously in the current view.
	repSeq        uint64
	ackedRep      []uint64 // per follower rank, for the current view
	lagSince      []sim.Time
	milestones    []milestone
	nextHeartbeat sim.Time
	// reshapePending marks a leader installed by PrepareReshape whose
	// retained state has not been pushed into the new view's replication
	// stream yet; the next tick performs the re-replication.
	reshapePending bool

	// Follower state.
	leaderDeadline sim.Time
	suspectView    uint64

	// Candidate state.
	vcView     uint64
	vcStates   map[int]*viewState
	vcDeadline sim.Time

	// Pending cumulative ack (flushed once per drain burst).
	needAck bool

	// Whatever a burst produced for one destination leaves as one Send, so
	// the transport's per-destination posting cost is paid once per burst:
	// send queues, the event loop flushes before it blocks. outboxes holds
	// one queue per destination ever used (outboxOf finds it) and keeps its
	// capacity across flushes; outOrder lists the non-empty ones in
	// first-use order.
	outboxes []outbox
	outboxOf map[rdma.NodeID]int
	outOrder []int

	lastDeliveredTs Timestamp

	// Stats counters (read by benchmarks).
	statDelivered uint64
	statHandled   uint64
	statTruncated uint64

	// Observability (all nil until Observe; every use is nil-safe).
	obsTrack       *obs.Track
	obsOrderLat    *obs.Histogram
	obsDelivered   *obs.Counter
	obsViewChanges *obs.Counter
	obsTruncated   *obs.Counter
	obsBusy        *obs.Counter // virtual ns the event loop spent not waiting for a datagram
	obsFirstSeen   map[MsgID]sim.Time
	vcSpan         *obs.Span
	// obsFlight is the flight-recorder ring;
	// obsHeat (rank 0 only) feeds the group's partition-heat queue-depth
	// series from the pending-ordering backlog.
	obsFlight *obs.FlightRecorder
	obsHeat   *obs.PartitionHeat
}

// Observe attaches observability instruments: the ordering-latency
// histogram (client submission first seen here → delivery), the delivered
// counter, the pending-queue depth counter track, and view-change spans.
// Latency and counters are per group, shared by the group's replicas.
func (pr *Process) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	pr.obsTrack = o.Track(fmt.Sprintf("node%d", pr.id), "mcast", pr.tr.Scheduler())
	pr.obsOrderLat = o.Histogram(fmt.Sprintf("mc/g%d/order_latency", pr.group))
	pr.obsDelivered = o.Counter(fmt.Sprintf("mc/g%d/delivered", pr.group))
	pr.obsViewChanges = o.Counter(fmt.Sprintf("mc/g%d/view_changes", pr.group))
	pr.obsTruncated = o.Counter(fmt.Sprintf("mc/g%d/truncated", pr.group))
	pr.obsBusy = o.Counter(fmt.Sprintf("mc/g%d/r%d/busy_ns", pr.group, pr.rank))
	pr.obsFirstSeen = make(map[MsgID]sim.Time)
	pr.obsFlight = o.Flight()
	if pr.rank == 0 {
		pr.obsHeat = o.HeatPartition(int(pr.group))
	}
}

// NewProcess creates the multicast replica for (group, rank) of the
// deployment. The node id is taken from cfg.Groups; it must already exist
// on the transport's substrate.
func NewProcess(tr Transport, cfg *Config, g GroupID, rank int) *Process {
	id := cfg.Groups[g][rank]
	sched := tr.Scheduler()
	pr := &Process{
		cfg:         cfg,
		group:       g,
		rank:        rank,
		id:          id,
		tr:          tr,
		ep:          tr.Endpoint(id),
		sched:       sched,
		out:         sim.NewChan[Delivery](sched),
		pending:     make(map[MsgID]*pendingMsg),
		remoteProps: make(map[MsgID]map[GroupID]Timestamp),
		committed:   make(map[MsgID]bool),
		unproposed:  make(map[MsgID]*clientMsg),
		outboxOf:    make(map[rdma.NodeID]int),
		ackedRep:    make([]uint64, len(cfg.Groups[g])),
		lagSince:    make([]sim.Time, len(cfg.Groups[g])),
	}
	if rank == 0 {
		pr.role = roleLeader
	} else {
		pr.role = roleFollower
	}
	return pr
}

// Group returns the replica's group.
func (pr *Process) Group() GroupID { return pr.group }

// Rank returns the replica's rank within its group.
func (pr *Process) Rank() int { return pr.rank }

// NodeID returns the hosting node.
func (pr *Process) NodeID() rdma.NodeID { return pr.id }

// Deliveries returns the channel of committed, timestamped messages in
// delivery order.
func (pr *Process) Deliveries() *sim.Chan[Delivery] { return pr.out }

// IsLeader reports whether the replica currently acts as its group's
// leader.
func (pr *Process) IsLeader() bool { return pr.role == roleLeader }

// View returns the replica's current view number.
func (pr *Process) View() uint64 { return pr.view }

// CommitIdx returns the number of committed log entries.
func (pr *Process) CommitIdx() uint64 { return pr.commitIdx }

// Delivered returns the number of messages delivered to the application.
func (pr *Process) Delivered() uint64 { return pr.statDelivered }

// Start spawns the replica's event loop.
func (pr *Process) Start(s *sim.Scheduler) {
	name := fmt.Sprintf("mcast-g%d-r%d", pr.group, pr.rank)
	pr.proc = s.Spawn(name, pr.run)
}

// Crash fails the replica: its node stops serving and its event loop
// unwinds at the next scheduling point.
func (pr *Process) Crash() {
	pr.tr.Crash(pr.id)
	if pr.proc != nil {
		pr.proc.Kill()
	}
}

// n and f for this replica's own group.
func (pr *Process) n() int { return pr.cfg.n(pr.group) }
func (pr *Process) f() int { return pr.cfg.f(pr.group) }

// followerSeesQuorum reports whether a follower that holds a record of the
// current view's leader thereby knows f+1 members hold it — the leader and
// itself, which is the quorum exactly when f <= 1. It then commits on
// receipt (onRepCommit) and the leader need not tell it; with f >= 2 it
// cannot see the quorum and waits for the leader's commit index. Asked at
// every use, never cached: a reshape changes the group's size.
func (pr *Process) followerSeesQuorum() bool { return pr.f() <= 1 }

// members returns the node ids of the replica's group.
func (pr *Process) members() []rdma.NodeID { return pr.cfg.Groups[pr.group] }

// rankOf maps a fabric node to its rank in this group, or -1.
func (pr *Process) rankOf(id rdma.NodeID) int {
	for i, m := range pr.members() {
		if m == id {
			return i
		}
	}
	return -1
}

// leaderRank returns the leader rank for view v.
func (pr *Process) leaderRank(v uint64) int { return int(v % uint64(pr.n())) }

// run is the replica's event loop: drain protocol datagrams, run timers,
// and send what both produced — timer traffic, the cumulative ack and the
// burst's own datagrams leave in the same flush, once per iteration and
// before the loop blocks.
func (pr *Process) run(p *sim.Proc) {
	now := p.Now()
	pr.leaderDeadline = now + sim.Time(pr.cfg.LeaderTimeout)
	pr.suspectView = pr.view
	if pr.role == roleLeader {
		pr.nextHeartbeat = now
	}
	awake := now
	for !pr.tr.Crashed(pr.id) {
		pr.tick(p)
		pr.flushAck()
		pr.flushOutboxes(p)
		d := pr.nextTimerDelay(p.Now())
		pr.obsBusy.Add(uint64(p.Now() - awake))
		msg, from, ok := pr.ep.RecvTimeout(p, d)
		awake = p.Now()
		if !ok {
			continue
		}
		p.Sleep(pr.cfg.HandlerCPU)
		pr.handle(p, msg, from)
		// Drain the burst before paying for timers again.
		for i := 0; i < 256; i++ {
			m2, f2, ok2 := pr.ep.TryRecv(p)
			if !ok2 {
				break
			}
			p.Sleep(pr.cfg.HandlerCPU)
			pr.handle(p, m2, f2)
		}
	}
	pr.out.Close()
}

// nextTimerDelay computes how long the loop may block before a timer is
// due, clamped to keep the loop responsive.
func (pr *Process) nextTimerDelay(now sim.Time) sim.Duration {
	next := now + sim.Time(100*sim.Microsecond)
	consider := func(t sim.Time) {
		if t < next {
			next = t
		}
	}
	switch pr.role {
	case roleLeader:
		consider(pr.nextHeartbeat)
	case roleFollower:
		consider(pr.leaderDeadline)
	case roleCandidate:
		consider(pr.vcDeadline)
	}
	d := sim.Duration(next - now)
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// tick runs due timers.
func (pr *Process) tick(p *sim.Proc) {
	now := p.Now()
	switch pr.role {
	case roleLeader:
		if pr.reshapePending {
			pr.reshapePending = false
			pr.rereplicate(p)
		}
		if pr.truncReq {
			// A new durable checkpoint landed: attempt truncation now and
			// advertise the point on the heartbeat below.
			pr.maybeTruncate()
		}
		if now >= pr.nextHeartbeat {
			pr.broadcastGroup(encodeCommitIdx(kindHeartbeat, &commitIdxMsg{view: pr.view, commitIdx: pr.commitIdx, truncate: pr.truncateTo}))
			pr.nextHeartbeat = now + sim.Time(pr.cfg.HeartbeatInterval)
		}
		pr.retryProposals(p, now)
		pr.checkResyncs(now)
	case roleFollower:
		if now >= pr.leaderDeadline {
			pr.suspectNext(p)
		}
	case roleCandidate:
		if now >= pr.vcDeadline {
			// Candidacy failed; fall back and let the next rank try.
			pr.vcSpan.End()
			pr.role = roleFollower
			pr.leaderDeadline = now + sim.Time(pr.cfg.LeaderTimeout)
			pr.suspectNext(p)
		}
	}
}

// flushAck queues the cumulative replication ack accumulated during the
// last drain burst.
func (pr *Process) flushAck() {
	if !pr.needAck {
		return
	}
	pr.needAck = false
	leader := pr.members()[pr.leaderRank(pr.view)]
	if leader == pr.id {
		return
	}
	pr.send(leader, encodeAck(&ackMsg{view: pr.view, repSeq: pr.repSeq}))
}

// send queues one datagram on its destination's outbox; the event loop's
// next flush transmits it. The payload must not be modified afterwards.
func (pr *Process) send(to rdma.NodeID, payload []byte) {
	i, ok := pr.outboxOf[to]
	if !ok {
		i = len(pr.outboxes)
		pr.outboxes = append(pr.outboxes, outbox{to: to})
		pr.outboxOf[to] = i
	}
	ob := &pr.outboxes[i]
	if len(ob.msgs) == 0 {
		pr.outOrder = append(pr.outOrder, i)
	}
	ob.msgs = append(ob.msgs, payload)
}

// broadcastGroup queues a datagram for every other member of the group.
func (pr *Process) broadcastGroup(payload []byte) {
	for i, m := range pr.members() {
		if i == pr.rank {
			continue
		}
		pr.send(m, payload)
	}
}

// flushOutboxes transmits every queued datagram, one Send per destination
// in first-use order, each destination's datagrams in the order they were
// queued. Ring backpressure errors from dead peers are tolerated: they
// surface as dropped protocol messages, which the retry/view-change
// machinery already covers.
func (pr *Process) flushOutboxes(p *sim.Proc) {
	for _, i := range pr.outOrder {
		ob := &pr.outboxes[i]
		_ = pr.tr.Send(p, pr.id, ob.to, ob.msgs...)
		clear(ob.msgs) // the queue outlives the flush; the datagrams need not
		ob.msgs = ob.msgs[:0]
	}
	pr.outOrder = pr.outOrder[:0]
}

// handle dispatches one protocol datagram.
func (pr *Process) handle(p *sim.Proc, datagram []byte, from rdma.NodeID) {
	pr.statHandled++
	kind, r, err := decodeKind(datagram)
	if err != nil {
		return
	}
	switch kind {
	case kindClient:
		m := decodeClient(r)
		if r.Err() == nil {
			pr.onClient(p, m)
		}
	case kindRepProposal:
		m := decodeRepProposal(r)
		if r.Err() == nil {
			pr.onRepProposal(p, m)
		}
	case kindRepCommit:
		m := decodeRepCommit(r)
		if r.Err() == nil {
			pr.onRepCommit(p, m)
		}
	case kindAck:
		m := decodeAck(r)
		if r.Err() == nil {
			pr.onAck(p, m, from)
		}
	case kindProposal:
		m := decodeProposal(r)
		if r.Err() == nil {
			pr.onProposal(p, m)
		}
	case kindCommitIdx, kindHeartbeat:
		m := decodeCommitIdx(r)
		if r.Err() == nil {
			pr.onCommitIdx(p, m)
		}
	case kindViewReq:
		m := decodeViewReq(r)
		if r.Err() == nil {
			pr.onViewReq(p, m, from)
		}
	case kindViewState:
		m := decodeViewState(r)
		if r.Err() == nil {
			pr.onViewState(p, m, from)
		}
	case kindResync:
		m := decodeResync(r)
		if r.Err() == nil {
			pr.onResync(p, m)
		}
	case kindPropReq:
		m := decodePropRequest(r)
		if r.Err() == nil {
			pr.onPropRequest(m, from)
		}
	}
}

// onClient handles a client submission: leaders propose, followers buffer
// in case they become leader before the message is ordered.
func (pr *Process) onClient(p *sim.Proc, m *clientMsg) {
	if pr.committed[m.id] || pr.pending[m.id] != nil {
		return
	}
	if pr.obsFirstSeen != nil {
		if _, seen := pr.obsFirstSeen[m.id]; !seen {
			pr.obsFirstSeen[m.id] = p.Now()
		}
	}
	if pr.role == roleLeader {
		pr.propose(p, m)
		return
	}
	if _, ok := pr.unproposed[m.id]; !ok {
		pr.unproposed[m.id] = m
	}
}

// acceptView processes a view number seen on a leader-originated record.
// It reports whether the record should be processed.
func (pr *Process) acceptView(v uint64) bool {
	if v < pr.votedView {
		return false
	}
	if v > pr.view || pr.role != roleFollower {
		if pr.role == roleLeader && v == pr.view {
			// Own echo cannot happen; records carry the leader's view and
			// leaders do not send to themselves.
			return false
		}
		pr.role = roleFollower
		pr.milestones = nil
		// A new view starts a fresh replication stream at 1.
		pr.repSeq = 0
	}
	pr.view = v
	pr.votedView = v
	pr.suspectView = v
	return true
}

// onRepProposal handles replication of a message body + proposal.
func (pr *Process) onRepProposal(p *sim.Proc, m *repProposal) {
	if !pr.acceptView(m.view) {
		return
	}
	pr.lastAcceptedView = m.view
	pr.leaderDeadline = p.Now() + sim.Time(pr.cfg.LeaderTimeout)
	if m.repSeq != pr.repSeq+1 {
		// Out-of-order replication record: a preceding record was lost on
		// the fabric. Applying (or acking) past the hole would let the
		// leader count us toward a quorum for state we do not hold; skip
		// and let the leader's resync repair us.
		if m.repSeq <= pr.repSeq {
			pr.needAck = true // stale duplicate; refresh the leader's view of us
		}
		return
	}
	if !pr.committed[m.msg.id] {
		pend := pr.pending[m.msg.id]
		if pend == nil {
			pend = &pendingMsg{msg: m.msg, props: make(map[GroupID]Timestamp)}
			pr.pending[m.msg.id] = pend
		}
		pend.ownProp = m.prop
		pr.mergeRemoteProps(pend)
	}
	delete(pr.unproposed, m.msg.id)
	if c := m.prop.Clock(); c > pr.lc {
		pr.lc = c
	}
	pr.repSeq = m.repSeq
	pr.needAck = true
}

// onRepCommit handles replication of a log append.
func (pr *Process) onRepCommit(p *sim.Proc, m *repCommit) {
	if !pr.acceptView(m.view) {
		return
	}
	pr.lastAcceptedView = m.view
	pr.leaderDeadline = p.Now() + sim.Time(pr.cfg.LeaderTimeout)

	if m.repSeq != pr.repSeq+1 {
		// Out-of-order record (a predecessor was dropped in the fabric):
		// do not apply or ack past the hole; the leader's resync repairs
		// us with a full snapshot.
		if m.repSeq <= pr.repSeq {
			pr.needAck = true
		}
		return
	}
	if m.gseq < pr.commitIdx {
		// Duplicate of an already committed entry (re-replication); ack it.
		pr.repSeq = m.repSeq
		pr.needAck = true
		return
	}
	entry := logEntry{id: m.id, ts: m.ts}
	if m.hasBody {
		entry.dst = m.dst
		entry.payload = m.payload
	} else {
		pend := pr.pending[m.id]
		if pend == nil {
			// The body rides the repProposal, which precedes the commit in
			// a contiguous stream; a missing body means our state predates
			// this view's stream. Do NOT ack past it — wait for resync.
			return
		}
		entry.dst = pend.msg.dst
		entry.payload = pend.msg.payload
	}
	if m.gseq > pr.logBase+uint64(len(pr.log)) {
		return // log hole: wait for resync, and do not ack past it
	}
	pr.repSeq = m.repSeq
	pr.needAck = true
	pr.log = append(pr.log[:m.gseq-pr.logBase], entry)
	pr.committed[m.id] = true
	delete(pr.pending, m.id)
	delete(pr.unproposed, m.id)
	delete(pr.remoteProps, m.id)
	if c := m.ts.Clock(); c > pr.lc {
		pr.lc = c
	}
	// Commit where the quorum is visible. The leader of this view appended
	// the entry before it replicated it and we have just done so, both with
	// lastAcceptedView = m.view, on top of a prefix the contiguous stream
	// gave us the same way. With f <= 1 that is f+1 members: the replicated
	// state in which the leader itself commits (on its first ack), only
	// observed one hop after the append instead of three. A view change
	// cannot lose it: any f+1 states include the leader's or ours.
	if pr.followerSeesQuorum() && m.gseq+1 > pr.commitIdx {
		pr.commitIdx = m.gseq + 1
		pr.deliverCommitted()
	}
}

// onCommitIdx handles commit-index advances and heartbeats.
func (pr *Process) onCommitIdx(p *sim.Proc, m *commitIdxMsg) {
	if !pr.acceptView(m.view) {
		return
	}
	pr.leaderDeadline = p.Now() + sim.Time(pr.cfg.LeaderTimeout)
	idx := m.commitIdx
	if max := pr.logBase + uint64(len(pr.log)); idx > max {
		idx = max
	}
	if idx > pr.commitIdx {
		pr.commitIdx = idx
		pr.deliverCommitted()
	}
	// Apply the leader's advertised truncation point, never beyond what
	// we have delivered ourselves nor beyond our own durable checkpoint
	// when the durable gate is on (the leader clamps to ITS checkpoint;
	// ours may lag).
	if m.truncate > 0 {
		safe := m.truncate
		if safe > pr.delivered {
			safe = pr.delivered
		}
		if pr.durableGate {
			if dp := pr.posForTs(pr.durableTmp); dp < safe {
				safe = dp
			}
		}
		pr.dropPrefix(safe)
	}
}

// onProposal records another group's proposal; the leader also tries to
// decide the message.
func (pr *Process) onProposal(p *sim.Proc, m *proposalMsg) {
	props := pr.remoteProps[m.id]
	if props == nil {
		if pr.committed[m.id] {
			return
		}
		props = make(map[GroupID]Timestamp)
		pr.remoteProps[m.id] = props
	}
	props[m.fromGroup] = m.prop
	if pend := pr.pending[m.id]; pend != nil {
		pend.props[m.fromGroup] = m.prop
		if pr.role == roleLeader {
			pr.tryDecide(p, pend)
		}
	}
}

// mergeRemoteProps folds proposals that arrived before the pending entry
// existed into it.
func (pr *Process) mergeRemoteProps(pend *pendingMsg) {
	if props, ok := pr.remoteProps[pend.msg.id]; ok {
		for g, ts := range props {
			pend.props[g] = ts
		}
	}
}

// deliverCommitted hands committed-but-undelivered entries to the
// application, enforcing timestamp monotonicity (a violated invariant is
// a protocol bug, surfaced loudly).
func (pr *Process) deliverCommitted() {
	progressed := false
	for pr.delivered < pr.commitIdx {
		e := pr.log[pr.delivered-pr.logBase]
		if e.ts <= pr.lastDeliveredTs {
			panic(fmt.Sprintf("multicast: group %d rank %d delivering ts %v after %v",
				pr.group, pr.rank, e.ts, pr.lastDeliveredTs))
		}
		pr.lastDeliveredTs = e.ts
		pr.out.Send(Delivery{ID: e.id, Ts: e.ts, Dst: e.dst, Payload: e.payload})
		pr.delivered++
		pr.statDelivered++
		progressed = true
		pr.obsDelivered.Inc()
		if pr.rank == 0 {
			// One flight record per group per delivery keeps the ring's
			// recent history readable under load.
			pr.obsFlight.Record(pr.sched.Now(), obs.FltDeliver, uint32(pr.id), e.id.Seq, uint64(e.ts))
		}
		if pr.obsFirstSeen != nil {
			if t0, seen := pr.obsFirstSeen[e.id]; seen {
				pr.obsOrderLat.Observe(sim.Duration(pr.sched.Now() - t0))
				delete(pr.obsFirstSeen, e.id)
			}
		}
	}
	if progressed {
		// Pending-queue depth over virtual time, rendered as a counter
		// series in the trace viewer and fed into the partition-heat
		// backlog series.
		pr.obsTrack.Count("mc_pending", float64(len(pr.pending)))
		pr.obsHeat.RecordQueue(pr.sched.Now(), len(pr.pending))
	}
}
