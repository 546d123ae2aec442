package multicast

import (
	"bytes"
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
// committed to the group log. It comes from the process's free list
// (newPending) and goes back to it (releasePending) once its entry is
// appended or it is dropped wholesale; nothing may keep a pointer to it
// past that. Its msg.payload is the process's one kept copy of the body,
// which the log entry takes over, and msg.dst is interned.
type pendingMsg struct {
	msg     clientMsg
	ownProp Timestamp
	// props holds the proposals heard from the other destination groups,
	// aligned with msg.dst; 0 marks one not heard yet (a proposal is
	// never 0). The slot of this group stays 0.
	props      []Timestamp
	propStable bool      // own proposal replicated to a quorum
	final      Timestamp // 0 until decided
	lastSend   sim.Time
}

// setProp records ts as group g's proposal in props, aligned with dst.
func setProp(dst []GroupID, props []Timestamp, g GroupID, ts Timestamp) {
	for i, h := range dst {
		if h == g {
			props[i] = ts
		}
	}
}

// groupProp is one group's proposal for a message.
type groupProp struct {
	group GroupID
	ts    Timestamp
}

// milestoneKind says what a milestone does when it fires.
type milestoneKind uint8

const (
	// msProposal: this group's proposal prop for message id (to dst) is
	// quorum-replicated. Send it to the other destination groups and try
	// to decide. The message may have been decided and appended — its
	// pendingMsg recycled — before the milestone fires (tryDecide does not
	// wait for propStable), so the milestone carries what it sends.
	msProposal milestoneKind = iota + 1
	// msCommit: the append establishing log length upTo is held by a
	// quorum; commit up to it, deliver, truncate and announce.
	msCommit
	// msRereplicated: the re-replicated log up to upTo is held by a quorum
	// (rereplicate); commit up to it and announce.
	msRereplicated
)

// milestone is a deferred action fired once a quorum of followers has
// acknowledged replication records up to seq.
type milestone struct {
	seq  uint64
	kind milestoneKind
	upTo uint64 // msCommit, msRereplicated
	id   MsgID  // msProposal
	dst  []GroupID
	prop Timestamp
}

// milestoneQueue holds milestones in registration order. It keeps its
// backing array: popping advances head, and the consumed prefix is
// dropped when the queue empties or slid down once it is half the queue.
type milestoneQueue struct {
	q    []milestone
	head int
}

func (mq *milestoneQueue) push(m milestone) { mq.q = append(mq.q, m) }

// popDue removes and returns the oldest milestone if a quorum ack of q
// covers it.
func (mq *milestoneQueue) popDue(q uint64) (milestone, bool) {
	if mq.head == len(mq.q) || mq.q[mq.head].seq > q {
		return milestone{}, false
	}
	m := mq.q[mq.head]
	mq.q[mq.head] = milestone{}
	mq.head++
	switch {
	case mq.head == len(mq.q):
		mq.q, mq.head = mq.q[:0], 0
	case mq.head >= 64 && 2*mq.head >= len(mq.q):
		n := copy(mq.q, mq.q[mq.head:])
		clear(mq.q[n:])
		mq.q, mq.head = mq.q[:n], 0
	}
	return m, true
}

// reset drops every queued milestone.
func (mq *milestoneQueue) reset() {
	clear(mq.q)
	mq.q, mq.head = mq.q[:0], 0
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
	// truncTs remembers the final timestamp of committed multi-group
	// entries dropped by truncation, so pull-based proposal repair
	// (kindPropRequest, only ever about a multi-group message) can still
	// answer from this snapshot of commit metadata.
	truncTs map[MsgID]Timestamp

	pending map[MsgID]*pendingMsg
	// remoteProps records every proposal heard from another group for a
	// message not committed here, whether or not it is pending here yet;
	// each list comes from, and goes back to, freeProps.
	remoteProps map[MsgID][]groupProp
	committed   map[MsgID]bool
	unproposed  map[MsgID]clientMsg

	// Free lists of per-message state, grown on demand: pendingMsgs and
	// remoteProps lists whose message was appended or dropped.
	freePend  []*pendingMsg
	freeProps [][]groupProp
	// dsts interns every destination list this process decodes.
	dsts dstTable

	// Leader state. repSeq doubles as follower state: the highest
	// replication record applied contiguously in the current view.
	repSeq        uint64
	ackedRep      []uint64 // per follower rank, for the current view
	lagSince      []sim.Time
	milestones    milestoneQueue
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
	// arena holds the bytes of every datagram queued since the last flush,
	// end to end: encoders append to it and rec cuts the new datagram off
	// its tail. A queued datagram is valid until the end of the flush that
	// sends it, which copies it into the transport's post ops and then
	// empties the arena, keeping its capacity. Only the event loop's proc
	// queues and flushes.
	arena []byte

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
		remoteProps: make(map[MsgID][]groupProp),
		committed:   make(map[MsgID]bool),
		unproposed:  make(map[MsgID]clientMsg),
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
			pr.broadcastGroup(pr.rec(encodeCommitIdx(pr.arena, kindHeartbeat, &commitIdxMsg{view: pr.view, commitIdx: pr.commitIdx, truncate: pr.truncateTo})))
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
	pr.send(leader, pr.rec(encodeAck(pr.arena, &ackMsg{view: pr.view, repSeq: pr.repSeq})))
}

// rec adopts b, the send arena with one datagram appended by an encoder,
// and returns that datagram. The encoder may have moved the arena to a
// larger array; the datagrams queued before stay where they were.
func (pr *Process) rec(b []byte) []byte {
	n := len(pr.arena)
	pr.arena = b
	return b[n:len(b):len(b)]
}

// send queues one datagram on its destination's outbox; the event loop's
// next flush transmits it. The payload must not be modified until that
// flush ends.
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
	pr.arena = pr.arena[:0] // every queued datagram has been copied out
}

// handle dispatches one protocol datagram. The datagram is valid only
// until the loop's next receive: the client and replication kinds decode
// to views of it, and their handlers copy a body only when they keep one
// the process does not already hold (keepBody).
func (pr *Process) handle(p *sim.Proc, datagram []byte, from rdma.NodeID) {
	pr.statHandled++
	kind, r, err := decodeKind(datagram)
	if err != nil {
		return
	}
	switch kind {
	case kindClient:
		m := decodeClient(&r, &pr.dsts)
		if r.Err() == nil {
			pr.onClient(p, &m)
		}
	case kindRepProposal:
		m := decodeRepProposal(&r, &pr.dsts)
		if r.Err() == nil {
			pr.onRepProposal(p, &m)
		}
	case kindRepCommit:
		m := decodeRepCommit(&r, &pr.dsts)
		if r.Err() == nil {
			pr.onRepCommit(p, &m)
		}
	case kindAck:
		m := decodeAck(&r)
		if r.Err() == nil {
			pr.onAck(p, &m, from)
		}
	case kindProposal:
		m := decodeProposal(&r)
		if r.Err() == nil {
			pr.onProposal(p, &m)
		}
	case kindCommitIdx, kindHeartbeat:
		m := decodeCommitIdx(&r)
		if r.Err() == nil {
			pr.onCommitIdx(p, &m)
		}
	case kindViewReq:
		m := decodeViewReq(&r)
		if r.Err() == nil {
			pr.onViewReq(p, m, from)
		}
	case kindViewState:
		m := decodeViewState(&r, &pr.dsts)
		if r.Err() == nil {
			pr.onViewState(p, m, from)
		}
	case kindResync:
		m := decodeResync(&r, &pr.dsts)
		if r.Err() == nil {
			pr.onResync(p, m)
		}
	case kindPropReq:
		m := decodePropRequest(&r)
		if r.Err() == nil {
			pr.onPropRequest(&m, from)
		}
	}
}

// onClient handles a client submission: leaders propose, followers buffer
// in case they become leader before the message is ordered. m's payload
// is a view of the datagram; a duplicate copies nothing.
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
		kept := *m
		kept.payload = pr.keepBody(m.id, m.payload)
		pr.propose(p, &kept)
		return
	}
	if _, ok := pr.unproposed[m.id]; !ok {
		kept := *m
		kept.payload = bytes.Clone(m.payload)
		pr.unproposed[m.id] = kept
	}
}

// keepBody returns the body of message id for the process to keep: the
// copy it buffered from the client, when it has one, or else a copy of
// view, the body a datagram carried.
func (pr *Process) keepBody(id MsgID, view []byte) []byte {
	if m, ok := pr.unproposed[id]; ok {
		return m.payload
	}
	return bytes.Clone(view)
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
		pr.milestones.reset()
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
			msg := m.msg
			msg.payload = pr.keepBody(msg.id, msg.payload)
			pend = pr.newPending(msg, 0)
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
	pend := pr.pending[m.id]
	if !m.hasBody && pend == nil {
		// The body rides the repProposal, which precedes the commit in a
		// contiguous stream; a missing body means our state predates this
		// view's stream. Do NOT ack past it — wait for resync.
		return
	}
	if m.gseq > pr.logBase+uint64(len(pr.log)) {
		return // log hole: wait for resync, and do not ack past it
	}
	entry := logEntry{id: m.id, ts: m.ts}
	if pend != nil {
		entry.dst, entry.payload = pend.msg.dst, pend.msg.payload
	} else {
		entry.dst, entry.payload = m.dst, pr.keepBody(m.id, m.payload)
	}
	pr.repSeq = m.repSeq
	pr.needAck = true
	pr.log = append(pr.log[:m.gseq-pr.logBase], entry)
	pr.committed[m.id] = true
	if pend != nil {
		delete(pr.pending, m.id)
		pr.releasePending(pend)
	}
	delete(pr.unproposed, m.id)
	pr.dropRemoteProps(m.id)
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
	// Apply the leader's advertised truncation point as far as this
	// member may (followerTruncation).
	if m.truncate > 0 {
		pr.dropPrefix(pr.followerTruncation(m.truncate))
	}
}

// onProposal records another group's proposal; the leader also tries to
// decide the message. A proposal is never 0, so one that reads 0 is
// malformed and ignored.
func (pr *Process) onProposal(p *sim.Proc, m *proposalMsg) {
	if m.prop == 0 {
		return
	}
	props, ok := pr.remoteProps[m.id]
	if !ok {
		if pr.committed[m.id] {
			return
		}
		if n := len(pr.freeProps); n > 0 {
			props = pr.freeProps[n-1]
			pr.freeProps[n-1] = nil
			pr.freeProps = pr.freeProps[:n-1]
		}
	}
	pr.remoteProps[m.id] = setGroupProp(props, m.fromGroup, m.prop)
	if pend := pr.pending[m.id]; pend != nil {
		setProp(pend.msg.dst, pend.props, m.fromGroup, m.prop)
		if pr.role == roleLeader {
			pr.tryDecide(p, pend)
		}
	}
}

// setGroupProp records ts as group g's proposal in props, replacing an
// earlier one from g.
func setGroupProp(props []groupProp, g GroupID, ts Timestamp) []groupProp {
	for i := range props {
		if props[i].group == g {
			props[i].ts = ts
			return props
		}
	}
	return append(props, groupProp{group: g, ts: ts})
}

// dropRemoteProps forgets the proposals heard for a committed message and
// returns their list to the free list.
func (pr *Process) dropRemoteProps(id MsgID) {
	if props, ok := pr.remoteProps[id]; ok {
		delete(pr.remoteProps, id)
		pr.freeProps = append(pr.freeProps, props[:0])
	}
}

// mergeRemoteProps folds proposals that arrived before the pending entry
// existed into it.
func (pr *Process) mergeRemoteProps(pend *pendingMsg) {
	for _, gp := range pr.remoteProps[pend.msg.id] {
		setProp(pend.msg.dst, pend.props, gp.group, gp.ts)
	}
}

// newPending takes a pendingMsg from the free list, or allocates one, for
// msg with own proposal ownProp and no other proposal heard.
func (pr *Process) newPending(msg clientMsg, ownProp Timestamp) *pendingMsg {
	var pend *pendingMsg
	if n := len(pr.freePend); n > 0 {
		pend = pr.freePend[n-1]
		pr.freePend[n-1] = nil
		pr.freePend = pr.freePend[:n-1]
	} else {
		pend = new(pendingMsg)
	}
	props := pend.props
	if cap(props) < len(msg.dst) {
		props = make([]Timestamp, len(msg.dst))
	} else {
		props = props[:len(msg.dst)]
		clear(props)
	}
	*pend = pendingMsg{msg: msg, ownProp: ownProp, props: props}
	return pend
}

// releasePending returns pend, already out of pr.pending, to the free
// list. Its body now belongs to the log (or to nobody), so it lets go of
// it.
func (pr *Process) releasePending(pend *pendingMsg) {
	pend.msg = clientMsg{}
	pr.freePend = append(pr.freePend, pend)
}

// dropAllPending empties pr.pending, releasing every entry: a view
// change, resync, recovery or reshape rebuilds it from snapshots, which
// own copies of everything they hold.
func (pr *Process) dropAllPending() {
	for _, pend := range pr.pending {
		pr.releasePending(pend)
	}
	clear(pr.pending)
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
