package multicast

import (
	"slices"
	"testing"

	"heron/internal/sim"
)

// truncProcess builds a bare leader with n appended log entries, all
// committed and delivered, and every follower acked through rep record
// `acked`. Only the fields truncation reads are populated.
func truncProcess(n int, acked uint64) *Process {
	pr := &Process{
		cfg:        &Config{},
		role:       roleLeader,
		rank:       0,
		ackedRep:   []uint64{0, acked, acked},
		truncateAt: truncateEvery,
	}
	for i := 0; i < n; i++ {
		pr.log = append(pr.log, logEntry{ts: Timestamp(i + 1)})
		// Each append rides replication record i+1.
		pr.recordRepGseq(uint64(i+1), uint64(i+1))
	}
	pr.commitIdx = uint64(n)
	pr.delivered = uint64(n)
	return pr
}

func TestTruncateThresholdDefault(t *testing.T) {
	c := newCluster(t, 1, 3)
	defer c.s.Close()
	for _, pr := range c.procs[0] {
		if pr.truncateAt != 4096 {
			t.Fatalf("rank %d threshold = %d, want 4096", pr.Rank(), pr.truncateAt)
		}
	}
}

func TestSafeTruncationPointFollowerIsZero(t *testing.T) {
	pr := truncProcess(8, 8)
	pr.role = roleFollower
	if got := pr.safeTruncationPoint(); got != 0 {
		t.Fatalf("follower safe point = %d, want 0", got)
	}
}

func TestSafeTruncationPointMinAck(t *testing.T) {
	pr := truncProcess(8, 8)
	// One follower lags: acked only through rep record 5.
	pr.ackedRep[2] = 5
	if got := pr.safeTruncationPoint(); got != 5 {
		t.Fatalf("safe point = %d, want 5 (slowest follower)", got)
	}
}

func TestSafeTruncationPointClampsToCommitAndDelivered(t *testing.T) {
	pr := truncProcess(8, 8)
	pr.commitIdx = 6
	if got := pr.safeTruncationPoint(); got != 6 {
		t.Fatalf("safe point = %d, want commitIdx clamp 6", got)
	}
	pr.commitIdx = 8
	pr.delivered = 3
	if got := pr.safeTruncationPoint(); got != 3 {
		t.Fatalf("safe point = %d, want delivered clamp 3", got)
	}
}

func TestDropPrefixKeepsAbsoluteIndices(t *testing.T) {
	pr := truncProcess(8, 8)
	pr.dropPrefix(5)
	if pr.LogBase() != 5 || pr.LogLen() != 3 {
		t.Fatalf("base=%d len=%d, want base=5 len=3", pr.LogBase(), pr.LogLen())
	}
	// The first retained entry is absolute index 5 (ts 6 in our encoding).
	if pr.log[0].ts != Timestamp(6) {
		t.Fatalf("first retained ts = %d, want 6", pr.log[0].ts)
	}
	// rep->gseq index pruned below the new base.
	for _, rg := range pr.repToGseq {
		if rg.upTo <= pr.LogBase() {
			t.Fatalf("stale repToGseq entry %+v below base %d", rg, pr.LogBase())
		}
	}
	// Dropping below the base is a no-op.
	pr.dropPrefix(4)
	if pr.LogBase() != 5 || pr.LogLen() != 3 {
		t.Fatalf("drop below base mutated log: base=%d len=%d", pr.LogBase(), pr.LogLen())
	}
	// Dropping beyond the log clamps.
	pr.dropPrefix(100)
	if pr.LogBase() != 8 || pr.LogLen() != 0 {
		t.Fatalf("drop past end: base=%d len=%d, want base=8 len=0", pr.LogBase(), pr.LogLen())
	}
}

func TestMaybeTruncateBelowThresholdIsNoop(t *testing.T) {
	pr := truncProcess(8, 8)
	pr.truncateAt = 100
	pr.maybeTruncate()
	if pr.LogBase() != 0 || pr.LogLen() != 8 {
		t.Fatalf("truncated below threshold: base=%d len=%d", pr.LogBase(), pr.LogLen())
	}
}

func TestDurableGateBlocksUntilFirstCheckpoint(t *testing.T) {
	pr := truncProcess(8, 8)
	pr.truncateAt = 4
	// Gate armed, but no checkpoint reported yet: nothing may go.
	pr.EnableDurableGate()
	pr.maybeTruncate()
	if pr.LogBase() != 0 || pr.LogLen() != 8 {
		t.Fatalf("gated truncation dropped entries: base=%d len=%d", pr.LogBase(), pr.LogLen())
	}
	// First checkpoint through ts 5: exactly the covered prefix goes.
	pr.SetDurableTmp(Timestamp(5))
	pr.maybeTruncate()
	if pr.LogBase() != 5 || pr.LogLen() != 3 {
		t.Fatalf("base=%d len=%d, want base=5 len=3", pr.LogBase(), pr.LogLen())
	}
}

func TestSetDurableTmpRequestsTruncationBelowThreshold(t *testing.T) {
	pr := truncProcess(8, 8)
	// Default 4096-entry threshold would never fire for 8 entries...
	pr.maybeTruncate()
	if pr.LogBase() != 0 {
		t.Fatalf("threshold did not hold: base=%d", pr.LogBase())
	}
	// ...but a fresh checkpoint requests an immediate attempt.
	pr.SetDurableTmp(Timestamp(3))
	if !pr.truncReq {
		t.Fatal("SetDurableTmp did not request truncation")
	}
	pr.maybeTruncate()
	if pr.LogBase() != 3 || pr.LogLen() != 5 {
		t.Fatalf("base=%d len=%d, want base=3 len=5", pr.LogBase(), pr.LogLen())
	}
	if pr.truncReq {
		t.Fatal("truncation request not consumed")
	}
	// A stale (non-advancing) checkpoint report requests nothing.
	pr.SetDurableTmp(Timestamp(2))
	if pr.truncReq || pr.durableTmp != 3 {
		t.Fatalf("stale SetDurableTmp mutated state: req=%v tmp=%d", pr.truncReq, pr.durableTmp)
	}
}

func TestPosForTsCountsRetainedSuffix(t *testing.T) {
	pr := truncProcess(8, 8)
	if got := pr.posForTs(0); got != 0 {
		t.Fatalf("posForTs(0) = %d, want 0", got)
	}
	if got := pr.posForTs(Timestamp(3)); got != 3 {
		t.Fatalf("posForTs(3) = %d, want 3", got)
	}
	if got := pr.posForTs(Timestamp(100)); got != 8 {
		t.Fatalf("posForTs(100) = %d, want log length 8", got)
	}
	// After a truncation, positions stay absolute: everything dropped had
	// ts <= the old gating point, so the base subsumes it.
	pr.dropPrefix(4)
	if got := pr.posForTs(Timestamp(3)); got != 4 {
		t.Fatalf("posForTs(3) after drop = %d, want base 4", got)
	}
	if got := pr.posForTs(Timestamp(6)); got != 6 {
		t.Fatalf("posForTs(6) after drop = %d, want 6", got)
	}
}

func TestDropPrefixMemoizesTimestampsForRepair(t *testing.T) {
	pr := truncProcess(4, 4)
	for i := range pr.log {
		pr.log[i].id = MsgID{Node: 1, Seq: uint64(i + 1)}
		pr.log[i].dst = []GroupID{0, 1} // only a multi-group id is ever asked for
	}
	pr.dropPrefix(2)
	// The memo answers kindPropReq for proposals whose entries are gone:
	// each dropped id must map to its final delivery timestamp.
	if len(pr.truncTs) != 2 {
		t.Fatalf("memo holds %d ids, want 2", len(pr.truncTs))
	}
	for seq := uint64(1); seq <= 2; seq++ {
		ts, ok := pr.truncTs[MsgID{Node: 1, Seq: seq}]
		if !ok || ts != Timestamp(seq) {
			t.Fatalf("memo[m1-%d] = %d ok=%v, want ts %d", seq, ts, ok, seq)
		}
	}
	if _, ok := pr.truncTs[MsgID{Node: 1, Seq: 3}]; ok {
		t.Fatal("retained entry leaked into the truncation memo")
	}
	if pr.Truncated() != 2 {
		t.Fatalf("Truncated() = %d, want 2", pr.Truncated())
	}
}

func TestMaybeTruncateDropsSafePrefix(t *testing.T) {
	pr := truncProcess(8, 8)
	pr.truncateAt = 4
	pr.ackedRep[1] = 6 // slowest follower acked rep record 6
	pr.maybeTruncate()
	if pr.LogBase() != 6 || pr.LogLen() != 2 {
		t.Fatalf("base=%d len=%d, want base=6 len=2", pr.LogBase(), pr.LogLen())
	}
	if pr.truncateTo != 6 {
		t.Fatalf("advertised safe point = %d, want 6", pr.truncateTo)
	}
	// Re-running without new acks does nothing (safe <= logBase).
	pr.maybeTruncate()
	if pr.LogBase() != 6 || pr.LogLen() != 2 {
		t.Fatalf("second truncate moved base: base=%d len=%d", pr.LogBase(), pr.LogLen())
	}
}

// TestTruncationForgetsSingleGroupMessages: truncating the log of a group
// that ordered 10 000 single-group messages leaves nothing behind in the
// repair memo — nothing grows with run length — while a truncated
// two-group message is still answered with its final timestamp when
// another group asks for its proposal.
func TestTruncationForgetsSingleGroupMessages(t *testing.T) {
	c := newCluster(t, 2, 3)
	defer c.s.Close()
	c.truncateAt(256)
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	const n = 10_000
	var multi []MsgID
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			dst := []GroupID{0}
			if i%1000 == 500 {
				dst = []GroupID{0, 1}
			}
			id := cl.Multicast(p, dst, []byte("payload"))
			if len(dst) > 1 {
				multi = append(multi, id)
			}
			p.Sleep(2 * sim.Microsecond)
		}
	})
	c.run(60 * sim.Millisecond)
	leader := c.procs[0][0]
	if got := len(c.deliveries[0][0]); got != n {
		t.Fatalf("group 0 delivered %d messages, want %d", got, n)
	}
	if leader.Truncated() < n/2 {
		t.Fatalf("group 0's leader truncated %d entries, want most of %d", leader.Truncated(), n)
	}
	for r, pr := range c.procs[0] {
		for id := range pr.truncTs {
			if !slices.Contains(multi, id) {
				t.Fatalf("member %d memoised single-group message %v", r, id)
			}
		}
	}
	asked := multi[0]
	want, ok := c.delivered(0, 0, asked)
	if !ok || leader.LogBase() == 0 || leader.truncTs[asked] != want {
		t.Fatalf("first two-group message %v: delivered %v (%v), memo %v, log base %d", asked, want, ok, leader.truncTs[asked], leader.LogBase())
	}
	// Ask as a member of group 1 would, then read the queued answer.
	from := c.cfg.Groups[1][0]
	leader.onPropRequest(&propRequest{id: asked}, from)
	ob := leader.outboxes[leader.outboxOf[from]]
	if len(ob.msgs) != 1 {
		t.Fatalf("%d datagrams queued for the asker, want 1", len(ob.msgs))
	}
	kind, r, _ := decodeKind(ob.msgs[0])
	if got := decodeProposal(&r); kind != kindProposal || got != (proposalMsg{fromGroup: 0, id: asked, prop: want}) {
		t.Fatalf("answer %+v (kind %d), want group 0's final timestamp %v for %v", got, kind, want, asked)
	}
}

// TestSettledWaitsForTruncation: a group holding a message it has not
// ordered is not settled; after a fresh durable checkpoint it is not
// settled until the leader has truncated and every follower has dropped
// the advertised prefix, and once settled no member truncates any more.
func TestSettledWaitsForTruncation(t *testing.T) {
	c := newCluster(t, 1, 3)
	defer c.s.Close()
	group := c.procs[0]
	for _, pr := range group {
		pr.EnableDurableGate()
	}
	cl := NewClient(OverRDMA(c.tr), &c.cfg, c.addClientNode(100))
	const n = 8
	c.s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			cl.Multicast(p, []GroupID{0}, []byte("payload"))
		}
	})
	c.run(2 * sim.Millisecond)
	if len(c.deliveries[0][2]) != n || !Settled(group) {
		t.Fatalf("%d of %d delivered, settled %v; want all, settled", len(c.deliveries[0][2]), n, Settled(group))
	}
	waiting := MsgID{Node: 9, Seq: 1}
	group[1].unproposed[waiting] = clientMsg{id: waiting}
	if Settled(group) {
		t.Fatal("settled with a message waiting to be ordered")
	}
	delete(group[1].unproposed, waiting)
	for _, pr := range group {
		pr.SetDurableTmp(c.deliveries[0][0][n-1].Ts)
	}
	if Settled(group) {
		t.Fatal("settled with a truncation request pending")
	}
	truncated := func() (sum uint64) {
		for _, pr := range group {
			sum += pr.Truncated()
		}
		return sum
	}
	now := c.s.Now()
	for ; !Settled(group); now += sim.Time(sim.Microsecond) {
		if now > sim.Time(10*sim.Millisecond) {
			t.Fatal("never settled")
		}
		c.run(sim.Duration(now))
	}
	settledWith := truncated()
	c.run(sim.Duration(now) + 5*sim.Millisecond)
	for r, pr := range group {
		if pr.LogBase() != n {
			t.Errorf("member %d kept its log from %d, want it dropped through %d", r, pr.LogBase(), n)
		}
	}
	if got := truncated(); got != settledWith || got != 3*n {
		t.Fatalf("settled with %d entries truncated, %d later; want %d both times", settledWith, got, 3*n)
	}
}
