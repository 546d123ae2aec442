package multicast

import "sort"

// Log truncation bounds a replica's memory in long-running deployments.
//
// A group-log prefix can be discarded once every member of the group has
// delivered it: it will never be needed for view-change state exchange
// (any new leader already has it) or for re-replication. Leaders learn
// follower delivery positions from the acks they already receive;
// followers learn the group-wide safe point from a field piggybacked on
// heartbeats.
//
// With a persistence layer attached, truncation is additionally gated on
// durability: each member clamps what it discards to its own durable
// checkpoint timestamp, so the retained log suffix always reaches back to
// the newest checkpoint — the delta a checkpoint-based recovery replays.
// Only the leader decides and advertises truncation points; followers
// never self-truncate beyond the advertised point (the truncation
// invariant that view changes and resync grafting rely on).
//
// Truncation keeps logical indices stable: the log slice drops a prefix
// but gseq/commitIdx/delivered remain absolute, offset by logBase.

// truncateThreshold returns the retained-entry count that triggers a
// truncation attempt.
func (pr *Process) truncateThreshold() uint64 {
	if pr.cfg.TruncateEvery > 0 {
		return uint64(pr.cfg.TruncateEvery)
	}
	return 4096
}

// EnableDurableGate arms durability gating before the first checkpoint
// exists: until SetDurableTmp reports one, nothing may be truncated on
// this member.
func (pr *Process) EnableDurableGate() { pr.durableGate = true }

// SetDurableTmp records that every delivery with timestamp <= ts is
// covered by a durable local checkpoint, and asks the leader to attempt a
// truncation on its next tick even below the retained-entry threshold.
// Called by the persistence layer after each manifest swap.
func (pr *Process) SetDurableTmp(ts Timestamp) {
	pr.durableGate = true
	if ts > pr.durableTmp {
		pr.durableTmp = ts
		pr.truncReq = true
	}
}

// posForTs returns the absolute log position just past the last entry
// with timestamp <= ts. Entries already truncated all had timestamps at
// or below every past gating point, so counting only the retained suffix
// (which is timestamp-ordered) is exact.
func (pr *Process) posForTs(ts Timestamp) uint64 {
	n := sort.Search(len(pr.log), func(i int) bool { return pr.log[i].ts > ts })
	return pr.logBase + uint64(n)
}

// repGseq maps a replication record to the absolute log length it
// established.
type repGseq struct {
	rep  uint64
	upTo uint64 // gseq + 1
}

// recordRepGseq notes that the replication record rep carried the append
// establishing absolute log length upTo.
func (pr *Process) recordRepGseq(rep, upTo uint64) {
	pr.repToGseq = append(pr.repToGseq, repGseq{rep: rep, upTo: upTo})
}

// safeTruncationPoint returns the highest absolute index every member of
// the group has APPENDED (acked), as known to the leader, clamped to the
// leader's own delivered position and — under durable gating — to its own
// durable checkpoint. Followers additionally clamp to their own delivered
// and durable positions, so advertising this point is always safe.
func (pr *Process) safeTruncationPoint() uint64 {
	if pr.role != roleLeader {
		return 0
	}
	minAck := ^uint64(0)
	for rank, acked := range pr.ackedRep {
		if rank == pr.rank {
			continue
		}
		if acked < minAck {
			minAck = acked
		}
	}
	// Largest established log length whose record every follower acked.
	var safe uint64
	for _, rg := range pr.repToGseq {
		if rg.rep > minAck {
			break
		}
		safe = rg.upTo
	}
	if safe > pr.commitIdx {
		safe = pr.commitIdx
	}
	// The leader must also have delivered what it discards.
	if safe > pr.delivered {
		safe = pr.delivered
	}
	// Durable gating: never discard entries newer than the local
	// checkpoint — they are the delta a recovery needs.
	if pr.durableGate {
		if dp := pr.posForTs(pr.durableTmp); dp < safe {
			safe = dp
		}
	}
	return safe
}

// maybeTruncate drops a delivered-everywhere (and, when gated, durable)
// log prefix. Called by the leader after commit-index advances, and from
// the tick when a fresh checkpoint requested truncation.
func (pr *Process) maybeTruncate() {
	if pr.truncReq {
		pr.truncReq = false
	} else if pr.commitIdx-pr.logBase < pr.truncateThreshold() {
		return
	}
	safe := pr.safeTruncationPoint()
	if safe <= pr.logBase {
		return
	}
	pr.dropPrefix(safe)
	// Tell followers the safe point on the next heartbeat (piggybacked in
	// commitIdx messages' truncate field).
	pr.truncateTo = safe
}

// followerTruncation clamps a leader's advertised truncation point to
// what this member may discard: never beyond what it has delivered
// itself, nor, when the durable gate is on, beyond its own durable
// checkpoint (the leader clamps to its checkpoint; ours may lag).
func (pr *Process) followerTruncation(advertised uint64) uint64 {
	safe := min(advertised, pr.delivered)
	if pr.durableGate {
		safe = min(safe, pr.posForTs(pr.durableTmp))
	}
	return safe
}

// Settled reports whether a group's ordering has nothing left to do once
// no one submits: no live member holds a message it has not ordered or
// stands for election, no leader has a truncation request pending, and
// every live follower has dropped what its view's leader advertised, as
// far as it may. members are the group's processes; a crashed one is
// skipped.
func Settled(members []*Process) bool {
	for _, pr := range members {
		if pr.tr.Crashed(pr.id) {
			continue
		}
		if len(pr.pending) > 0 || len(pr.unproposed) > 0 || pr.role == roleCandidate {
			return false
		}
		if pr.role == roleLeader {
			if pr.truncReq {
				return false
			}
			continue
		}
		for _, l := range members {
			if l.role == roleLeader && l.view == pr.view && !l.tr.Crashed(l.id) &&
				pr.followerTruncation(l.truncateTo) > pr.logBase {
				return false
			}
		}
	}
	return true
}

// dropPrefix discards log entries below absolute index `to`, memoizing
// each dropped multi-group entry's final timestamp for pull-based
// proposal repair. Only a multi-group message is ever asked for (another
// destination group's requestMissingProps), so a single-group entry
// leaves nothing behind.
func (pr *Process) dropPrefix(to uint64) {
	if to <= pr.logBase {
		return
	}
	n := to - pr.logBase
	if n > uint64(len(pr.log)) {
		n = uint64(len(pr.log))
	}
	for i := uint64(0); i < n; i++ {
		if e := &pr.log[i]; len(e.dst) > 1 {
			if pr.truncTs == nil {
				pr.truncTs = make(map[MsgID]Timestamp)
			}
			pr.truncTs[e.id] = e.ts
		}
	}
	pr.statTruncated += n
	pr.obsTruncated.Add(n)
	pr.log = append([]logEntry(nil), pr.log[n:]...)
	pr.logBase += n
	// Prune the rep->gseq index below the new base.
	i := 0
	for i < len(pr.repToGseq) && pr.repToGseq[i].upTo <= pr.logBase {
		i++
	}
	pr.repToGseq = append([]repGseq(nil), pr.repToGseq[i:]...)
}

// LogLen returns the retained (non-truncated) log length, for tests.
func (pr *Process) LogLen() int { return len(pr.log) }

// LogBase returns the absolute index of the first retained entry.
func (pr *Process) LogBase() uint64 { return pr.logBase }

// Truncated returns the number of log entries this process dropped.
func (pr *Process) Truncated() uint64 { return pr.statTruncated }
