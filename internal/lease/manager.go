// Package lease grants per-partition read leases over virtual time so
// one replica per partition ("the holder") can serve single-object reads
// locally — one control-plane round trip instead of a multicast round.
//
// The Manager is the grantor: a single simulation process that, every
// Renew interval, renews the current holder's lease (or grants a fresh
// one to the lowest live rank) by submitting a lease command into the
// partition's total order. The replica-side protocol — applying grants
// and revocations in execution order, gating non-holder replies on the
// holder's published execution frontier, serving local reads — lives in
// internal/core (see core/lease.go for the safety argument).
//
// Holder choice is sticky: as long as the current holder is alive it is
// renewed, so its self-serve privilege and published frontier stay
// continuous. The Manager switches holders only when the incumbent has
// crashed (a crashed holder cannot serve, and rejoin clears its
// self-serve flag before it executes again, so an immediate re-grant is
// safe) or when no lease was held. Expiries are absolute virtual-time
// instants stamped by the grantor; the shared simulated clock makes
// "expired" a globally consistent predicate with no skew margin.
//
// The Manager also implements reconfig.LeaseFencer: before a
// reconfiguration command enters the total order, FenceLeases revokes
// every outstanding lease and sleeps until the latest absolute expiry
// has passed, so no replica can serve a local read across the epoch
// flip from pre-migration state.
package lease

import (
	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Default lease timing. Exported so harnesses (e.g. the chaos leasecrash
// schedule generator) can compute the exact virtual instants at which
// grants and renewals happen and aim faults at them.
const (
	// DefaultTTL is the lease lifetime stamped into each grant.
	DefaultTTL = 1 * sim.Millisecond
	// DefaultRenew is the grant-loop cadence; at TTL/2 a healthy holder
	// is always renewed well before its lease expires.
	DefaultRenew = DefaultTTL / 2
	// DefaultStart delays the first grant past deployment start-up.
	DefaultStart = 100 * sim.Microsecond
	// DefaultProbeTimeout bounds a client's local-read probe before it
	// falls back to the ordered path.
	DefaultProbeTimeout = 50 * sim.Microsecond
)

// Options configure a Manager.
type Options struct {
	// Until, when nonzero, stops the grant loop at that instant; leases
	// then lapse at their absolute expiry. Zero runs the loop forever
	// (fine under RunUntil-bounded simulations).
	Until sim.Time
}

// partLease is the grantor's book-keeping for one partition.
type partLease struct {
	seq    uint64
	holder int // rank; -1 when no live lease is tracked
	expire sim.Time
}

// Manager is the lease grantor for one deployment. All mutation happens
// on the grant-loop process and (during fencing) the reconfiguration
// manager's process; the cooperative scheduler serializes them, and
// every book-keeping update happens before the multicast submission it
// describes, so a fence arriving between the two still sees the lease
// it must wait out.
type Manager struct {
	d   *core.Deployment
	opt Options

	// mc submits grants/renewals (grant-loop process only); fmc submits
	// fence revocations (reconfiguration process only). Two multicast
	// clients because the two processes submit concurrently and a
	// multicast client is single-caller.
	mc  *multicast.Client
	fmc *multicast.Client

	parts  []partLease
	fenced bool
	cond   *sim.Cond // wakes the grant loop when fencing ends

	// Grants and Revokes count commands submitted by this manager
	// (virtual-time deterministic).
	Grants  uint64
	Revokes uint64
}

// Attach builds a Manager for a deployment. Call before the simulation
// starts issuing load; Start spawns the grant loop.
func Attach(d *core.Deployment, opt Options) *Manager {
	m := &Manager{
		d:    d,
		opt:  opt,
		mc:   multicast.NewClient(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, d.AllocClientNode()),
		fmc:  multicast.NewClient(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, d.AllocClientNode()),
		cond: sim.NewCond(d.Sched),
	}
	return m
}

// Start spawns the grant-loop process.
func (m *Manager) Start() {
	m.d.Sched.Spawn("lease-manager", m.run)
}

func (m *Manager) run(p *sim.Proc) {
	p.Sleep(DefaultStart)
	for {
		if m.opt.Until > 0 && p.Now() >= m.opt.Until {
			return
		}
		m.cond.WaitUntil(p, func() bool { return !m.fenced })
		m.tick(p)
		p.Sleep(DefaultRenew)
	}
}

// tick grants or renews one lease per partition. Book-keeping is updated
// before each multicast submission (the submission is a yield point); a
// fence that preempts the loop mid-tick revokes what was already booked
// and the fenced check stops the remainder of the sweep.
func (m *Manager) tick(p *sim.Proc) {
	for len(m.parts) < len(m.d.Replicas) {
		m.parts = append(m.parts, partLease{holder: -1})
	}
	for part := range m.d.Replicas {
		if m.fenced {
			return
		}
		st := &m.parts[part]
		reps := m.d.Replicas[part]
		next := -1
		if st.holder >= 0 && st.holder < len(reps) && !reps[st.holder].Crashed() {
			next = st.holder // sticky: renew the live incumbent
		} else {
			for rank, rep := range reps {
				if !rep.Crashed() {
					next = rank
					break
				}
			}
		}
		if next < 0 {
			continue // no live replica; retry next tick
		}
		st.seq++
		st.holder = next
		st.expire = p.Now() + sim.Time(DefaultTTL)
		m.Grants++
		m.mc.Multicast(p, []core.PartitionID{core.PartitionID(part)},
			core.EncodeLeaseCommand(st.seq, core.LeaseGrant, next, st.expire))
	}
}

// FenceLeases implements reconfig.LeaseFencer: it pauses the grant loop,
// submits a revocation for every outstanding lease, and sleeps until the
// latest absolute expiry has passed. On return no replica can self-serve
// (the holders either executed their revocation or their lease expired
// on the shared clock), and no new lease will be granted until
// ResumeLeases. Runs on the reconfiguration manager's process.
func (m *Manager) FenceLeases(p *sim.Proc) {
	m.fenced = true
	var maxExpire sim.Time
	for part := range m.parts {
		st := &m.parts[part]
		if st.holder < 0 {
			continue
		}
		if st.expire > maxExpire {
			maxExpire = st.expire
		}
		st.seq++
		st.holder = -1
		st.expire = 0
		m.Revokes++
		m.fmc.Multicast(p, []core.PartitionID{core.PartitionID(part)},
			core.EncodeLeaseCommand(st.seq, core.LeaseRevoke, 0, 0))
	}
	// An in-flight grant submitted just before the fence is already
	// booked (state-before-submission), so its expiry is covered by
	// maxExpire; if its command is ordered after the revocation it is
	// ignored as stale, and if ordered before, waiting out the expiry
	// below neutralizes it.
	if maxExpire > p.Now() {
		p.Sleep(sim.Duration(maxExpire - p.Now()))
	}
}

// ResumeLeases lifts the fence; the grant loop re-grants from scratch on
// its next tick.
func (m *Manager) ResumeLeases() {
	m.fenced = false
	m.cond.Broadcast()
}

// HolderNode returns the fabric node of the partition's current lease
// holder, or ok=false when no lease is live (never granted, expired,
// fenced, or the tracked holder crashed). Clients use it to aim their
// local-read probes; a stale answer is safe — the probe is declined and
// the client falls back to the ordered path.
func (m *Manager) HolderNode(part core.PartitionID) (rdma.NodeID, bool) {
	if int(part) >= len(m.parts) || m.fenced {
		return 0, false
	}
	st := m.parts[part]
	if st.holder < 0 || m.d.Sched.Now() >= st.expire {
		return 0, false
	}
	reps := m.d.Replicas[part]
	if st.holder >= len(reps) || reps[st.holder].Crashed() {
		return 0, false
	}
	return reps[st.holder].NodeID(), true
}

// Holder returns the tracked holder rank for a partition (-1 when none).
func (m *Manager) Holder(part core.PartitionID) int {
	if int(part) >= len(m.parts) {
		return -1
	}
	return m.parts[part].holder
}
