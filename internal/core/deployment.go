package core

import (
	"fmt"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Deployment owns a complete Heron system on one simulated fabric: the
// multicast layer, every partition's replicas, and factories for clients.
//
// Construction order matters and mirrors a real rollout: nodes join the
// fabric, queue pairs and rings are wired, replicas exchange the
// addresses of their coordination / state-transfer / staging / object
// regions (as real deployments exchange rkeys during connection setup),
// stores are populated, and only then do processes start.
type Deployment struct {
	Sched  *sim.Scheduler
	Fabric *rdma.Fabric
	Cfg    *Config

	// TrMC carries multicast protocol traffic; TrCtl carries Heron's
	// control plane (address queries, client responses). Separate
	// transports keep the two subsystems' rings independent.
	TrMC  *rdma.Transport
	TrCtl *rdma.Transport

	MCProcs  [][]*multicast.Process
	Replicas [][]*Replica

	nextClient rdma.NodeID

	// obsv is the observer installed by Observe, kept so replacement
	// multicast processes created by RecoverReplica attach to it too.
	obsv *obs.Observer
}

// AppFactory builds the application instance for one replica. Each
// replica gets its own instance so applications may keep per-replica
// auxiliary state (e.g. TPCC's hash-map tables).
type AppFactory func(part PartitionID, rank int) Application

// NewDeployment builds (but does not start) a Heron system.
func NewDeployment(s *sim.Scheduler, cfg Config, newApp AppFactory, parter Partitioner) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Normalize the elastic caps before any replica sizes its regions:
	// every replica ever created must compute the same coordination-memory
	// stride, so the caps may only be fixed here, never later.
	for _, g := range cfg.Multicast.Groups {
		if len(g) > cfg.MaxGroupSize {
			cfg.MaxGroupSize = len(g)
		}
	}
	if cfg.MaxPartitions < len(cfg.Multicast.Groups) {
		cfg.MaxPartitions = len(cfg.Multicast.Groups)
	}
	d := &Deployment{
		Sched:      s,
		Fabric:     rdma.NewFabric(s, rdma.DefaultConfig()),
		Cfg:        &cfg,
		nextClient: 100000,
	}
	for _, group := range cfg.Multicast.Groups {
		for _, id := range group {
			d.Fabric.AddNode(id)
		}
	}
	d.TrMC = rdma.NewTransport(d.Fabric, multicast.RingCap)
	d.TrCtl = rdma.NewTransport(d.Fabric, ringCap)

	groups := len(cfg.Multicast.Groups)
	d.MCProcs = make([][]*multicast.Process, groups)
	d.Replicas = make([][]*Replica, groups)
	seed := int64(1)
	for g := 0; g < groups; g++ {
		n := len(cfg.Multicast.Groups[g])
		d.MCProcs[g] = make([]*multicast.Process, n)
		d.Replicas[g] = make([]*Replica, n)
		for rank := 0; rank < n; rank++ {
			mc := multicast.NewProcess(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, multicast.GroupID(g), rank)
			d.MCProcs[g][rank] = mc
			app := newApp(PartitionID(g), rank)
			d.Replicas[g][rank] = newReplica(d.Cfg, d.TrCtl, mc, PartitionID(g), rank, app, parter, seed, nil)
			seed++
		}
	}
	d.wirePeers()
	return d, nil
}

// wirePeers exchanges region addresses between all replicas.
func (d *Deployment) wirePeers() {
	groups := len(d.Replicas)
	infos := make([][]peerInfo, groups)
	for g := 0; g < groups; g++ {
		infos[g] = make([]peerInfo, len(d.Replicas[g]))
		for rank, rep := range d.Replicas[g] {
			infos[g][rank] = peerInfo{
				node:      rep.node.ID(),
				coordAddr: rep.coordMem.Addr(0),
				stAddr:    rep.stMem.Addr(0),
				stageAddr: rep.staging.Addr(0),
				storeAddr: rep.st.Region().Addr(0),
				leaseAddr: rep.leaseMem.Addr(0),
			}
		}
	}
	for g := 0; g < groups; g++ {
		for _, rep := range d.Replicas[g] {
			rep.peers = infos
		}
	}
}

// Replica returns the replica at (partition, rank).
func (d *Deployment) Replica(part PartitionID, rank int) *Replica {
	return d.Replicas[part][rank]
}

// Partitions returns the number of partitions.
func (d *Deployment) Partitions() int { return len(d.Replicas) }

// Start spawns every multicast process and replica. Stores must be
// populated before Start.
func (d *Deployment) Start() {
	for g := range d.MCProcs {
		for _, mc := range d.MCProcs[g] {
			mc.Start(d.Sched)
		}
	}
	for g := range d.Replicas {
		for _, rep := range d.Replicas[g] {
			rep.start(d.Sched)
		}
	}
}

// Settled reports whether the deployment has converged and, with no
// client submitting, would stay as it is: every replica is live and not
// recovering, every replica has executed the same last request as the
// rest of its group, no replica's copy of a peer's state-transfer entry
// is in use (its control loop still acts on one), and every group's
// ordering is settled (multicast.Settled). A replica's own entry is left
// out: no one acts on it, and a claim that lands after the completion
// record stays there.
func (d *Deployment) Settled() bool {
	for g, reps := range d.Replicas {
		for _, r := range reps {
			if r.Crashed() || r.recovering || r.lastExec != reps[0].lastExec || r.stActive() {
				return false
			}
		}
		if !multicast.Settled(d.MCProcs[g]) {
			return false
		}
	}
	return true
}

// NewClient allocates a client node on the fabric and returns a Heron
// client bound to it.
func (d *Deployment) NewClient() *Client {
	id := d.nextClient
	d.nextClient++
	d.Fabric.AddNode(id)
	c := &Client{
		cfg:  d.Cfg,
		mc:   multicast.NewClient(multicast.OverRDMA(d.TrMC), &d.Cfg.Multicast, id),
		tr:   d.TrCtl,
		node: d.Fabric.Node(id),
		ep:   d.TrCtl.Endpoint(id),
	}
	c.Observe(d.obsv)
	return c
}

// PopulateAll registers and initializes objects on every replica of the
// partition that owns them, using the supplied callback per replica.
func (d *Deployment) PopulateAll(fn func(part PartitionID, rank int, rep *Replica) error) error {
	for g := range d.Replicas {
		for rank, rep := range d.Replicas[g] {
			if err := fn(PartitionID(g), rank, rep); err != nil {
				return fmt.Errorf("populate p%d/r%d: %w", g, rank, err)
			}
		}
	}
	return nil
}
