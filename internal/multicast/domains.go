package multicast

import (
	"fmt"

	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Cluster is a groups x replicas multicast deployment over an RDMA
// fabric on one scheduler, with client nodes collocated with each group.
type Cluster struct {
	Sched *sim.Scheduler
	Fab   *rdma.Fabric
	Raw   *rdma.Transport
	Tr    Transport
	Cfg   Config
	// Procs[g][r] is the started replica processes.
	Procs [][]*Process
	// ClientNodes[g] lists the ids of the client nodes collocated with
	// group g.
	ClientNodes [][]rdma.NodeID
}

// NewDomainCluster is NewCluster behind a domains argument that must be
// 1 and an empty rdma.Config; it exists only because
// benchmark/workloads.go (openLoopSetup) calls it.
func NewDomainCluster(groups, replicas, domains, clientsPerGroup int, _ rdma.Config) (*Cluster, error) {
	if domains != 1 {
		return nil, fmt.Errorf("multicast: %d simulation domains requested; the cluster runs on one scheduler", domains)
	}
	return NewCluster(groups, replicas, clientsPerGroup)
}

// NewCluster builds and starts a groups x replicas multicast deployment
// over an RDMA fabric, with clientsPerGroup client nodes collocated with
// each group. Every node pair the protocol or the clients can ever use is
// prewired.
func NewCluster(groups, replicas, clientsPerGroup int) (*Cluster, error) {
	s := sim.NewScheduler()
	fab := rdma.NewFabric(s, rdma.Config{})

	layout := make([][]rdma.NodeID, groups)
	clients := make([][]rdma.NodeID, groups)
	id := rdma.NodeID(1)
	for g := 0; g < groups; g++ {
		for r := 0; r < replicas; r++ {
			fab.AddNode(id)
			layout[g] = append(layout[g], id)
			id++
		}
		for c := 0; c < clientsPerGroup; c++ {
			fab.AddNode(id)
			clients[g] = append(clients[g], id)
			id++
		}
	}

	raw := rdma.NewTransport(fab, RingCap)
	cfg := DefaultConfig(layout)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := OverRDMA(raw)

	// Prewire every ring the run can use: replica<->replica in both
	// directions (replication, acks, cross-group proposals, view changes
	// — any rank can become leader) and client->replica (submissions).
	var pairs [][2]rdma.NodeID
	var replicaIDs []rdma.NodeID
	for _, members := range layout {
		replicaIDs = append(replicaIDs, members...)
	}
	for _, a := range replicaIDs {
		for _, b := range replicaIDs {
			if a != b {
				pairs = append(pairs, [2]rdma.NodeID{a, b})
			}
		}
	}
	for _, cl := range clients {
		for _, c := range cl {
			for _, b := range replicaIDs {
				pairs = append(pairs, [2]rdma.NodeID{c, b})
			}
		}
	}
	raw.Prewire(pairs)

	dc := &Cluster{
		Sched:       s,
		Fab:         fab,
		Raw:         raw,
		Tr:          tr,
		Cfg:         cfg,
		ClientNodes: clients,
	}
	dc.Procs = make([][]*Process, groups)
	for g := 0; g < groups; g++ {
		dc.Procs[g] = make([]*Process, replicas)
		for r := 0; r < replicas; r++ {
			pr := NewProcess(tr, &dc.Cfg, GroupID(g), r)
			pr.Start(s)
			dc.Procs[g][r] = pr
		}
	}
	return dc, nil
}

// Observe attaches an observability layer to the cluster's fabric and
// every replica process.
func (dc *Cluster) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	dc.Fab.Observe(o)
	for _, grp := range dc.Procs {
		for _, pr := range grp {
			pr.Observe(o)
		}
	}
}

// NewClient creates a multicast client on the i'th client node collocated
// with group g.
func (dc *Cluster) NewClient(g, i int) *Client {
	return NewClient(dc.Tr, &dc.Cfg, dc.ClientNodes[g][i])
}
