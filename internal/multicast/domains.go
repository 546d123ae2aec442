package multicast

import (
	"fmt"

	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// DomainCluster is a groups x replicas multicast deployment over an RDMA
// fabric on one scheduler, with client nodes collocated with each group.
// It keeps its name because benchmark/workloads.go calls NewDomainCluster.
type DomainCluster struct {
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

// NewDomainCluster builds and starts a groups x replicas multicast
// deployment over an RDMA fabric with the given config, with
// clientsPerGroup client nodes collocated with each group. Every node
// pair the protocol or the clients can ever use is prewired.
// domains must be 1; benchmark/workloads.go (openLoopSetup) still passes it.
func NewDomainCluster(groups, replicas, domains, clientsPerGroup int, netCfg rdma.Config) (*DomainCluster, error) {
	if domains != 1 {
		return nil, fmt.Errorf("multicast: %d simulation domains requested; the cluster runs on one scheduler", domains)
	}
	s := sim.NewScheduler()
	fab := rdma.NewFabric(s, netCfg)

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

	raw := rdma.NewTransport(fab, 1<<16)
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

	dc := &DomainCluster{
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
func (dc *DomainCluster) Observe(o *obs.Observer) {
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
func (dc *DomainCluster) NewClient(g, i int) *Client {
	return NewClient(dc.Tr, &dc.Cfg, dc.ClientNodes[g][i])
}
