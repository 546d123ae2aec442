// Package dynastar implements the message-passing partitioned SMR
// baseline Heron is compared against in Fig. 5 (DynaStar, ICDCS'19).
//
// Architecture, per the DynaStar papers and Section V-C2 of the Heron
// paper:
//
//   - State is partitioned; each partition is a replicated group. A
//     location oracle holds the object-to-partition map; clients submit
//     requests to the oracle, which routes them.
//   - Requests are ordered by atomic multicast — the same protocol Heron
//     uses, but running over a kernel message-passing network (msgnet)
//     instead of one-sided RDMA. This isolates exactly the variable the
//     paper studies: the communication substrate.
//   - Single-partition requests execute locally at every replica.
//   - Multi-partition requests are executed by ONE partition (the home
//     partition): the other involved partitions send the needed objects
//     to the executing partition's replicas, block until the executed
//     results migrate back, then continue. This is the "rounds of message
//     exchanges to move objects from one partition to another" the paper
//     credits for DynaStar's multi-partition latency.
//
// We give the baseline DynaStar's best case: the location map stays at
// the optimal warehouse partitioning (what its graph partitioner would
// converge to on TPCC), so no repartitioning churn is modeled — objects
// are copied out and written back per request. Failure handling is not
// modeled (the paper's performance experiments are failure-free).
//
// Stack costs that the paper attributes to the baseline (Java, a
// general-purpose serializer, URingPaxos's batching delivery) are modeled
// by two calibrated constants: orderingCPU (sequencer service time per
// request) and execFactor (execution cost multiplier); see
// EXPERIMENTS.md for the calibration against the published ratios.
package dynastar

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/msgnet"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// PartitionID aliases the core partition identifier.
type PartitionID = core.PartitionID

// Router supplies routing metadata for requests (implemented by
// tpcc.Router).
type Router interface {
	// Home returns the executing partition.
	Home(payload []byte) PartitionID
	// Involved returns every partition owning objects of the request.
	Involved(payload []byte) []PartitionID
	// Objects returns the request's full object set.
	Objects(payload []byte) []store.OID
}

// The baseline's calibrated stack costs; the network's are msgnet's.
const (
	// orderingCPU is the sequencer/stack service time charged per
	// delivered request at each replica, modeling the Java ordering stack
	// (URingPaxos batching, queue hops) that RDMA removes.
	orderingCPU = 220 * sim.Microsecond
	// execFactor multiplies application execution CPU (general-purpose
	// serializer vs Heron's manual codecs).
	execFactor = 3.0
	// dispatchCPU is charged per delivered request.
	dispatchCPU = 2 * sim.Microsecond
	// localReadCPU is charged per LocalGet during execution.
	localReadCPU = 300 * sim.Nanosecond
)

// Config parameterizes the baseline.
type Config struct {
	// Multicast holds the group layout (one group per partition).
	Multicast multicast.Config
	// OracleNode hosts the location oracle.
	OracleNode rdma.NodeID
}

// DefaultConfig returns the calibrated baseline configuration.
func DefaultConfig(mc multicast.Config, oracle rdma.NodeID) Config {
	// Message-passing ordering needs slacker failure-detection timers
	// than the RDMA configuration.
	mc.HeartbeatInterval = 5 * sim.Millisecond
	mc.LeaderTimeout = 40 * sim.Millisecond
	mc.RetryInterval = 20 * sim.Millisecond
	mc.HandlerCPU = 1500 * sim.Nanosecond
	return Config{Multicast: mc, OracleNode: oracle}
}

// Deployment is a complete DynaStar system.
type Deployment struct {
	Sched *sim.Scheduler
	Cfg   *Config
	// NetMC carries multicast traffic; NetData carries object migration,
	// oracle traffic, and client responses (two sockets per node pair).
	NetMC   *msgnet.Network
	NetData *msgnet.Network

	Router   Router
	MCProcs  [][]*multicast.Process
	Replicas [][]*Replica
	oracle   *Oracle

	nextClient rdma.NodeID
}

// AppFactory builds the application instance for one replica.
type AppFactory func(part PartitionID, rank int) core.Application

// NewDeployment builds (but does not start) the baseline.
func NewDeployment(s *sim.Scheduler, cfg Config, newApp AppFactory, router Router) (*Deployment, error) {
	if err := cfg.Multicast.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{
		Sched:      s,
		Cfg:        &cfg,
		NetMC:      msgnet.New(s),
		NetData:    msgnet.New(s),
		Router:     router,
		nextClient: 200000,
	}
	groups := len(cfg.Multicast.Groups)
	d.MCProcs = make([][]*multicast.Process, groups)
	d.Replicas = make([][]*Replica, groups)
	for g := 0; g < groups; g++ {
		n := len(cfg.Multicast.Groups[g])
		d.MCProcs[g] = make([]*multicast.Process, n)
		d.Replicas[g] = make([]*Replica, n)
		for rank := 0; rank < n; rank++ {
			mc := multicast.NewProcess(multicast.OverMsgNet(d.NetMC), &d.Cfg.Multicast, multicast.GroupID(g), rank)
			d.MCProcs[g][rank] = mc
			d.Replicas[g][rank] = newReplica(d, mc, PartitionID(g), rank, newApp(PartitionID(g), rank))
		}
	}
	d.oracle = newOracle(d)
	return d, nil
}

// Replica returns the replica at (partition, rank).
func (d *Deployment) Replica(part PartitionID, rank int) *Replica {
	return d.Replicas[part][rank]
}

// Start spawns the oracle, multicast processes, and replicas.
func (d *Deployment) Start() {
	d.oracle.start(d.Sched)
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

// NewClient returns a client of the baseline.
func (d *Deployment) NewClient() *Client {
	id := d.nextClient
	d.nextClient++
	return &Client{d: d, node: id, ep: d.NetData.Endpoint(id)}
}

// Client submits requests through the oracle and waits for the executing
// partition's response.
type Client struct {
	d    *Deployment
	node rdma.NodeID
	ep   *msgnet.Endpoint
	seq  uint64
}

// Submit sends one request and blocks until the response arrives.
func (c *Client) Submit(p *sim.Proc, payload []byte) ([]byte, error) {
	c.seq++
	seq := c.seq
	msg := encodeLookup(&lookupMsg{client: c.node, seq: seq, payload: payload})
	if err := c.d.NetData.Send(p, c.node, c.d.Cfg.OracleNode, msg); err != nil {
		return nil, err
	}
	for {
		m, ok := c.ep.Recv(p)
		if !ok {
			return nil, fmt.Errorf("dynastar client: endpoint closed")
		}
		kind, r, err := dKind(m.Payload)
		if err != nil || kind != kindReply {
			continue
		}
		rep := decodeReply(r)
		if r.Err() != nil || rep.seq != seq {
			continue // stale response from an earlier request
		}
		return rep.payload, nil
	}
}
