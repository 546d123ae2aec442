package bench

import (
	"fmt"

	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/tpcc"
	"heron/internal/wire"
)

// RunRamcast measures the atomic multicast alone — ordering without
// Heron's coordination or execution (Fig. 4's first series). Replicas
// deliver TPCC-shaped messages; every replica of each destination group
// echoes a completion to the client over a one-sided reply ring, and
// closed-loop clients keep the first echo per destination group — what a
// Heron client does with replies, and the member that delivers first is
// not always the same one.
func RunRamcast(opt Options) (*HeronRun, error) {
	s := sim.NewScheduler()
	defer releaseMemory()
	defer s.Close()
	layout := Layout(opt.Warehouses, opt.Replicas)
	fab := rdma.NewFabric(s, rdma.DefaultConfig())
	if opt.Obs != nil {
		fab.Observe(opt.Obs)
	}
	for _, group := range layout {
		for _, id := range group {
			fab.AddNode(id)
		}
	}
	trMC := rdma.NewTransport(fab, 1<<18)
	trReply := rdma.NewTransport(fab, 1<<18)
	cfg := multicast.DefaultConfig(layout)

	// Replicas: deliver and echo to the client.
	for g := 0; g < opt.Warehouses; g++ {
		for r := 0; r < opt.Replicas; r++ {
			pr := multicast.NewProcess(multicast.OverRDMA(trMC), &cfg, multicast.GroupID(g), r)
			pr.Observe(opt.Obs)
			pr.Start(s)
			g, r, pr := g, r, pr
			s.Spawn(fmt.Sprintf("echo-g%d-r%d", g, r), func(p *sim.Proc) {
				for {
					d, ok := pr.Deliveries().Recv(p)
					if !ok {
						return
					}
					// Reply: group id + the client's request tag.
					w := wire.NewWriter(16)
					w.U8(uint8(g))
					w.U64(d.ID.Seq)
					_ = trReply.Send(p, pr.NodeID(), d.ID.Node, w.Finish())
				}
			})
		}
	}

	run := &HeronRun{Latency: &LatencyRecorder{}, LatencySingle: &LatencyRecorder{}, LatencyMulti: &LatencyRecorder{}, LatencyByKind: map[tpcc.TxnKind]*LatencyRecorder{}}
	warmupEnd := sim.Time(opt.Warmup)
	measureEnd := warmupEnd + sim.Time(opt.Window)

	nClients := opt.ClientsPerPartition * opt.Warehouses
	clientBase := rdma.NodeID(100000)
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		node := clientBase + rdma.NodeID(ci)
		fab.AddNode(node)
		mcl := multicast.NewClient(multicast.OverRDMA(trMC), &cfg, node)
		ep := trReply.Endpoint(node)
		w := tpcc.NewWorkload(opt.Seed+int64(ci)*7919, opt.Warehouses, opt.Scale)
		w.LocalOnly = opt.LocalOnly
		w.HomeWID = ci%opt.Warehouses + 1
		s.Spawn(fmt.Sprintf("rc-client%d", ci), func(p *sim.Proc) {
			for {
				txn := w.Next()
				parts := txn.Partitions()
				dst := make([]multicast.GroupID, len(parts))
				for i, part := range parts {
					dst[i] = multicast.GroupID(part)
				}
				t0 := p.Now()
				id := mcl.Multicast(p, dst, txn.Encode())
				// Wait for one echo per destination group.
				want := make(map[uint8]bool, len(dst))
				for _, g := range dst {
					want[uint8(g)] = true
				}
				got := 0
				for got < len(want) {
					payload, _, err := ep.Recv(p)
					if err != nil {
						return
					}
					r := wire.NewReader(payload)
					g := r.U8()
					seq := r.U64()
					if r.Err() != nil || seq != id.Seq || !want[g] {
						continue
					}
					want[g] = false
					got++
				}
				t1 := p.Now()
				if t1 > measureEnd {
					return
				}
				if t0 >= warmupEnd {
					run.Completed++
					run.Latency.Add(sim.Duration(t1 - t0))
				}
			}
		})
	}
	if err := s.RunUntil(measureEnd + sim.Time(20*sim.Millisecond)); err != nil {
		return nil, err
	}
	run.Throughput = Throughput(run.Completed, opt.Window)
	return run, nil
}
