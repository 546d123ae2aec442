package bench

import (
	"fmt"

	"heron/internal/core"
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

	return runClosedLoop(s, opt, 0, func(ci int) submitFunc {
		node := rdma.NodeID(100000 + ci)
		fab.AddNode(node)
		mcl := multicast.NewClient(multicast.OverRDMA(trMC), &cfg, node)
		ep := trReply.Endpoint(node)
		return func(p *sim.Proc, txn *tpcc.Txn, parts []core.PartitionID) (multicast.MsgID, error) {
			dst := make([]multicast.GroupID, len(parts))
			for i, part := range parts {
				dst[i] = multicast.GroupID(part)
			}
			id := mcl.Multicast(p, dst, txn.Encode())
			// Wait for one echo per destination group.
			want := make(map[uint8]bool, len(dst))
			for _, g := range dst {
				want[uint8(g)] = true
			}
			for len(want) > 0 {
				payload, _, err := ep.Recv(p)
				if err != nil {
					return id, err
				}
				r := wire.NewReader(payload)
				g := r.U8()
				seq := r.U64()
				if r.Err() != nil || seq != id.Seq || !want[g] {
					continue
				}
				delete(want, g)
			}
			return id, nil
		}
	})
}
