// TPCC demo: the paper's evaluation workload on a small Heron deployment.
//
// Four warehouses (one per partition), three replicas each, a handful of
// closed-loop terminals running the standard TPCC mix. Prints per-type
// latency and the single- vs multi-partition split — a miniature of the
// paper's Figures 6 and 7.
//
// Run with:
//
//	go run ./examples/tpccdemo
package main

import (
	"fmt"
	"log"
	"sort"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
)

const (
	warehouses   = 4
	replicas     = 3
	terminals    = 8
	txnsPerUser  = 150
	virtualLimit = 5 * sim.Second
)

func main() {
	s := sim.NewScheduler()
	scale := tpcc.SmallScale()
	ds := tpcc.NewDataset(7, warehouses, scale)
	cfg := core.DefaultConfig(multicast.DefaultConfig(multicast.Layout(warehouses, replicas)))
	cfg.StoreCapacity = scale.Items*store.SlotSize(tpcc.StockMaxBytes) +
		scale.DistrictsPerWH*scale.CustomersPerDistrict*store.SlotSize(tpcc.CustomerMaxBytes) + 1<<16

	d, err := core.NewDeployment(s, cfg, tpcc.NewAppFactory(ds), tpcc.Partitioner)
	if err != nil {
		log.Fatal(err)
	}
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		return rep.App().(*tpcc.App).Populate(rep.Store())
	})
	if err != nil {
		log.Fatal(err)
	}
	d.Start()

	type bucket struct {
		count int
		total sim.Duration
		multi int
	}
	stats := map[tpcc.TxnKind]*bucket{}
	var completed int
	var firstDone, lastDone sim.Time

	for t := 0; t < terminals; t++ {
		t := t
		cl := d.NewClient()
		w := tpcc.NewWorkload(int64(100+t), warehouses, scale)
		w.HomeWID = t%warehouses + 1
		s.Spawn(fmt.Sprintf("terminal%d", t), func(p *sim.Proc) {
			for i := 0; i < txnsPerUser; i++ {
				txn := w.Next()
				parts := txn.Partitions()
				t0 := p.Now()
				if _, err := cl.Submit(p, parts, txn.Encode()); err != nil {
					log.Fatal(err)
				}
				b := stats[txn.Kind]
				if b == nil {
					b = &bucket{}
					stats[txn.Kind] = b
				}
				b.count++
				b.total += sim.Duration(p.Now() - t0)
				if len(parts) > 1 {
					b.multi++
				}
				completed++
				if firstDone == 0 {
					firstDone = p.Now()
				}
				lastDone = p.Now()
			}
		})
	}
	if err := s.RunUntil(sim.Time(virtualLimit)); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TPCC on Heron: %d warehouses x %d replicas, %d terminals\n", warehouses, replicas, terminals)
	fmt.Printf("%-12s  %6s  %10s  %6s\n", "type", "count", "avg lat", "multi")
	kinds := make([]tpcc.TxnKind, 0, len(stats))
	for k := range stats {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		b := stats[k]
		fmt.Printf("%-12s  %6d  %9.1fus  %6d\n", k, b.count, float64(b.total)/float64(b.count)/1000, b.multi)
	}
	elapsed := sim.Duration(lastDone - firstDone)
	fmt.Printf("\n%d transactions in %.2fms of virtual time (%.0f tps)\n",
		completed, float64(elapsed)/1e6, float64(completed)/(float64(elapsed)/1e9))
}
