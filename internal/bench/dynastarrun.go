package bench

import (
	"heron/internal/core"
	"heron/internal/dynastar"
	"heron/internal/multicast"
	"heron/internal/sim"
	"heron/internal/tpcc"
)

// RunDynaStar measures the message-passing baseline under TPCC.
func RunDynaStar(opt Options) (*HeronRun, error) {
	s := sim.NewScheduler()
	defer releaseMemory()
	defer s.Close()
	layout := Layout(opt.Warehouses, opt.Replicas)
	ds := tpcc.NewDataset(opt.Seed, opt.Warehouses, opt.Scale)
	cfg := dynastar.DefaultConfig(multicast.DefaultConfig(layout), 99999)
	newApp := func(part core.PartitionID, rank int) core.Application {
		app := tpcc.NewApp(part, ds)
		app.SetSingleExecutor(true)
		return app
	}
	d, err := dynastar.NewDeployment(s, cfg, newApp, tpcc.Router{})
	if err != nil {
		return nil, err
	}
	for g := range d.Replicas {
		for _, rep := range d.Replicas[g] {
			rep.App().(*tpcc.App).PopulateObjects(rep.LoadObject)
		}
	}
	ds.DropImages()
	d.Start()
	return runClosedLoop(s, opt, 0, func(int) submitFunc {
		cl := d.NewClient()
		return func(p *sim.Proc, txn *tpcc.Txn, _ []core.PartitionID) (multicast.MsgID, error) {
			_, err := cl.Submit(p, txn.Encode())
			return multicast.MsgID{}, err
		}
	})
}
