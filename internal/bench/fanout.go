package bench

import (
	"fmt"
	"strings"

	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Remote-read fan-out microbenchmark: the latency of resolving a read set
// of k remote dual-version slots, synchronously (one blocking READ at a
// time, as Algorithm 2 originally did) versus pipelined (all READs posted
// to a completion queue, then one wait). The sync series scales linearly
// with k; the pipelined series stays near-flat — roughly one READ base
// latency plus k posting/occupancy overheads — which is the per-request
// saving Heron's execution path gets from the asynchronous read engine.

// FanoutRow is one read-set size measurement.
type FanoutRow struct {
	Objects   int
	Sync      sim.Duration
	Pipelined sim.Duration
	Speedup   float64
}

// FanoutResult is the full microbenchmark.
type FanoutResult struct {
	Targets   int
	SlotBytes int
	Rows      []FanoutRow
}

// RunFanout measures sync vs. pipelined remote-read latency for each
// read-set size, striping objects round-robin over the target nodes (as a
// multi-partition request's read set stripes over partitions). Zero or
// negative parameters select defaults: sizes {1,2,4,8,16,32}, 4 targets,
// one dual-version slot of a 32-byte object.
func RunFanout(sizes []int, targets, slotBytes int, o *obs.Observer) (*FanoutResult, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4, 8, 16, 32}
	}
	if targets <= 0 {
		targets = 4
	}
	if slotBytes <= 0 {
		slotBytes = store.SlotSize(32)
	}
	res := &FanoutResult{Targets: targets, SlotBytes: slotBytes}
	for _, k := range sizes {
		if k <= 0 {
			return nil, fmt.Errorf("bench: non-positive read-set size %d", k)
		}
		syncLat, err := fanoutRun(k, targets, slotBytes, false, o.Scope(fmt.Sprintf("k%d/sync", k)))
		if err != nil {
			return nil, err
		}
		pipeLat, err := fanoutRun(k, targets, slotBytes, true, o.Scope(fmt.Sprintf("k%d/pipelined", k)))
		if err != nil {
			return nil, err
		}
		row := FanoutRow{Objects: k, Sync: syncLat, Pipelined: pipeLat}
		if pipeLat > 0 {
			row.Speedup = float64(syncLat) / float64(pipeLat)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// pipelinedRounds is how many times the pipelined leg resolves its read
// set, on one CQ reset between rounds; it reports one round's latency.
const pipelinedRounds = 2

// fanoutRun measures one (read-set size, mode) cell on a fresh fabric.
func fanoutRun(k, targets, slotBytes int, pipelined bool, o *obs.Observer) (sim.Duration, error) {
	s := sim.NewScheduler()
	defer s.Close()
	f := rdma.NewFabric(s, rdma.DefaultConfig())
	if o != nil {
		f.Observe(o)
	}
	reader := f.AddNode(0)

	type slotRef struct {
		qp   *rdma.QP
		addr rdma.Addr
	}
	perTarget := (k + targets - 1) / targets
	slots := make([]slotRef, 0, targets*perTarget)
	for t := 0; t < targets; t++ {
		n := f.AddNode(rdma.NodeID(1 + t))
		reg := n.RegisterRegion(perTarget * slotBytes)
		buf := reg.Bytes()
		for i := range buf {
			buf[i] = byte(t + i)
		}
		qp := f.Connect(0, n.ID())
		for i := 0; i < perTarget; i++ {
			slots = append(slots, slotRef{qp: qp, addr: reg.Addr(i * slotBytes)})
		}
	}
	// Object i lives at slot i/targets of target i%targets.
	ref := func(i int) slotRef { return slots[(i%targets)*perTarget+i/targets] }

	var elapsed sim.Duration
	var runErr error
	check := func(i int, data []byte) bool {
		want := byte(i%targets + (i / targets * slotBytes))
		if len(data) != slotBytes || data[0] != want {
			runErr = fmt.Errorf("bench: fanout read %d returned %d bytes, first %d want %d", i, len(data), data[0], want)
			return false
		}
		return true
	}
	s.Spawn("fanout-reader", func(p *sim.Proc) {
		if !pipelined {
			t0 := p.Now()
			for i := 0; i < k; i++ {
				sl := ref(i)
				data, err := sl.qp.Read(p, sl.addr, slotBytes)
				if err != nil {
					runErr = err
					return
				}
				if !check(i, data) {
					return
				}
			}
			elapsed = sim.Duration(p.Now() - t0)
			return
		}
		// pipelinedRounds rounds on one CQ, reset between them: every round
		// after the first posts into the handles and buffers the one before
		// it recycled, and must take exactly as long.
		cq := reader.NewCQ()
		handles := make([]*rdma.ReadHandle, 0, k)
		for round := 0; round < pipelinedRounds; round++ {
			t0 := p.Now()
			cq.Reset()
			handles = handles[:0]
			for i := 0; i < k; i++ {
				sl := ref(i)
				h, err := sl.qp.PostRead(p, cq, sl.addr, slotBytes)
				if err != nil {
					runErr = err
					return
				}
				handles = append(handles, h)
			}
			cq.WaitAll(p)
			for i, h := range handles {
				if h.Err() != nil {
					runErr = h.Err()
					return
				}
				if !check(i, h.Data()) {
					return
				}
			}
			took := sim.Duration(p.Now() - t0)
			if round > 0 && took != elapsed {
				runErr = fmt.Errorf("bench: fanout round %d on a reset CQ took %v, the first %v", round, took, elapsed)
				return
			}
			elapsed = took
		}
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	if runErr != nil {
		return 0, runErr
	}
	return elapsed, nil
}

// Format renders the microbenchmark as an aligned table.
func (r *FanoutResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Remote-read fan-out: k dual-version READs (%d B slots, %d targets)\n",
		r.SlotBytes, r.Targets)
	fmt.Fprintf(&b, "%6s  %10s  %10s  %8s\n", "k", "sync", "pipelined", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d  %10s  %10s  %7.1fx\n",
			row.Objects, fmtDur(row.Sync), fmtDur(row.Pipelined), row.Speedup)
	}
	return b.String()
}
