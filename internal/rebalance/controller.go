package rebalance

import (
	"fmt"

	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/reconfig"
	"heron/internal/sim"
)

// Controller is the closed loop: a simulation process that wakes every
// policy tick, polls its heat subscription, runs the planner, and
// drives any synthesized change through the epoch-fenced
// reconfiguration manager. Execute runs synchronously in the
// controller's own process, so at most one change is ever in flight by
// construction; InFlight is still checked as a belt against foreign
// drivers sharing the manager.
type Controller struct {
	Planner

	mgr *reconfig.Manager
	sub *obs.HeatSub
	o   *obs.Observer

	// Spares is the joiner node pool scale-out draws from; committed
	// scale-outs consume GroupSize nodes from the front.
	Spares []rdma.NodeID

	// Until stops the decision loop at a virtual instant (0 = run until
	// the scheduler's horizon). Harnesses bound the loop so the decision
	// log stays proportional to the active window.
	Until sim.Time

	// OnChangeStart, when set, fires right before each synthesized
	// change executes. Chaos harnesses use it to land faults
	// mid-migration at a deterministic offset from the decision.
	OnChangeStart func(now sim.Time, dec Decision)

	// stopped is set once the decision loop has passed Until.
	stopped bool

	// Outcome tallies (virtual-state only).
	Applied int
	Aborted int
	Errors  []string
}

// New builds a controller over a reconfiguration manager and the heat
// collector its deployment feeds. The controller subscribes
// incrementally: each tick scores only the cadence samples cut since
// the last one.
func New(mgr *reconfig.Manager, heat *obs.Heat, pol Policy) *Controller {
	return &Controller{Planner: Planner{Pol: pol}, mgr: mgr, sub: heat.Subscribe()}
}

// Observe attaches decision counters ("rebalance/ticks", ".../commits",
// ".../aborts", ".../errors"). Nil is a no-op.
func (c *Controller) Observe(o *obs.Observer) { c.o = o }

// Start spawns the decision loop on the deployment's scheduler. Call
// after the deployment starts (the loop sleeps one tick before its
// first decision, so there is always telemetry to score).
func (c *Controller) Start(s *sim.Scheduler) {
	s.Spawn("rebalance-controller", func(p *sim.Proc) {
		for {
			p.Sleep(c.Pol.Tick)
			if c.Until > 0 && p.Now() > c.Until {
				c.stopped = true
				return
			}
			c.tick(p)
		}
	})
}

// Stopped reports whether the decision loop has passed Until. The loop
// runs each change to its end before it looks at the clock, so no change
// is in flight then.
func (c *Controller) Stopped() bool { return c.stopped }

// tick runs one decision.
func (c *Controller) tick(p *sim.Proc) {
	c.o.Counter("rebalance/ticks").Inc()
	if c.mgr.InFlight() {
		return
	}
	loads := Score(c.sub.Poll(p.Now()))
	dec, ch := c.Step(p.Now(), loads, c.mgr.Current(), c.Spares)
	if ch == nil {
		return
	}
	if c.OnChangeStart != nil {
		c.OnChangeStart(p.Now(), dec)
	}
	res, err := c.mgr.Execute(p, *ch)
	if err != nil {
		// The change failed validation or preparation: nothing was
		// submitted, the epoch is unchanged.
		c.Errors = append(c.Errors, fmt.Sprintf("%s: %v", dec, err))
		c.Outcome(false, c.mgr.Current().Epoch)
		c.o.Counter("rebalance/errors").Inc()
		return
	}
	c.Outcome(res.Committed, res.Epoch)
	if res.Committed {
		c.Applied++
		c.o.Counter("rebalance/commits").Inc()
		if dec.Action == ActScaleOut {
			c.Spares = c.Spares[c.groupSize():]
		}
	} else {
		c.Aborted++
		c.o.Counter("rebalance/aborts").Inc()
	}
}
