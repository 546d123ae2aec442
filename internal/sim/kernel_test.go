package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Kernel-equivalence cases. Each builds a small scenario whose outcome
// hinges on exactly where a wake, a timeout or a predicate evaluation
// falls in (time, seq) order, and states the trace the channel kernel
// (before PR 12) produced — the cases were run against that kernel to fix
// the expectations. The kernel must reproduce each trace.

const runForever = Time(1<<62 - 1)

// kernelCase is one scenario. build wires it onto s and returns the
// RunUntil deadlines to drive it through; wantErr is a substring of the
// last step's error ("" = nil, and earlier steps must return nil).
type kernelCase struct {
	name    string
	build   func(s *Scheduler, logf func(format string, args ...any)) []Time
	want    []string
	wantErr string
	// deadlock additionally requires errors.Is(err, ErrDeadlock).
	deadlock bool
}

var kernelCases = []kernelCase{
	{
		// The broadcasting event was scheduled before the wait armed its
		// timeout, so at the shared instant it runs first: the waiter is
		// released, the timeout must not fire, and the next timed wait
		// gets a timeout of its own.
		name: "broadcast-before-timeout-same-instant",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			s.At(10, c.Broadcast)
			s.Spawn("W", func(p *Proc) {
				logf("first ok=%v", c.WaitTimeout(p, 10))
				logf("second ok=%v", c.WaitTimeout(p, 100))
			})
			return []Time{runForever}
		},
		want: []string{"10 first ok=true", "110 second ok=false"},
	},
	{
		// Same instant, but the broadcasting event is scheduled after the
		// timeout was armed: the timeout wins, and the broadcast releases
		// the wait the process has started by then.
		name: "timeout-before-broadcast-same-instant",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			s.Spawn("W", func(p *Proc) {
				logf("first ok=%v", c.WaitTimeout(p, 10))
				logf("second ok=%v", c.WaitTimeout(p, 100))
			})
			s.At(5, func() { s.At(10, c.Broadcast) })
			return []Time{runForever}
		},
		want: []string{"10 first ok=false", "10 second ok=true"},
	},
	{
		// Two filtered waiters, three broadcasts in one instant with the
		// state changing between them. The trace records every predicate
		// evaluation: each must happen in the slot of the waiter's wake
		// event, in wait order, and a waiter whose predicate is false
		// must queue again behind the others.
		name: "predicate-turns-true-between-same-instant-broadcasts",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			x := 0
			waiter := func(name string, need int) {
				s.Spawn(name, func(p *Proc) {
					c.WaitUntil(p, func() bool {
						logf("%s pred x=%d", name, x)
						return x >= need
					})
					logf("%s woke x=%d", name, x)
					if name == "W1" {
						x = 2
						c.Broadcast()
					}
				})
			}
			waiter("W2", 2)
			waiter("W1", 1)
			s.At(5, func() {
				c.Broadcast()
				s.At(5, func() {
					x = 1
					s.At(5, c.Broadcast)
				})
			})
			return []Time{runForever}
		},
		want: []string{
			"0 W2 pred x=0", "0 W1 pred x=0",
			"5 W2 pred x=0", "5 W1 pred x=0",
			"5 W2 pred x=1", "5 W1 pred x=1", "5 W1 woke x=1",
			"5 W2 pred x=2", "5 W2 woke x=2",
		},
	},
	{
		// A spurious wake re-arms a predicate wait's timeout for the same
		// absolute deadline, not for a fresh full duration.
		name: "spurious-wakes-keep-the-deadline",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			s.Spawn("W", func(p *Proc) {
				logf("ok=%v", c.WaitUntilTimeout(p, 100, func() bool { return false }))
			})
			s.At(10, c.Broadcast)
			s.At(60, c.Broadcast)
			return []Time{runForever}
		},
		want: []string{"100 ok=false"},
	},
	{
		// A quiet wait's timeout restarts at every broadcast that finds
		// the predicate false: it expires a full period after the last.
		name: "quiet-wait-restarts-its-timeout",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			busy := false
			s.Spawn("W", func(p *Proc) {
				logf("ok=%v", c.WaitQuiet(p, 100, func() bool { return busy }))
				logf("ok=%v", c.WaitQuiet(p, 100, func() bool { return busy }))
			})
			s.At(10, c.Broadcast)
			s.At(60, c.Broadcast)
			s.At(159, c.Broadcast)
			s.At(300, func() { busy = true; c.Broadcast() })
			return []Time{runForever}
		},
		want: []string{"259 ok=false", "300 ok=true"},
	},
	{
		// Park-first wait, broadcast at exactly the deadline ahead of the
		// timeout, predicate still false: the wait ends there, timed out.
		name: "filtered-wake-at-the-deadline",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			s.At(10, c.Broadcast)
			s.Spawn("W", func(p *Proc) {
				logf("ok=%v", c.WaitForTimeout(p, 10, func() bool { return false }))
			})
			return []Time{runForever}
		},
		want: []string{"10 ok=false"},
	},
	{
		// WaitFor parks even though its predicate already holds, and a
		// later broadcast releases it.
		name: "wait-for-parks-first",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			s.Spawn("W", func(p *Proc) {
				c.WaitFor(p, func() bool { return true })
				logf("woke")
			})
			s.At(7, c.Broadcast)
			return []Time{runForever}
		},
		want: []string{"7 woke"},
	},
	{
		// Killed while parked with an armed timeout: it unwinds at the
		// kill, and neither the later broadcast nor the deadline touches
		// it again.
		name: "kill-while-parked-with-armed-timer",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			w := s.Spawn("W", func(p *Proc) {
				defer logf("unwound")
				c.WaitUntilTimeout(p, 100, func() bool {
					logf("pred")
					return false
				})
				logf("returned")
			})
			s.At(10, w.Kill)
			s.At(20, c.Broadcast)
			return []Time{runForever}
		},
		want: []string{"0 pred", "10 unwound"},
	},
	{
		// The broadcast cancels the only timeout; the waiter then blocks
		// for good, the queue drains, and the deadlock report names it.
		name: "cancelled-timer-then-deadlock",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c, never := NewCond(s), NewCond(s)
			never.Reason = "never"
			s.Spawn("W", func(p *Proc) {
				logf("ok=%v", c.WaitTimeout(p, 1000))
				never.Wait(p)
			})
			s.At(10, c.Broadcast)
			return []Time{runForever}
		},
		want:     []string{"10 ok=true"},
		wantErr:  "W (never)",
		deadlock: true,
	},
	{
		// A deadline between arming and firing: the armed timeout is a
		// pending event, so the run pauses (no deadlock) and a later run
		// fires it.
		name: "rununtil-between-arm-and-fire",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			s.Spawn("W", func(p *Proc) {
				logf("ok=%v", c.WaitTimeout(p, 100))
			})
			return []Time{50, 99, 200}
		},
		want: []string{"100 ok=false"},
	},
	{
		name: "proc-panic-is-fatal",
		build: func(s *Scheduler, logf func(string, ...any)) []Time {
			c := NewCond(s)
			s.Spawn("W", func(p *Proc) { c.WaitTimeout(p, 100) })
			s.Spawn("P", func(p *Proc) {
				p.Sleep(5)
				panic("boom")
			})
			return []Time{runForever}
		},
		wantErr: `proc "P" panicked: boom`,
	},
}

func TestKernelEquivalence(t *testing.T) {
	for _, c := range kernelCases {
		t.Run("standalone/"+c.name, func(t *testing.T) {
			s := NewScheduler()
			var got []string
			steps := c.build(s, func(format string, args ...any) {
				got = append(got, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
			})
			var err error
			for i, deadline := range steps {
				err = s.RunUntil(deadline)
				if err != nil && i < len(steps)-1 {
					t.Fatalf("RunUntil(%d): %v", deadline, err)
				}
			}
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, c.wantErr)
			case c.deadlock && !errors.Is(err, ErrDeadlock):
				t.Fatalf("error %v is not ErrDeadlock", err)
			}
			s.Close()
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("trace\n got  %q\n want %q", got, c.want)
			}
			if n := s.LiveProcs(); n != 0 {
				t.Fatalf("%d processes live after Close", n)
			}
		})
	}
}

// A wait released by Broadcast leaves nothing behind: no armed timeout,
// no queued event, and the run ends at the last real event rather than
// at the released wait's deadline.
func TestReleasedTimeoutIsNeverExecuted(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	const rounds = 100
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if !c.WaitTimeout(p, 1000) {
				t.Errorf("round %d timed out", i)
			}
		}
	})
	s.Spawn("signaler", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(1)
			c.Broadcast()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != rounds {
		t.Fatalf("run ended at %d, want %d: a cancelled timeout still advanced the clock", s.Now(), rounds)
	}
	// Two spawns, then one sleep wake and one broadcast wake per round.
	if got, want := s.EventCount(), uint64(2+2*rounds); got != want {
		t.Fatalf("%d events executed, want %d", got, want)
	}
	if len(s.timers) != 0 || s.q.len() != 0 {
		t.Fatalf("%d timers and %d events left", len(s.timers), s.q.len())
	}
}

// A process killed while parked gives up its place on the Cond or Mutex
// and its timeout as it unwinds, so a later Broadcast never evaluates a
// dead process's predicate and the dead wait's deadline never fires.
func TestKillDeregistersParkedProc(t *testing.T) {
	s := NewScheduler()
	c, m := NewCond(s), NewMutex(s)
	evals := 0
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(50)
		m.Unlock(p)
	})
	onCond := s.Spawn("on-cond", func(p *Proc) {
		c.WaitUntilTimeout(p, 100, func() bool { evals++; return false })
	})
	onMutex := s.Spawn("on-mutex", func(p *Proc) {
		m.Lock(p)
		t.Error("killed waiter acquired the mutex")
	})
	s.At(10, func() { onCond.Kill(); onMutex.Kill() })
	s.At(11, func() {
		if c.waiters.head != nil || m.waiters.head != nil || len(s.timers) != 0 {
			t.Errorf("registrations survive the kill: cond=%v mutex=%v timers=%d",
				c.waiters.head != nil, m.waiters.head != nil, len(s.timers))
		}
	})
	s.At(20, c.Broadcast)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if evals != 1 {
		t.Fatalf("predicate evaluated %d times, want once (at wait entry)", evals)
	}
	if s.Now() != 50 {
		t.Fatalf("run ended at %d, want 50 (the holder's unlock)", s.Now())
	}
}

// Close unwinds processes in every state — not yet started, sleeping,
// parked on a Cond with a timeout, queued on a Mutex — runs their
// deferred calls, and returns their goroutines.
func TestCloseReleasesEveryProc(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		before := runtime.NumGoroutine()
		s := NewScheduler()
		c, m := NewCond(s), NewMutex(s)
		unwound := 0
		spawn := func(name string, body func(p *Proc)) {
			s.Spawn(name, func(p *Proc) {
				defer func() { unwound++ }()
				body(p)
			})
		}
		spawn("holder", func(p *Proc) { m.Lock(p); defer m.Unlock(p); p.Sleep(1000) })
		spawn("queued", func(p *Proc) { m.Lock(p); defer m.Unlock(p) })
		spawn("timed", func(p *Proc) { c.WaitUntilTimeout(p, 1000, func() bool { return false }) })
		spawn("untimed", func(p *Proc) { c.Wait(p) })
		spawn("done", func(p *Proc) {})
		s.SpawnAfter(1000, "unstarted", func(p *Proc) { t.Error("unstarted process ran") })
		if err := s.RunUntil(10); err != nil {
			t.Fatal(err)
		}
		if runtime.NumGoroutine() <= before {
			t.Fatal("parked processes hold no goroutines; the test measures nothing")
		}
		s.Close()
		if unwound != 5 {
			t.Errorf("%d bodies unwound, want 5", unwound)
		}
		if n := s.LiveProcs(); n != 0 {
			t.Errorf("%d processes live after Close", n)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%d goroutines after Close, %d before the run", after, before)
		}
	})
}

// The timer heap pops in (deadline, seq) order under arbitrary arming and
// cancelling, and keeps every process's index current.
func TestTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h timerHeap
	armed := map[*Proc]bool{}
	procs := make([]*Proc, 200)
	for i := range procs {
		procs[i] = &Proc{tidx: -1}
	}
	for step := 0; step < 5000; step++ {
		p := procs[rng.Intn(len(procs))]
		if armed[p] {
			h.cancel(p)
			delete(armed, p)
		} else {
			p.deadline, p.tseq = Time(rng.Intn(50)), uint64(step)
			h.arm(p)
			armed[p] = true
		}
		for i, q := range h {
			if q.tidx != i {
				t.Fatalf("step %d: heap[%d].tidx = %d", step, i, q.tidx)
			}
		}
	}
	var prev *Proc
	for len(h) > 0 {
		p := h[0]
		h.cancel(p)
		if !armed[p] || p.tidx != -1 {
			t.Fatalf("popped a process that was not armed (tidx %d)", p.tidx)
		}
		delete(armed, p)
		if prev != nil && (p.deadline < prev.deadline || (p.deadline == prev.deadline && p.tseq < prev.tseq)) {
			t.Fatalf("popped (%d,%d) after (%d,%d)", p.deadline, p.tseq, prev.deadline, prev.tseq)
		}
		prev = p
	}
	if len(armed) != 0 {
		t.Fatalf("%d armed timers lost", len(armed))
	}
}

// steadyState runs every hot-path operation forever: a sleeping
// broadcaster and a waiter in each wait form. The filtered waiter's
// predicate holds on every eighth broadcast.
func steadyState(s *Scheduler) {
	c := NewCond(s)
	n := 0
	eighth := func() bool { return n%8 == 0 }
	s.Spawn("broadcaster", func(p *Proc) {
		for {
			p.Sleep(1)
			n++
			c.Broadcast()
		}
	})
	s.Spawn("plain", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	s.Spawn("timed", func(p *Proc) {
		for {
			c.WaitTimeout(p, 1000)
		}
	})
	s.Spawn("filtered", func(p *Proc) {
		for {
			c.WaitForTimeout(p, 1000, eighth)
		}
	})
}

// Sleep, broadcast-wake, timed wait and filtered wake allocate nothing
// once the queue's buckets exist.
func TestHotPathsDoNotAllocate(t *testing.T) {
	s := NewScheduler()
	defer s.Close()
	steadyState(s)
	step := func() {
		if err := s.RunUntil(s.Now() + 64); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("%.1f allocations per 64 rounds, want 0", allocs)
	}
}

// A channel that fills and drains in bursts keeps one backing array, and
// one that never drains does not keep its consumed prefix.
func TestChanReusesBackingArray(t *testing.T) {
	s := NewScheduler()
	c := NewChan[int](s)
	burst := func() {
		for i := 0; i < 32; i++ {
			c.Send(i)
		}
		for i := 0; i < 32; i++ {
			if v, ok := c.TryRecv(); !ok || v != i {
				t.Fatalf("TryRecv = %d, %v; want %d", v, ok, i)
			}
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
		t.Fatalf("%.1f allocations per burst, want 0", allocs)
	}
	c.Send(-1) // never drains from here on
	for i := 0; i < 10000; i++ {
		c.Send(i)
		c.TryRecv()
	}
	if c.Len() != 1 || cap(c.buf) > 1024 {
		t.Fatalf("backlogged channel: len %d, cap %d", c.Len(), cap(c.buf))
	}
	if v, _ := c.TryRecv(); v != 9999 {
		t.Fatalf("last element %d, want 9999", v)
	}
}
