package sim

import (
	"errors"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(3*Microsecond, func() { got = append(got, 3) })
	s.After(1*Microsecond, func() { got = append(got, 1) })
	s.After(2*Microsecond, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Now() != Time(3*Microsecond) {
		t.Fatalf("clock = %d, want 3000", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(Microsecond, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired bool
	s.After(Microsecond, func() {
		s.After(Microsecond, func() { fired = true })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("nested event did not fire")
	}
	if s.Now() != Time(2*Microsecond) {
		t.Fatalf("clock = %d, want 2000", s.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := NewScheduler()
	var fired bool
	s.After(Microsecond, func() {
		s.After(-5*Microsecond, func() { fired = true })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || s.Now() != Time(Microsecond) {
		t.Fatalf("fired=%v now=%d", fired, s.Now())
	}
}

func TestProcSleep(t *testing.T) {
	s := NewScheduler()
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(5*Microsecond) {
		t.Fatalf("woke at %d, want 5000", wake)
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", s.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	s := NewScheduler()
	var trace []string
	mk := func(name string, d Duration) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				trace = append(trace, name)
			}
		})
	}
	// a wakes at 2,4,6; b wakes at 3,6,9. At t=6 b's wake event was
	// scheduled earlier (t=3) than a's (t=4), so b runs first.
	mk("a", 2*Microsecond)
	mk("b", 3*Microsecond)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	var woke []string
	for _, n := range []string{"w1", "w2"} {
		n := n
		s.Spawn(n, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, n)
		})
	}
	s.After(10*Microsecond, func() { c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Fatalf("woke = %v", woke)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	var signaled, timedOut bool
	s.Spawn("timeout", func(p *Proc) {
		timedOut = !c.WaitTimeout(p, 5*Microsecond)
	})
	s.Spawn("signaled", func(p *Proc) {
		p.Sleep(6 * Microsecond) // waits from t=6
		signaled = c.WaitTimeout(p, 10*Microsecond)
	})
	s.After(8*Microsecond, func() { c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("first waiter should have timed out")
	}
	if !signaled {
		t.Fatal("second waiter should have been signaled")
	}
}

func TestWaitUntil(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	n := 0
	var done Time
	s.Spawn("waiter", func(p *Proc) {
		c.WaitUntil(p, func() bool { return n >= 3 })
		done = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		s.After(Duration(i)*Microsecond, func() {
			n++
			c.Broadcast()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != Time(3*Microsecond) {
		t.Fatalf("done at %d, want 3000", done)
	}
}

func TestWaitUntilTimeoutExpires(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	var ok bool
	s.Spawn("waiter", func(p *Proc) {
		ok = c.WaitUntilTimeout(p, 5*Microsecond, func() bool { return false })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("predicate can never be true; want ok=false")
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	s.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := NewScheduler()
	s.Spawn("bomb", func(p *Proc) { panic("boom") })
	err := s.Run()
	if err == nil {
		t.Fatal("want error from panicking proc")
	}
}

func TestKillBlockedProc(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	var reached bool
	p := s.Spawn("victim", func(p *Proc) {
		c.Wait(p)
		reached = true
	})
	s.After(5*Microsecond, func() { p.Kill() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed proc continued past its yield point")
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", s.LiveProcs())
	}
}

func TestKillBeforeStart(t *testing.T) {
	s := NewScheduler()
	var reached bool
	p := s.SpawnAfter(10*Microsecond, "late", func(p *Proc) { reached = true })
	s.After(Microsecond, func() { p.Kill() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed proc body ran")
	}
}

func TestKillSleepingProc(t *testing.T) {
	s := NewScheduler()
	var after bool
	p := s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		after = true
	})
	s.After(Microsecond, func() { p.Kill() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if after {
		t.Fatal("killed sleeper woke up")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.After(Microsecond, func() { fired = append(fired, 1) })
	s.After(10*Microsecond, func() { fired = append(fired, 2) })
	if err := s.RunUntil(Time(5 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want just the first event", fired)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both events", fired)
	}
}

func TestChanSendRecv(t *testing.T) {
	s := NewScheduler()
	ch := NewChan[int](s)
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(p)
			if !ok {
				t.Error("recv failed")
				return
			}
			got = append(got, v)
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(Microsecond)
			ch.Send(i * 10)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestChanRecvTimeout(t *testing.T) {
	s := NewScheduler()
	ch := NewChan[int](s)
	var ok1, ok2 bool
	s.Spawn("recv", func(p *Proc) {
		_, ok1 = ch.RecvTimeout(p, 5*Microsecond)
		_, ok2 = ch.RecvTimeout(p, 20*Microsecond)
	})
	s.After(10*Microsecond, func() { ch.Send(7) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 {
		t.Fatal("first recv should time out")
	}
	if !ok2 {
		t.Fatal("second recv should succeed")
	}
}

func TestChanClose(t *testing.T) {
	s := NewScheduler()
	ch := NewChan[int](s)
	ch.Send(1)
	ch.Close()
	var vals []int
	var closedOK bool
	s.Spawn("recv", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				closedOK = true
				return
			}
			vals = append(vals, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 1 || !closedOK {
		t.Fatalf("vals=%v closedOK=%v", vals, closedOK)
	}
}

func TestChanTryRecv(t *testing.T) {
	s := NewScheduler()
	ch := NewChan[string](s)
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan should fail")
	}
	ch.Send("x")
	if v, ok := ch.TryRecv(); !ok || v != "x" {
		t.Fatalf("TryRecv = %q,%v", v, ok)
	}
	if ch.Len() != 0 {
		t.Fatalf("len = %d", ch.Len())
	}
}

// Peek reads the queue in FIFO order without consuming it, rejects
// indices outside [0, Len), survives the consumed-prefix slide, and
// allocates nothing.
func TestChanPeek(t *testing.T) {
	s := NewScheduler()
	ch := NewChan[int](s)
	if _, ok := ch.Peek(0); ok {
		t.Fatal("Peek on empty chan should fail")
	}
	for i := 0; i < 128; i++ {
		ch.Send(i)
	}
	expect := func(first int) {
		t.Helper()
		for i := 0; i < ch.Len(); i++ {
			if v, ok := ch.Peek(i); !ok || v != first+i {
				t.Fatalf("Peek(%d) = %d,%v; want %d", i, v, ok, first+i)
			}
		}
		for _, i := range []int{-1, ch.Len(), ch.Len() + 1} {
			if _, ok := ch.Peek(i); ok {
				t.Fatalf("Peek(%d) of %d queued succeeded", i, ch.Len())
			}
		}
	}
	expect(0)
	for i := 0; i < 64; i++ {
		ch.TryRecv()
	}
	if ch.head != 0 || ch.Len() != 64 {
		t.Fatalf("after 64 of 128 dequeued: head %d, len %d; want the slide to head 0", ch.head, ch.Len())
	}
	expect(64)
	if v, _ := ch.TryRecv(); v != 64 {
		t.Fatalf("Peek consumed: TryRecv = %d, want 64", v)
	}
	if allocs := testing.AllocsPerRun(100, func() { ch.Peek(10) }); allocs != 0 {
		t.Fatalf("Peek allocates %v times", allocs)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		s := NewScheduler()
		c := NewCond(s)
		var trace []Time
		for i := 0; i < 5; i++ {
			s.Spawn("p", func(p *Proc) {
				p.Sleep(Duration(1) * Microsecond)
				c.Broadcast()
				c.WaitTimeout(p, 3*Microsecond)
				trace = append(trace, p.Now())
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic trace lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a, b)
		}
	}
}
