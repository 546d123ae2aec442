package sim

import (
	"errors"
	"testing"
)

// BenchmarkEventThroughput measures raw event scheduling + dispatch.
func BenchmarkEventThroughput(b *testing.B) {
	s := NewScheduler()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			s.After(Microsecond, chain)
		}
	}
	s.After(Microsecond, chain)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures process context-switch cost (sleep/wake):
// one wake event and one coroutine round trip per operation.
func BenchmarkProcSwitch(b *testing.B) {
	s := NewScheduler()
	s.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondBroadcast measures one broadcast reaching one waiter, per
// wait form. "wake" and "timed" switch to the waiter every time (timed
// also arms and cancels a timeout); "filtered" is the case the predicate
// waits exist for — the waiter's predicate is false, so the broadcast
// costs a wake event and a callback, and no switch to the waiter.
func BenchmarkCondBroadcast(b *testing.B) {
	never := func() bool { return false }
	for _, bc := range []struct {
		name string
		wait func(c *Cond, p *Proc)
	}{
		{"wake", func(c *Cond, p *Proc) { c.Wait(p) }},
		{"timed", func(c *Cond, p *Proc) { c.WaitTimeout(p, Second) }},
		{"filtered", func(c *Cond, p *Proc) { c.WaitFor(p, never) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewScheduler()
			defer s.Close()
			c := NewCond(s)
			s.Spawn("waiter", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					bc.wait(c, p)
				}
			})
			s.Spawn("signaler", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Sleep(Microsecond)
					c.Broadcast()
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil && !errors.Is(err, ErrDeadlock) {
				b.Fatal(err)
			}
		})
	}
}

// Queue microbenchmarks. The binary heap the calendar queue replaced was
// benchmarked against it here until PR 12; the last old-vs-new numbers
// are recorded in EXPERIMENTS.md.

var sinkTime Time

func nop() {}

// Dense burst: many events at the same instant, the pattern produced by a
// message fan-out or an open-loop arrival batch. The calendar queue turns
// each push into an O(1) append on the live bucket.
func BenchmarkQueueDenseBurst(b *testing.B) {
	const burst = 256
	var q eventQueue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := Time(i)
		for j := 0; j < burst; j++ {
			q.push(at, event{seq: uint64(i*burst + j), fn: nop})
		}
		for q.len() > 0 {
			sinkTime, _ = q.pop()
		}
	}
}

// Timer wheel: push/pop with strictly increasing times and a standing
// population, the steady-state pattern of per-proc timers.
func BenchmarkQueueTimer(b *testing.B) {
	const standing = 1024
	var q eventQueue
	for j := 0; j < standing; j++ {
		q.push(Time(j), event{seq: uint64(j), fn: nop})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _ := q.pop()
		sinkTime = at
		q.push(at+standing, event{seq: uint64(standing + i), fn: nop})
	}
}

// End to end: the scheduler executing windows of same-time callbacks, the
// shape of a fabric hop fan-in. Exercises free list, bucket reuse, and
// the run loop together.
func BenchmarkSchedulerFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		var fired int
		for w := 0; w < 64; w++ {
			at := Time(w * 100)
			for j := 0; j < 32; j++ {
				s.At(at, func() { fired++ })
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if fired != 64*32 {
			b.Fatal("missed events")
		}
	}
}
