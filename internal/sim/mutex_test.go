package sim

import "testing"

func TestMutexExclusion(t *testing.T) {
	s := NewScheduler()
	m := NewMutex(s)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) {
			for j := 0; j < 3; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(5 * Microsecond) // critical section with a yield
				inside--
				m.Unlock(p)
				p.Sleep(Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
}

func TestMutexFIFOOrder(t *testing.T) {
	s := NewScheduler()
	m := NewMutex(s)
	var order []int
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * Microsecond)
		m.Unlock(p)
	})
	for i := 1; i <= 3; i++ {
		i := i
		s.SpawnAfter(Duration(i)*Microsecond, "waiter", func(p *Proc) {
			m.Lock(p)
			order = append(order, i)
			p.Sleep(Microsecond)
			m.Unlock(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i+1 {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

func TestMutexKilledWaiter(t *testing.T) {
	s := NewScheduler()
	m := NewMutex(s)
	var got []string
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p)
		p.Sleep(20 * Microsecond)
		got = append(got, "holder")
	})
	victim := s.SpawnAfter(Microsecond, "victim", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p) // must be a no-op: never granted
		got = append(got, "victim")
	})
	s.SpawnAfter(2*Microsecond, "survivor", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p)
		got = append(got, "survivor")
	})
	s.After(5*Microsecond, func() { victim.Kill() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "holder" || got[1] != "survivor" {
		t.Fatalf("got %v; victim must be skipped, survivor granted", got)
	}
	if m.Locked() {
		t.Fatal("mutex leaked")
	}
}

func TestMutexUnlockByNonOwnerIsNoop(t *testing.T) {
	s := NewScheduler()
	m := NewMutex(s)
	s.Spawn("owner", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * Microsecond)
		m.Unlock(p)
	})
	s.SpawnAfter(Microsecond, "other", func(p *Proc) {
		m.Unlock(p) // not the owner: no-op, no panic
		if !m.Locked() {
			t.Error("non-owner unlock released the mutex")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockFreePanics(t *testing.T) {
	s := NewScheduler()
	m := NewMutex(s)
	s.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("want panic on unlocking a free mutex")
			}
		}()
		m.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
