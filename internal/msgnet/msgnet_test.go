package msgnet

import (
	"testing"

	"heron/internal/sim"
)

func TestSendRecvLatency(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	var recvAt sim.Time
	s.Spawn("recv", func(p *sim.Proc) {
		ep := n.Endpoint(2)
		if _, ok := ep.Recv(p); !ok {
			t.Error("recv failed")
		}
		recvAt = p.Now()
	})
	s.Spawn("send", func(p *sim.Proc) {
		if err := n.Send(p, 1, 2, []byte("hello")); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	min := sim.Time(sendCPU) + sim.Time(oneWayDelay)
	if recvAt < min {
		t.Fatalf("received at %d, want >= %d (message passing must be slow)", recvAt, min)
	}
}

func TestFIFOPerPair(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	var got []byte
	s.Spawn("recv", func(p *sim.Proc) {
		ep := n.Endpoint(2)
		for i := 0; i < 5; i++ {
			m, ok := ep.Recv(p)
			if !ok {
				t.Error("recv failed")
				return
			}
			got = append(got, m.Payload[0])
		}
	})
	s.Spawn("send", func(p *sim.Proc) {
		for i := byte(0); i < 5; i++ {
			if err := n.Send(p, 1, 2, []byte{i}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestFailedEndpointDropsMessages(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	ep := n.Endpoint(2)
	ep.Fail()
	s.Spawn("send", func(p *sim.Proc) {
		if err := n.Send(p, 1, 2, []byte("x")); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ep.Pending() {
		t.Fatal("message delivered to failed endpoint")
	}
	s2 := sim.NewScheduler()
	n2 := New(s2)
	n2.Endpoint(1).Fail()
	s2.Spawn("send", func(p *sim.Proc) {
		if err := n2.Send(p, 1, 2, []byte("x")); err == nil {
			t.Error("send from failed endpoint should error")
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	s := sim.NewScheduler()
	n := New(s)
	var ok bool
	s.Spawn("recv", func(p *sim.Proc) {
		_, ok = n.Endpoint(2).RecvTimeout(p, 10*sim.Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("timeout recv should fail with no senders")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// Two large messages from one sender must serialize on the uplink.
	size := 1 << 20
	s := sim.NewScheduler()
	n := New(s)
	var t1, t2 sim.Time
	s.Spawn("recv", func(p *sim.Proc) {
		ep := n.Endpoint(2)
		ep.Recv(p)
		t1 = p.Now()
		ep.Recv(p)
		t2 = p.Now()
	})
	s.Spawn("send", func(p *sim.Proc) {
		big := make([]byte, size)
		_ = n.Send(p, 1, 2, big)
		_ = n.Send(p, 1, 2, big)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wire := sim.Time(float64(size) / bytesPerNS)
	if t2-t1 < wire/2 {
		t.Fatalf("second message did not serialize behind the first: t1=%d t2=%d", t1, t2)
	}
}
