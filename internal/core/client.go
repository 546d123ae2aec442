package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// Client submits requests to a Heron deployment in a closed loop:
// Submit atomically multicasts the request to the involved partitions and
// blocks until one response from each involved partition has arrived
// (the paper's latency definition in Section V-B).
type Client struct {
	cfg    *Config
	mc     *multicast.Client
	tr     *rdma.Transport
	node   *rdma.Node
	ep     *rdma.Endpoint
	lastID multicast.MsgID
	// leaseToken numbers this client's local-read probes so stale replies
	// (and stale ordered responses) are recognized and dropped.
	leaseToken uint64

	// dropped counts datagrams discarded while waiting for responses
	// (undecodable, wrong kind, or stale responses to earlier requests).
	// nil (no-op) until an observer is attached.
	dropped *obs.Counter
	// cp records the client-side critical-path marks (submit, sent,
	// complete); nil (no-op) until an observer is attached.
	cp *obs.CritPath
}

// Observe attaches the client's dropped-datagram counter to an observer.
// Deployment.NewClient wires it automatically when the deployment is
// observed first.
func (c *Client) Observe(o *obs.Observer) {
	if o != nil {
		c.dropped = o.Counter("client_dropped_datagrams")
		c.cp = o.CritPath()
	}
}

// LastMsgID returns the multicast id of the most recent Submit, letting
// harnesses correlate client-side latencies with replica-side traces.
func (c *Client) LastMsgID() multicast.MsgID { return c.lastID }

// NodeID returns the client's fabric node.
func (c *Client) NodeID() rdma.NodeID { return c.node.ID() }

// Submit sends one request and waits for the first response from every
// destination partition. It returns the responses keyed by partition,
// copies of the first reply from each; the others are never copied.
func (c *Client) Submit(p *sim.Proc, dst []PartitionID, payload []byte) (map[PartitionID][]byte, error) {
	return c.submit(p, dst, payload, forever)
}

// LeaseRead probes a lease holder for a local single-object read: one
// control-plane round trip, no multicast. ok=false means the probe was
// declined (no live lease at that replica, dual-version overrun) or timed
// out — the caller falls back to the ordered path. A nil value with
// ok=true is a definitive "object absent".
func (c *Client) LeaseRead(p *sim.Proc, holder rdma.NodeID, oid uint64, d sim.Duration) ([]byte, bool) {
	c.leaseToken++
	token := c.leaseToken
	var buf [1 + 8 + 8]byte // kind, token, oid
	if err := c.tr.Send(p, c.node.ID(), holder, encodeLeaseRead(buf[:0], leaseReadMsg{token: token, oid: oid})); err != nil {
		return nil, false
	}
	deadline := p.Now() + sim.Time(d)
	for {
		remaining := sim.Duration(deadline - p.Now())
		if remaining <= 0 {
			return nil, false
		}
		datagram, _, ok := c.ep.RecvTimeout(p, remaining)
		if !ok {
			return nil, false
		}
		kind, r, kerr := ctlKind(datagram)
		if kerr != nil || kind != ctlLeaseReadReply {
			c.dropped.Inc()
			continue // stale ordered responses from earlier submissions
		}
		m := decodeLeaseReadReply(&r)
		if r.Err() != nil || m.token != token {
			c.dropped.Inc()
			continue
		}
		if !m.ok {
			return nil, false
		}
		return m.val, true
	}
}

// SubmitTimeout is Submit with a deadline; ok=false means the responses
// did not all arrive in time (e.g. too many replica failures).
func (c *Client) SubmitTimeout(p *sim.Proc, dst []PartitionID, payload []byte, d sim.Duration) (map[PartitionID][]byte, bool) {
	got, err := c.submit(p, dst, payload, d)
	return got, err == nil
}

// forever is the timeout of a wait that has none: submit then receives
// with Recv, which arms no timer event.
const forever = sim.Duration(math.MaxInt64)

// errTimedOut is submit's error when its timeout passes first.
var errTimedOut = errors.New("heron client: timed out")

// submit multicasts one request and collects the first response from
// every partition in dst, waiting at most d once it has been sent. On a
// timeout it returns the responses that have arrived.
func (c *Client) submit(p *sim.Proc, dst []PartitionID, payload []byte, d sim.Duration) (map[PartitionID][]byte, error) {
	t0 := p.Now()
	id := c.mc.Multicast(p, dst, payload)
	c.lastID = id
	c.cp.Mark(cpID(id), obs.SegSubmit, t0)
	c.cp.Mark(cpID(id), obs.SegSent, p.Now())
	deadline := p.Now() + sim.Time(d)
	want := make(map[PartitionID]bool, len(dst))
	for _, h := range dst {
		want[h] = true
	}
	got := make(map[PartitionID][]byte, len(dst))
	for len(got) < len(want) {
		var datagram []byte
		if d == forever {
			var err error
			if datagram, _, err = c.ep.Recv(p); err != nil {
				return nil, fmt.Errorf("heron client: %w", err)
			}
		} else {
			remaining := sim.Duration(deadline - p.Now())
			if remaining <= 0 {
				return got, errTimedOut
			}
			var ok bool
			if datagram, _, ok = c.ep.RecvTimeout(p, remaining); !ok {
				return got, errTimedOut
			}
		}
		kind, r, kerr := ctlKind(datagram)
		if kerr != nil || kind != ctlResponse {
			c.dropped.Inc()
			continue
		}
		m := decodeResponse(&r)
		if r.Err() != nil || m.id != id {
			c.dropped.Inc()
			continue // stale response from an earlier request
		}
		if _, dup := got[m.part]; want[m.part] && !dup {
			got[m.part] = bytes.Clone(m.payload) // before the next Recv reuses the datagram
		}
	}
	c.cp.Mark(cpID(id), obs.SegComplete, p.Now())
	return got, nil
}
