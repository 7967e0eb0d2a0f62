package mac

import (
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/phy"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
)

// packetRate is the maximum single-link packet throughput in packets
// per second for the given payload, ignoring backoff.
func packetRate(c *phy.Channel, payloadBytes int) float64 {
	return float64(sim.Second) / float64(c.ExchangeTime(payloadBytes)+phy.DIFS)
}

// rig is a small MAC test harness.
type rig struct {
	t         *testing.T
	eng       *sim.Engine
	topo      *topology.Topology
	medium    *Medium
	delivered map[flow.SubflowID]int
	retryDrop int
	collision int
}

func newRig(t *testing.T, build func(b *topology.Builder)) *rig {
	t.Helper()
	b := topology.NewBuilder(topology.DefaultRange, 0)
	build(b)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, eng: sim.NewEngine(), topo: topo, delivered: make(map[flow.SubflowID]int)}
	hooks := Hooks{
		OnDelivered: func(p *Packet, _ sim.Time) {
			r.delivered[p.SubflowID()]++
			if !p.LastHop() {
				p.Hop++
				if _, err := r.medium.Inject(p); err != nil {
					t.Fatalf("forward: %v", err)
				}
			}
		},
		OnRetryDrop: func(_ *Packet, _ sim.Time) { r.retryDrop++ },
		OnCollision: func(_ topology.NodeID, _ sim.Time) { r.collision++ },
	}
	m, err := NewMedium(r.eng, topo, Config{Seed: 1}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	r.medium = m
	return r
}

func (r *rig) fifoAll() { r.fifoCap(50) }

// fifoCap attaches FIFO schedulers with the given queue capacity;
// saturation tests use large capacities so sources stay backlogged.
func (r *rig) fifoCap(capacity int) {
	for i := 0; i < r.topo.NumNodes(); i++ {
		if err := r.medium.Attach(topology.NodeID(i), NewFIFO(capacity, phy.DefaultCWMin, phy.DefaultCWMax)); err != nil {
			r.t.Fatal(err)
		}
	}
}

// saturate injects count packets for a flow at time zero (backlogged
// source).
func (r *rig) saturate(id flow.ID, path []topology.NodeID, count int) {
	for i := 0; i < count; i++ {
		p := &Packet{Flow: id, Seq: int64(i), Path: path, PayloadBytes: 512}
		ok, err := r.medium.Inject(p)
		if err != nil {
			r.t.Fatal(err)
		}
		if !ok {
			return // queue full; the rest would be source drops
		}
	}
}

func sub(id flow.ID, hop int) flow.SubflowID { return flow.SubflowID{Flow: id, Hop: hop} }

func TestSingleLinkDelivery(t *testing.T) {
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 200, 0)
	})
	r.fifoAll()
	path := []topology.NodeID{0, 1}
	r.saturate("F1", path, 30)
	r.eng.Run(5 * sim.Second)
	if got := r.delivered[sub("F1", 0)]; got != 30 {
		t.Errorf("delivered %d of 30", got)
	}
	if r.retryDrop != 0 {
		t.Errorf("retry drops = %d on an uncontended link", r.retryDrop)
	}
}

func TestSingleLinkThroughputNearCapacity(t *testing.T) {
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 200, 0)
	})
	r.fifoAll()
	// Keep the queue topped up by refilling on delivery.
	path := []topology.NodeID{0, 1}
	seq := int64(0)
	refill := func() {
		p := &Packet{Flow: "F1", Seq: seq, Path: path, PayloadBytes: 512}
		seq++
		if _, err := r.medium.Inject(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		refill()
	}
	// Refill as packets drain.
	done := 0
	for step := 0; step < 100; step++ {
		r.eng.Run(r.eng.Now() + sim.Second/10)
		for r.delivered[sub("F1", 0)]+50 > done+50 && done < r.delivered[sub("F1", 0)] {
			refill()
			done++
		}
	}
	elapsed := r.eng.Now().Seconds()
	rate := float64(r.delivered[sub("F1", 0)]) / elapsed
	maxRate := packetRate(r.medium.Channel(), 512)
	if rate < 0.6*maxRate {
		t.Errorf("saturated link rate %.1f pkt/s below 60%% of channel bound %.1f", rate, maxRate)
	}
	if rate > maxRate {
		t.Errorf("rate %.1f exceeds physical bound %.1f", rate, maxRate)
	}
}

func TestTwoHopForwarding(t *testing.T) {
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 200, 0).Add("C", 400, 0)
	})
	r.fifoAll()
	r.saturate("F1", []topology.NodeID{0, 1, 2}, 20)
	r.eng.Run(10 * sim.Second)
	if got := r.delivered[sub("F1", 1)]; got != 20 {
		t.Errorf("end-to-end delivered %d of 20", got)
	}
}

func TestContendersShareFairly(t *testing.T) {
	// Two single-hop flows whose endpoints all hear each other: FIFO
	// with equal CW should split the channel roughly evenly.
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 200, 0).Add("C", 100, 150).Add("D", 300, 150)
	})
	r.fifoCap(5000)
	r.saturate("F1", []topology.NodeID{0, 1}, 2000)
	r.saturate("F2", []topology.NodeID{2, 3}, 2000)
	r.eng.Run(20 * sim.Second)
	d1 := r.delivered[sub("F1", 0)]
	d2 := r.delivered[sub("F2", 0)]
	if d1 == 0 || d2 == 0 {
		t.Fatalf("starvation: %d vs %d", d1, d2)
	}
	ratio := float64(d1) / float64(d2)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("unfair split: %d vs %d (ratio %.2f)", d1, d2, ratio)
	}
}

func TestSpatialReuse(t *testing.T) {
	// Two far-apart links transmit concurrently: total throughput
	// ~2× a single link.
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 200, 0).Add("C", 5000, 0).Add("D", 5200, 0)
	})
	r.fifoCap(5000)
	r.saturate("F1", []topology.NodeID{0, 1}, 3000)
	r.saturate("F2", []topology.NodeID{2, 3}, 3000)
	dur := 5 * sim.Second
	r.eng.Run(dur)
	d1 := r.delivered[sub("F1", 0)]
	d2 := r.delivered[sub("F2", 0)]
	maxRate := packetRate(r.medium.Channel(), 512) * dur.Seconds()
	if float64(d1) < 0.6*maxRate || float64(d2) < 0.6*maxRate {
		t.Errorf("no spatial reuse: %d, %d vs single-link bound %.0f", d1, d2, maxRate)
	}
}

func TestHiddenReceiverFails(t *testing.T) {
	// B is jammed by the C→D link (C within interference range of B)
	// while A cannot sense C: A's floor acquisitions toward B fail and
	// packets are eventually dropped at the retry limit.
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 240, 0).Add("C", 480, 0).Add("D", 700, 0)
	})
	r.fifoCap(10000)
	// Saturate the jammer first so the channel around B is always
	// busy.
	r.saturate("F2", []topology.NodeID{2, 3}, 5000)
	r.saturate("F1", []topology.NodeID{0, 1}, 200)
	r.eng.Run(20 * sim.Second)
	d2 := r.delivered[sub("F2", 0)]
	d1 := r.delivered[sub("F1", 0)]
	if d2 == 0 {
		t.Fatal("jammer made no progress")
	}
	if d1 >= d2 {
		t.Errorf("hidden receiver should be suppressed: F1 %d vs F2 %d", d1, d2)
	}
	if r.collision == 0 {
		t.Error("expected failed floor acquisitions")
	}
}

func TestRetryLimitDrops(t *testing.T) {
	// A receiver that is always busy forces retry-limit drops: here D
	// jams B continuously and A is saturated.
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 240, 0).Add("C", 480, 0).Add("D", 700, 0)
	})
	r.fifoCap(60000)
	r.saturate("F2", []topology.NodeID{2, 3}, 50000)
	r.saturate("F1", []topology.NodeID{0, 1}, 50)
	r.eng.Run(60 * sim.Second)
	if r.retryDrop == 0 {
		t.Error("expected retry-limit drops for the suppressed sender")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, int) {
		r := newRig(t, func(b *topology.Builder) {
			b.Add("A", 0, 0).Add("B", 200, 0).Add("C", 100, 150).Add("D", 300, 150)
		})
		r.fifoAll()
		r.saturate("F1", []topology.NodeID{0, 1}, 500)
		r.saturate("F2", []topology.NodeID{2, 3}, 500)
		r.eng.Run(5 * sim.Second)
		return r.delivered[sub("F1", 0)], r.delivered[sub("F2", 0)]
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", a1, a2, b1, b2)
	}
}

func TestInjectWithoutScheduler(t *testing.T) {
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 200, 0)
	})
	p := &Packet{Flow: "F1", Path: []topology.NodeID{0, 1}, PayloadBytes: 512}
	if _, err := r.medium.Inject(p); err == nil {
		t.Error("inject without scheduler should fail")
	}
}

func TestAttachUnknownNode(t *testing.T) {
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0)
	})
	if err := r.medium.Attach(5, NewFIFO(10, 31, 1023)); err == nil {
		t.Error("attach to unknown node should fail")
	}
}
