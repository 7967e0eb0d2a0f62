package mac

import (
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
	"e2efair/internal/xrand"
)

// NodeShare returns the node share c_i (sum of subflow shares).
func (s *TagScheduler) NodeShare() float64 { return s.nodeShare }

// QueueLen returns the backlog of one subflow queue.
func (s *TagScheduler) QueueLen(id flow.SubflowID) int {
	q, ok := s.bySubflow[id]
	if !ok {
		return 0
	}
	return q.queue.len()
}

func newTagSched(t *testing.T) *TagScheduler {
	t.Helper()
	s, err := NewTagScheduler(TagSchedulerConfig{
		Node:         0,
		BitsPerMicro: 2.0,
		CWMin:        31,
		CWMax:        1023,
		QueueCap:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pkt(id flow.ID, hop int, seq int64) *Packet {
	return &Packet{
		Flow:         id,
		Seq:          seq,
		Path:         []topology.NodeID{0, 1, 2, 3, 4},
		Hop:          hop,
		PayloadBytes: 512,
	}
}

func TestTagSchedulerConfigValidation(t *testing.T) {
	if _, err := NewTagScheduler(TagSchedulerConfig{BitsPerMicro: 0, QueueCap: 1}); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewTagScheduler(TagSchedulerConfig{BitsPerMicro: 2, QueueCap: 0}); err == nil {
		t.Error("zero queue cap should fail")
	}
}

func TestAddSubflowDuplicate(t *testing.T) {
	s := newTagSched(t)
	id := flow.SubflowID{Flow: "F1", Hop: 0}
	if err := s.AddSubflow(id, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSubflow(id, 0.5); err == nil {
		t.Error("duplicate subflow should fail")
	}
}

func TestEnqueueUnknownSubflow(t *testing.T) {
	s := newTagSched(t)
	if s.Enqueue(pkt("F9", 0, 0), 0) {
		t.Error("unknown subflow should be rejected")
	}
}

func TestQueueCap(t *testing.T) {
	s, err := NewTagScheduler(TagSchedulerConfig{Node: 0, BitsPerMicro: 2, CWMin: 31, CWMax: 1023, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.AddSubflow(flow.SubflowID{Flow: "F1", Hop: 0}, 0.5)
	if !s.Enqueue(pkt("F1", 0, 0), 0) || !s.Enqueue(pkt("F1", 0, 1), 0) {
		t.Fatal("first two should fit")
	}
	if s.Enqueue(pkt("F1", 0, 2), 0) {
		t.Error("third should be dropped")
	}
	if s.Backlog() != 2 {
		t.Errorf("backlog = %d", s.Backlog())
	}
}

// TestIntraNodeRatio reproduces the paper's intra-node coordination
// example (Sec. IV-C): at node A of Fig. 4, subflows F1.1 and F2.1
// with allocated shares 3B/10 and B/5 must be served 3:2.
func TestIntraNodeRatio(t *testing.T) {
	s := newTagSched(t)
	a := flow.SubflowID{Flow: "F1", Hop: 0}
	b := flow.SubflowID{Flow: "F2", Hop: 0}
	if err := s.AddSubflow(a, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSubflow(b, 0.2); err != nil {
		t.Fatal(err)
	}
	// Keep both queues backlogged and count services.
	count := map[flow.SubflowID]int{}
	var seq int64
	for i := 0; i < 10; i++ {
		s.Enqueue(pkt("F1", 0, seq), 0)
		s.Enqueue(pkt("F2", 0, seq), 0)
		seq++
	}
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		p := s.Head(0)
		if p == nil {
			t.Fatal("backlogged scheduler returned no head")
		}
		count[p.SubflowID()]++
		s.OnSuccess(p, 0, 0)
		// Refill to stay backlogged.
		s.Enqueue(pkt(p.Flow, p.Hop, seq), 0)
		seq++
	}
	got := float64(count[a]) / float64(count[b])
	if got < 1.45 || got > 1.55 {
		t.Errorf("service ratio %.3f (=%d:%d), want 3:2", got, count[a], count[b])
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	s := newTagSched(t)
	id := flow.SubflowID{Flow: "F1", Hop: 0}
	_ = s.AddSubflow(id, 0.5)
	s.Enqueue(pkt("F1", 0, 0), 0)
	tag0, ok := s.CurrentTag()
	if !ok {
		t.Fatal("tag scheduler must report tags")
	}
	p := s.Head(0)
	s.OnSuccess(p, 0, 0)
	s.Enqueue(pkt("F1", 0, 1), 0)
	_ = s.Head(0)
	tag1, _ := s.CurrentTag()
	if tag1 <= tag0 {
		t.Errorf("start tag did not advance: %g then %g", tag0, tag1)
	}
}

// TestBackoffGrowsWhenAhead checks the inter-node coordination: a node
// whose service leads its neighbors draws larger backoff windows.
func TestBackoffGrowsWhenAhead(t *testing.T) {
	s := newTagSched(t)
	id := flow.SubflowID{Flow: "F1", Hop: 0}
	_ = s.AddSubflow(id, 0.25)
	// Drive our virtual clock forward by transmitting a lot.
	var seq int64
	for i := 0; i < 200; i++ {
		s.Enqueue(pkt("F1", 0, seq), 0)
		seq++
		if p := s.Head(0); p != nil {
			s.OnSuccess(p, 0, 0)
		}
	}
	s.Enqueue(pkt("F1", 0, seq), 0)
	_ = s.Head(0)
	// A neighbor stuck at tag 0.
	s.Observe(1, 0, 0)
	rng := xrand.New(1)
	var aheadMax int
	for i := 0; i < 200; i++ {
		if b := s.DrawBackoff(&rng, 0, 0); b > aheadMax {
			aheadMax = b
		}
	}
	// Same node with the neighbor at the same tag.
	tag, _ := s.CurrentTag()
	s.Observe(1, tag, 0)
	var evenMax int
	for i := 0; i < 200; i++ {
		if b := s.DrawBackoff(&rng, 0, 0); b > evenMax {
			evenMax = b
		}
	}
	if aheadMax <= evenMax {
		t.Errorf("ahead-of-neighbors max backoff %d should exceed in-sync %d", aheadMax, evenMax)
	}
	if evenMax > 31 {
		t.Errorf("in-sync backoff window %d should be within CWmin", evenMax)
	}
}

func TestAdvise(t *testing.T) {
	s := newTagSched(t)
	// Receiver knows two transmitters: sender (tag 1000) and another
	// at tag 200. R for the sender should be positive (it is ahead).
	s.Observe(1, 1000, 0)
	s.Observe(2, 200, 0)
	r := s.Advise(1, 0)
	if r <= 0 {
		t.Errorf("R = %g, want positive for a leading sender", r)
	}
	if got := s.Advise(2, 0); got >= 0 {
		t.Errorf("R = %g, want negative for a lagging sender", got)
	}
	if got := s.Advise(9, 0); got != 0 {
		t.Errorf("R for unknown sender = %g, want 0", got)
	}
}

// TestAdviseSumsInNodeOrder pins the neighbor-table sum to one order:
// the tags are chosen so that floating-point addition of the terms is
// not associative, and every insertion order (each tried repeatedly,
// so a randomly ordered table would show) must give the same bits.
func TestAdviseSumsInNodeOrder(t *testing.T) {
	tags := map[topology.NodeID]float64{2: -1e4, 3: -1e20, 4: 1e20, 5: 3e4}
	orders := [][]topology.NodeID{{2, 3, 4, 5}, {5, 4, 3, 2}, {3, 5, 2, 4}, {4, 2, 5, 3}}
	var want float64
	for k, order := range orders {
		for rep := 0; rep < 20; rep++ {
			s := newTagSched(t)
			s.Observe(1, 0, 0)
			for _, n := range order {
				s.Observe(n, tags[n], 0)
			}
			s.Observe(3, tags[3], 0) // an update keeps one entry per node
			if len(s.table) != 5 {
				t.Fatalf("table has %d entries, want 5", len(s.table))
			}
			got := s.Advise(1, 0)
			if k == 0 && rep == 0 {
				want = got
			} else if got != want {
				t.Fatalf("insertion order %v: Advise = %g, want %g", order, got, want)
			}
		}
	}
}

func TestObserveIgnoresSelf(t *testing.T) {
	s := newTagSched(t)
	s.Observe(0, 5000, 0) // own node ID
	if got := s.Advise(0, 0); got != 0 {
		t.Errorf("self-observation leaked into table: %g", got)
	}
}

func TestOnDropAdvancesQueue(t *testing.T) {
	s := newTagSched(t)
	id := flow.SubflowID{Flow: "F1", Hop: 0}
	_ = s.AddSubflow(id, 0.5)
	s.Enqueue(pkt("F1", 0, 0), 0)
	s.Enqueue(pkt("F1", 0, 1), 0)
	p := s.Head(0)
	if p.Seq != 0 {
		t.Fatalf("head seq = %d", p.Seq)
	}
	s.OnDrop(p, 0)
	p2 := s.Head(0)
	if p2 == nil || p2.Seq != 1 {
		t.Fatalf("after drop head = %v", p2)
	}
	if s.QueueLen(id) != 1 {
		t.Errorf("queue len = %d", s.QueueLen(id))
	}
}

func TestStickyHead(t *testing.T) {
	s := newTagSched(t)
	a := flow.SubflowID{Flow: "F1", Hop: 0}
	b := flow.SubflowID{Flow: "F2", Hop: 0}
	_ = s.AddSubflow(a, 0.5)
	_ = s.AddSubflow(b, 0.5)
	s.Enqueue(pkt("F1", 0, 0), 0)
	p1 := s.Head(0)
	s.Enqueue(pkt("F2", 0, 0), 0)
	p2 := s.Head(0)
	if p1 != p2 {
		t.Error("head selection must be sticky until the packet leaves")
	}
}

func TestNodeShare(t *testing.T) {
	s := newTagSched(t)
	_ = s.AddSubflow(flow.SubflowID{Flow: "F1", Hop: 0}, 0.3)
	_ = s.AddSubflow(flow.SubflowID{Flow: "F2", Hop: 0}, 0.2)
	if got := s.NodeShare(); got != 0.5 {
		t.Errorf("node share = %g, want 0.5", got)
	}
}

// TestWeightedMediumSplit runs two contending tag-scheduled links with
// shares 0.6 and 0.2 over the medium and expects roughly a 3:1
// delivery ratio.
func TestWeightedMediumSplit(t *testing.T) {
	r := newRig(t, func(b *topology.Builder) {
		b.Add("A", 0, 0).Add("B", 200, 0).Add("C", 100, 150).Add("D", 300, 150)
	})
	attach := func(node topology.NodeID, id flow.SubflowID, share float64) {
		s, err := NewTagScheduler(TagSchedulerConfig{
			Node: node, BitsPerMicro: 2.0, CWMin: 31, CWMax: 1023, QueueCap: 5000,
			Alpha: 0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		if share > 0 {
			if err := s.AddSubflow(id, share); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.medium.Attach(node, s); err != nil {
			t.Fatal(err)
		}
	}
	attach(0, flow.SubflowID{Flow: "F1", Hop: 0}, 0.6)
	attach(2, flow.SubflowID{Flow: "F2", Hop: 0}, 0.2)
	attach(1, flow.SubflowID{}, 0)
	attach(3, flow.SubflowID{}, 0)
	r.saturate("F1", []topology.NodeID{0, 1}, 5000)
	r.saturate("F2", []topology.NodeID{2, 3}, 5000)
	// Stop while both sources are still backlogged (F1 drains its
	// 5000-packet queue at ≈20 s).
	r.eng.Run(15 * sim.Second)
	d1 := r.delivered[sub("F1", 0)]
	d2 := r.delivered[sub("F2", 0)]
	if d2 == 0 {
		t.Fatal("low-share flow starved entirely")
	}
	ratio := float64(d1) / float64(d2)
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("weighted split ratio %.2f (%d vs %d), want ≈3", ratio, d1, d2)
	}
	_ = sim.Second
}
