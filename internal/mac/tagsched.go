package mac

import (
	"cmp"
	"e2efair/internal/flow"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
	"e2efair/internal/xrand"
	"fmt"
	"slices"
)

// DefaultAlpha is the paper's short-term fairness strictness
// parameter (Sec. V).
const DefaultAlpha = 0.0001

// tagMaxAge expires neighbor table entries that have not been
// refreshed by an overheard frame: a neighbor that went silent (its
// flow ended) must not keep inflating Q forever.
const tagMaxAge = sim.Second

// minShare floors subflow shares to keep tag arithmetic finite.
const minShare = 1e-6

// TagSchedulerConfig configures the phase-2 scheduler for one node.
type TagSchedulerConfig struct {
	// Node is the owning node.
	Node topology.NodeID
	// BitsPerMicro is the channel capacity B in bits per microsecond.
	BitsPerMicro float64
	// Alpha tunes short-term fairness strictness (DefaultAlpha if 0).
	Alpha float64
	// CWMin and CWMax bound the contention window in slots.
	CWMin int
	CWMax int
	// QueueCap is the per-subflow queue capacity in packets.
	QueueCap int
}

// tagQueue is the per-subflow queue with the tags of its head packet.
type tagQueue struct {
	id         flow.SubflowID
	share      float64 // allocated share c_i^j as a fraction of B
	queue      pktQueue
	sTag       float64 // start tag of the head packet
	iTag       float64 // internal finish tag of the head packet
	lastFinish float64 // internal finish tag of the previously served packet
	tagged     bool
}

// TagScheduler implements the paper's second-phase distributed
// backoff-based scheduler (Sec. IV-C). Packets from different subflows
// are queued separately; the next packet is chosen by smallest
// internal finish tag (computed from the subflow's allocated share);
// the contention backoff window is CWmin + max(Q, R, 0), where Q and R
// estimate how far this node's service has run ahead of its neighbors'
// in normalized (per node share) virtual time.
type TagScheduler struct {
	node     topology.NodeID
	bitsUS   float64
	alpha    float64
	cwMin    int
	cwMax    int
	queueCap int

	queues    []*tagQueue
	bySubflow map[flow.SubflowID]*tagQueue
	nodeShare float64

	vclock   float64
	lastSend sim.Time
	table    []tagEntry // neighbor start tags, ascending by node
	advice   float64    // last R received via ACK
	current  *tagQueue  // sticky head selection
}

// tagEntry is one neighbor's last overheard start tag. The table is a
// node-sorted slice rather than a map so that the floating-point sums
// in DrawBackoff and Advise always add in node order: in a map's
// random iteration order their rounding, and so the truncated
// contention window, could differ between two runs of one seed.
type tagEntry struct {
	node topology.NodeID
	tag  float64
	seen sim.Time
}

var _ Scheduler = (*TagScheduler)(nil)

// NewTagScheduler builds the scheduler; subflow queues are registered
// afterwards with AddSubflow.
func NewTagScheduler(cfg TagSchedulerConfig) (*TagScheduler, error) {
	if cfg.BitsPerMicro <= 0 {
		return nil, fmt.Errorf("mac: tag scheduler needs a positive channel rate, got %g", cfg.BitsPerMicro)
	}
	if cfg.QueueCap <= 0 {
		return nil, fmt.Errorf("mac: tag scheduler needs a positive queue capacity, got %d", cfg.QueueCap)
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	return &TagScheduler{
		node:      cfg.Node,
		bitsUS:    cfg.BitsPerMicro,
		alpha:     alpha,
		cwMin:     cfg.CWMin,
		cwMax:     cfg.CWMax,
		queueCap:  cfg.QueueCap,
		bySubflow: make(map[flow.SubflowID]*tagQueue),
	}, nil
}

// AddSubflow registers a subflow originating at this node with its
// allocated share (fraction of B). The node share is the sum of its
// subflows' shares.
func (s *TagScheduler) AddSubflow(id flow.SubflowID, share float64) error {
	if _, ok := s.bySubflow[id]; ok {
		return fmt.Errorf("mac: subflow %s already registered", id)
	}
	if share < minShare {
		share = minShare
	}
	q := &tagQueue{id: id, share: share}
	s.queues = append(s.queues, q)
	s.bySubflow[id] = q
	s.nodeShare += share
	return nil
}

// SetShare updates a registered subflow's allocated share at runtime,
// supporting online reallocation when the set of backlogged flows
// changes. The head packet's internal finish tag is recomputed so the
// new share takes effect immediately.
func (s *TagScheduler) SetShare(id flow.SubflowID, share float64) error {
	q, ok := s.bySubflow[id]
	if !ok {
		return fmt.Errorf("mac: subflow %s not registered", id)
	}
	if share < minShare {
		share = minShare
	}
	s.nodeShare += share - q.share
	q.share = share
	if q.tagged && q.queue.len() > 0 {
		q.iTag = q.sTag + s.serviceTime(q.queue.front(), share)
	}
	return nil
}

// Share returns a registered subflow's current share.
func (s *TagScheduler) Share(id flow.SubflowID) (float64, bool) {
	q, ok := s.bySubflow[id]
	if !ok {
		return 0, false
	}
	return q.share, true
}

// serviceTime returns the normalized service time of a packet at the
// given share: L / (c·B), in microseconds of virtual time.
func (s *TagScheduler) serviceTime(p *Packet, share float64) float64 {
	bits := float64(p.PayloadBytes+dataOverheadBytes) * 8
	return bits / (share * s.bitsUS)
}

// dataOverheadBytes mirrors phy.DataOverhead without importing phy
// (the MAC treats framing as opaque airtime; tags only need a
// consistent length measure).
const dataOverheadBytes = 58

// Enqueue implements Scheduler.
func (s *TagScheduler) Enqueue(p *Packet, now sim.Time) bool {
	q, ok := s.bySubflow[p.SubflowID()]
	if !ok {
		return false
	}
	if q.queue.len() >= s.queueCap {
		return false
	}
	if s.Backlog() == 0 && now-s.lastSend > tagMaxAge {
		s.reanchor(now)
	}
	q.queue.push(p)
	if q.queue.len() == 1 {
		s.tagHead(q)
	}
	return true
}

// reanchor advances the virtual clock of a node resuming from idle to
// the freshest overheard neighbor tag — the start-time-fair-queueing
// rule that a re-entering flow joins at the current system virtual
// time rather than replaying its backlog of unused credit, which would
// let it starve the neighbors that kept transmitting.
func (s *TagScheduler) reanchor(now sim.Time) {
	for _, e := range s.table {
		if now-e.seen <= tagMaxAge && e.tag > s.vclock {
			s.vclock = e.tag
		}
	}
}

// tagHead assigns start and internal-finish tags to the queue's new
// head packet: S = max(v_i(t), F_prev) and I = S + L/c_i^j, where
// F_prev is the internal finish tag of the queue's previously served
// packet. Chaining off F_prev is what makes backlogged queues receive
// service in proportion to their shares (start-time fair queueing);
// the max with the node's virtual clock re-anchors queues that have
// been idle.
func (s *TagScheduler) tagHead(q *tagQueue) {
	p := q.queue.front()
	q.sTag = s.vclock
	if q.lastFinish > q.sTag {
		q.sTag = q.lastFinish
	}
	q.iTag = q.sTag + s.serviceTime(p, q.share)
	q.tagged = true
}

// Head implements Scheduler: smallest internal finish tag wins; the
// selection is sticky until the packet leaves.
func (s *TagScheduler) Head(_ sim.Time) *Packet {
	if s.current != nil && s.current.queue.len() > 0 {
		return s.current.queue.front()
	}
	s.current = nil
	var best *tagQueue
	for _, q := range s.queues {
		if q.queue.len() == 0 {
			continue
		}
		if !q.tagged {
			s.tagHead(q)
		}
		if best == nil || q.iTag < best.iTag {
			best = q
		}
	}
	if best == nil {
		return nil
	}
	s.current = best
	return best.queue.front()
}

// OnSuccess implements Scheduler: the virtual clock advances to the
// external finish tag E = S + L/c_i (node share), and the next packet
// of the queue is tagged.
func (s *TagScheduler) OnSuccess(p *Packet, advice float64, now sim.Time) {
	s.lastSend = now
	q := s.current
	if q == nil || q.queue.len() == 0 || q.queue.front() != p {
		q = s.bySubflow[p.SubflowID()]
	}
	if q == nil || q.queue.len() == 0 {
		return
	}
	eTag := q.sTag + s.serviceTime(p, s.nodeShare)
	if eTag > s.vclock {
		s.vclock = eTag
	}
	q.lastFinish = q.iTag
	q.queue.pop()
	q.tagged = false
	if q.queue.len() > 0 {
		s.tagHead(q)
	}
	s.advice = advice
	s.current = nil
}

// OnDrop implements Scheduler.
func (s *TagScheduler) OnDrop(p *Packet, _ sim.Time) {
	q := s.current
	if q == nil || q.queue.len() == 0 || q.queue.front() != p {
		q = s.bySubflow[p.SubflowID()]
	}
	if q == nil || q.queue.len() == 0 {
		return
	}
	q.queue.pop()
	q.tagged = false
	if q.queue.len() > 0 {
		s.tagHead(q)
	}
	s.current = nil
}

// DrawBackoff implements Scheduler: uniform in
// [0, CWmin + max(Q, R, 0)], where Q = α·Σ_m (S − r_m) over the local
// table; the window escalates per retry as in 802.11 to preserve
// collision resolution.
func (s *TagScheduler) DrawBackoff(rng *xrand.Rand, retries int, now sim.Time) int {
	var sTag float64
	if s.current != nil && s.current.tagged {
		sTag = s.current.sTag
	} else {
		sTag = s.vclock
	}
	var q float64
	for _, e := range s.table {
		if now-e.seen > tagMaxAge {
			continue
		}
		q += (sTag - e.tag) * s.alpha
	}
	extra := q
	if s.advice > extra {
		extra = s.advice
	}
	if extra < 0 {
		extra = 0
	}
	cw := s.cwMin + int(extra)
	for i := 0; i < retries && cw < s.cwMax; i++ {
		cw = 2*cw + 1
	}
	if cw > s.cwMax {
		cw = s.cwMax
	}
	return rng.Intn(cw + 1)
}

// Observe implements Scheduler: records the overheard start tag of a
// neighboring transmitter.
func (s *TagScheduler) Observe(from topology.NodeID, startTag float64, now sim.Time) {
	if from == s.node {
		return
	}
	i, ok := s.entry(from)
	if !ok {
		s.table = slices.Insert(s.table, i, tagEntry{node: from})
	}
	s.table[i].tag, s.table[i].seen = startTag, now
}

// entry returns the table index of node's entry, or where to insert
// it.
func (s *TagScheduler) entry(node topology.NodeID) (int, bool) {
	return slices.BinarySearchFunc(s.table, node, func(e tagEntry, n topology.NodeID) int {
		return cmp.Compare(e.node, n)
	})
}

// Advise implements Scheduler: the receiver-side estimate
// R = α·Σ_{m≠sender} (r_sender − r_m) from this node's table,
// piggybacked on the ACK back to the sender.
func (s *TagScheduler) Advise(sender topology.NodeID, now sim.Time) float64 {
	i, ok := s.entry(sender)
	if !ok || now-s.table[i].seen > tagMaxAge {
		return 0
	}
	se := s.table[i]
	var r float64
	for _, e := range s.table {
		if e.node == sender || now-e.seen > tagMaxAge {
			continue
		}
		r += (se.tag - e.tag) * s.alpha
	}
	return r
}

// CurrentTag implements Scheduler.
func (s *TagScheduler) CurrentTag() (float64, bool) {
	if s.current != nil && s.current.tagged {
		return s.current.sTag, true
	}
	return s.vclock, true
}

// Backlog implements Scheduler.
func (s *TagScheduler) Backlog() int {
	n := 0
	for _, q := range s.queues {
		n += q.queue.len()
	}
	return n
}

// NumQueues returns the number of registered subflow queues, which
// bounds the node's total buffer space at NumQueues·QueueCap.
func (s *TagScheduler) NumQueues() int { return len(s.queues) }

// Drain implements Drainer: matching packets leave their subflow
// queues; a queue whose head changed is retagged lazily on the next
// Head call, and a drained sticky selection is dropped.
func (s *TagScheduler) Drain(match func(*Packet) bool, out func(*Packet)) int {
	total := 0
	for _, q := range s.queues {
		var frontBefore *Packet
		if q.queue.len() > 0 {
			frontBefore = q.queue.front()
		}
		n := q.queue.filter(match, out)
		if n == 0 {
			continue
		}
		total += n
		if q.queue.len() == 0 || q.queue.front() != frontBefore {
			q.tagged = false
			if s.current == q {
				s.current = nil
			}
		}
	}
	return total
}
