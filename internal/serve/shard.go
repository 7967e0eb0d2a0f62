package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// Snapshot is one shard's immutable published state: the shares of
// every live flow in the shard's radio component as of Epoch, plus the
// shard's cumulative counters. Snapshots are swapped whole behind an
// atomic.Pointer on each batch commit and never mutated afterwards —
// readers may hold one indefinitely and must not write to Shares.
type Snapshot struct {
	// Epoch counts membership-changing commits of this shard; it
	// advances exactly when Shares changed.
	Epoch uint64
	// Shares maps each live flow to its allocated share of B.
	Shares core.FlowAllocation
	// Stats is the shard's counter state as of this commit.
	Stats ShardStats
}

// ShardStats is one shard's cumulative serving counters, published
// inside each Snapshot so reads are lock-free.
type ShardStats struct {
	Epoch          uint64 `json:"epoch"`
	Batches        uint64 `json:"batches"` // batch cycles applied (incl. flush-only)
	Events         uint64 `json:"events"`  // accepted register/remove events
	Registers      uint64 `json:"registers"`
	Removes        uint64 `json:"removes"`
	Rejected       uint64 `json:"rejected"` // duplicate + admission rejections
	Rebuilds       uint64 `json:"rebuilds"` // price cycles (live-instance update + solve)
	GroupsSolved   uint64 `json:"groupsSolved"`
	GroupsReused   uint64 `json:"groupsReused"`
	CacheEvictions uint64 `json:"cacheEvictions"`
	Flows          uint64 `json:"flows"`          // live flows at last commit
	WALBatches     uint64 `json:"walBatches"`     // batches appended to the WAL
	Snapshots      uint64 `json:"snapshots"`      // durable snapshots written
	SnapshotErrors uint64 `json:"snapshotErrors"` // failed snapshot writes (WAL keeps covering)
}

// fields lists the counters in one order, the one list that counters,
// restoreCounters and Engine.Stats walk. The order is append-only:
// recovery takes the prefix both sides know, so old snapshots stay
// readable as fields grow.
func (s *ShardStats) fields() [14]*uint64 {
	return [...]*uint64{
		&s.Epoch, &s.Batches, &s.Events, &s.Registers, &s.Removes, &s.Rejected,
		&s.Rebuilds, &s.GroupsSolved, &s.GroupsReused, &s.CacheEvictions,
		&s.Flows, &s.WALBatches, &s.Snapshots, &s.SnapshotErrors,
	}
}

// counters packs the stats for a durable snapshot; restoreCounters is
// its inverse.
func (s *ShardStats) counters() []uint64 {
	f := s.fields()
	c := make([]uint64, len(f))
	for i, p := range f {
		c[i] = *p
	}
	return c
}

func (s *ShardStats) restoreCounters(c []uint64) {
	for i, p := range s.fields() {
		if i < len(c) {
			*p = c[i]
		}
	}
}

// Stats is the engine-wide sum of per-shard counters plus the shard
// count; see Engine.Stats.
type Stats struct {
	Shards uint64 `json:"shards"`
	ShardStats
}

type opKind uint8

const (
	opRegister opKind = iota
	opRemove
	opFlush
)

// op is one queued registry event. done (cap 1) receives the outcome
// after the event's batch commits; err carries it between apply and
// reply within the worker.
type op struct {
	kind opKind
	id   flow.ID
	f    *flow.Flow // register only
	done chan error
	err  error
}

// shard owns one radio component's flows end to end: a batch queue fed
// by Register/Remove, a worker goroutine that applies batches and
// re-solves through its private core.Allocator (one-allocator-per-
// shard), and the published snapshot. Fields below the mutex are the
// queue; fields below "worker-owned" are touched only by the worker.
type shard struct {
	eng      *Engine
	id       int
	topo     *topology.Topology
	opts     core.CentralizedOptions
	window   time.Duration
	maxBatch int
	maxFlows int
	minShare float64

	mu          sync.Mutex
	pending     []op
	stopping    bool
	uncommitted map[flow.ID]int // registers enqueued, not yet committed, per ID
	wake        chan struct{}

	snap atomic.Pointer[Snapshot]

	// Worker-owned state.
	alloc    *core.Allocator
	live     *core.Live   // contention state of flows as of the last price
	flows    []*flow.Flow // live flows, registration order
	index    map[flow.ID]int
	wvLoad   float64 // Σ w_i·v_i over live flows (admission)
	stats    ShardStats
	spare    []op         // double-buffer for the pending queue
	rollback []*flow.Flow // pre-batch flow list for solve-error rollback

	// Durability (nil dlog = volatile shard, the PR 9 behavior).
	dlog      *durable.ShardLog
	snapEvery int                 // accepted events between durable snapshots; 0 = never
	sinceSnap int                 // accepted events since the last durable snapshot
	walRec    durable.BatchRecord // scratch for WAL appends
}

// emptyShares is the shared immutable share map of an empty shard.
var emptyShares = make(core.FlowAllocation)

func newShard(e *Engine, id int, cfg Config) *shard {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	alloc := core.NewAllocatorWorkers(workers)
	if cfg.CacheCap > 0 {
		alloc.SetGroupCacheCap(cfg.CacheCap)
	}
	s := &shard{
		eng:         e,
		id:          id,
		topo:        cfg.Topo,
		opts:        core.CentralizedOptions{Refine: true},
		window:      cfg.Window,
		maxBatch:    cfg.MaxBatch,
		maxFlows:    cfg.MaxFlows,
		minShare:    cfg.MinShare,
		wake:        make(chan struct{}, 1),
		alloc:       alloc,
		uncommitted: make(map[flow.ID]int),
		live:        core.NewLive(cfg.Topo),
		index:       make(map[flow.ID]int),
	}
	s.snap.Store(&Snapshot{Shares: emptyShares})
	return s
}

// enqueue appends an event to the batch queue and wakes the worker;
// it reports false (without enqueueing) once the shard is stopping.
func (s *shard) enqueue(o op) bool {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return false
	}
	s.pending = append(s.pending, o)
	s.mu.Unlock()
	s.wakeUp()
	return true
}

// enqueueRegister claims the flow's route and queues its register in
// one critical section with the route retirement in commitDirectory,
// so a batch that ends with the ID dead never drops the route of a
// register queued behind it. A route held by a different shard means
// the ID is live or pending there; same-shard duplicates are decided
// by the worker in op order (a pending remove may free the ID).
func (s *shard) enqueueRegister(route *sync.Map, o op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return ErrClosed
	}
	if prev, loaded := route.LoadOrStore(o.id, s); loaded && prev.(*shard) != s {
		return fmt.Errorf("%w: %s", ErrDuplicateFlow, o.id)
	}
	s.uncommitted[o.id]++
	s.pending = append(s.pending, o)
	s.wakeUp()
	return nil
}

func (s *shard) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the shard worker: wait for churn, optionally hold the batch
// window open so concurrent events coalesce, then swap the queue out
// and apply it as (at most MaxBatch-sized) batches. On stop it drains
// everything already queued before exiting, so Close is a clean drain.
func (s *shard) loop() {
	defer s.eng.wg.Done()
	for {
		<-s.wake
		if s.window > 0 {
			s.mu.Lock()
			stopping := s.stopping
			s.mu.Unlock()
			if !stopping {
				time.Sleep(s.window)
			}
		}
		for {
			s.mu.Lock()
			if len(s.pending) == 0 {
				stop := s.stopping
				s.mu.Unlock()
				if stop {
					return
				}
				break
			}
			batch := s.pending
			s.pending = s.spare[:0]
			s.mu.Unlock()
			s.applyBatch(batch)
			clear(batch) // drop op references (flows, done chans)
			s.spare = batch[:0]
		}
	}
}

// applyBatch chunks a drained queue by MaxBatch and applies each chunk
// as one price + publish cycle.
func (s *shard) applyBatch(batch []op) {
	for start := 0; start < len(batch); {
		end := len(batch)
		if s.maxBatch > 0 && end-start > s.maxBatch {
			end = start + s.maxBatch
		}
		s.applyChunk(batch[start:end])
		start = end
	}
}

// applyChunk applies one batch: every event mutates the live flow set
// in queue order (with per-event admission), then one live-instance
// update + CentralizedDelta prices the whole batch and the result is
// published as one new snapshot. Event order equals enqueue order
// equals the order a sequential caller would have applied, and every
// solve is a pure function of the final flow set, so batch-final
// shares are byte-identical to one-at-a-time application.
//
// Commit protocol when the shard is durable: apply in memory → price →
// append the batch (events + verdicts + next epoch) to the WAL, fsync
// per policy → publish the snapshot → ack the clients. A WAL append
// failure rolls the batch back and fails its clients (the engine
// never acks state it cannot recover); a crash between append and ack
// replays the batch on recovery, so an acked event always survives
// and an unacked one is in exactly one of {applied, lost} — the same
// two outcomes any client of a crashing server must already handle.
func (s *shard) applyChunk(ops []op) {
	s.stats.Batches++
	s.rollback = append(s.rollback[:0], s.flows...)
	rollbackLoad := s.wvLoad
	rollbackStats := s.stats
	accepted := 0
	for i := range ops {
		o := &ops[i]
		o.err = s.applyOne(o)
		if o.err == nil && o.kind != opFlush {
			accepted++
		}
	}
	changed := accepted > 0
	if changed {
		shares, err := s.price()
		if err == nil && s.dlog != nil {
			err = s.logBatch(ops)
		}
		if err != nil {
			// Roll the flow set and counters back and fail every event
			// that had been accepted into this batch; the published
			// snapshot still describes the last good state.
			s.flows = append(s.flows[:0], s.rollback...)
			s.wvLoad = rollbackLoad
			s.stats = rollbackStats
			clear(s.index)
			for i, f := range s.flows {
				s.index[f.ID()] = i
			}
			for i := range ops {
				o := &ops[i]
				if o.err == nil && o.kind != opFlush {
					o.err = err
				}
			}
			changed = false
		} else {
			s.publish(shares)
			s.sinceSnap += accepted
			s.maybeSnapshot()
		}
	}
	if !changed {
		// Flush-only (or rolled-back) batch: republish the same shares
		// and epoch with refreshed counters.
		old := s.snap.Load()
		s.stats.Flows = uint64(len(s.flows))
		s.snap.Store(&Snapshot{Epoch: old.Epoch, Shares: old.Shares, Stats: s.stats})
	}
	// Commit routing for every non-flush op — even rejected ones, whose
	// enqueue-time routes must be retired. Pure-flush batches change no
	// membership and skip the directory copy.
	for i := range ops {
		if ops[i].kind != opFlush {
			s.eng.commitDirectory(s, ops)
			break
		}
	}
	for i := range ops {
		if ops[i].done != nil {
			ops[i].done <- ops[i].err
		}
	}
}

// applyOne applies one event to the live flow set, enforcing admission
// deterministically in event order. It is a pure function of (live
// set, op), which is what makes batched and sequential application
// agree on every accept/reject decision.
func (s *shard) applyOne(o *op) error {
	switch o.kind {
	case opFlush:
		return nil
	case opRegister:
		id := o.f.ID()
		if _, ok := s.index[id]; ok {
			s.stats.Rejected++
			return fmt.Errorf("%w: %s", ErrDuplicateFlow, id)
		}
		wv := o.f.Weight() * float64(o.f.VirtualLength())
		if s.maxFlows > 0 && len(s.flows) >= s.maxFlows {
			s.stats.Rejected++
			return fmt.Errorf("%w: shard %d at flow cap %d", ErrAdmission, s.id, s.maxFlows)
		}
		if s.minShare > 0 && (s.wvLoad+wv)*s.minShare > 1 {
			s.stats.Rejected++
			return fmt.Errorf("%w: flow %s would push the basic share below %g (shard load Σw·v=%.3f)",
				ErrAdmission, id, s.minShare, s.wvLoad+wv)
		}
		s.addFlow(o.f)
		return nil
	case opRemove:
		if !s.removeFlow(o.id) {
			return fmt.Errorf("%w: %s", ErrUnknownFlow, o.id)
		}
		return nil
	}
	return fmt.Errorf("serve: unknown op kind %d", o.kind)
}

// addFlow appends f, which must not be live, to the live flow set and
// counts one accepted register event.
func (s *shard) addFlow(f *flow.Flow) {
	s.index[f.ID()] = len(s.flows)
	s.flows = append(s.flows, f)
	s.wvLoad += f.Weight() * float64(f.VirtualLength())
	s.stats.Registers++
	s.stats.Events++
}

// removeFlow deletes flow id from the live flow set, keeping the
// registration order of the rest, and counts one accepted remove
// event. It reports false, changing nothing, when id is not live.
func (s *shard) removeFlow(id flow.ID) bool {
	i, ok := s.index[id]
	if !ok {
		return false
	}
	f := s.flows[i]
	s.wvLoad -= f.Weight() * float64(f.VirtualLength())
	copy(s.flows[i:], s.flows[i+1:])
	s.flows = s.flows[:len(s.flows)-1]
	delete(s.index, id)
	for j := i; j < len(s.flows); j++ {
		s.index[s.flows[j].ID()] = j
	}
	s.stats.Removes++
	s.stats.Events++
	return true
}

// price solves the current flow set — the live instance updated by
// the flows the batch added and removed, one CentralizedDelta that
// re-solves only the contending groups the batch actually changed —
// without publishing anything. The live instance follows s.flows
// wherever it goes, rollbacks and recovery included, because each
// update diffs against whatever the last one saw. A batch that empties
// the shard prices to the shared empty share map without solving.
func (s *shard) price() (core.FlowAllocation, error) {
	shares := emptyShares
	if len(s.flows) > 0 {
		set, err := flow.NewSet(s.flows...)
		if err != nil {
			return nil, err
		}
		inst := s.live.Update(set)
		alloc, d, err := s.alloc.CentralizedDelta(inst, s.opts)
		if err != nil {
			return nil, err
		}
		s.stats.GroupsSolved += uint64(d.Solved)
		s.stats.GroupsReused += uint64(d.Reused)
		s.stats.CacheEvictions += uint64(d.Evicted)
		shares = alloc
	}
	s.stats.Rebuilds++
	return shares, nil
}

// publish bumps the epoch and swaps in the new snapshot. In a durable
// shard this runs strictly after the batch's WAL append succeeds.
func (s *shard) publish(shares core.FlowAllocation) {
	s.stats.Epoch++
	s.stats.Flows = uint64(len(s.flows))
	s.snap.Store(&Snapshot{Epoch: s.stats.Epoch, Shares: shares, Stats: s.stats})
}

// logBatch appends the batch's events — accepted and rejected alike,
// each with its verdict — to the shard's WAL under the epoch the batch
// is about to publish. Rejected events are logged so the admission
// counters replay exactly, but recovery re-applies accepted ones only.
func (s *shard) logBatch(ops []op) error {
	s.walRec.Epoch = s.stats.Epoch + 1
	evs := s.walRec.Events[:0]
	for i := range ops {
		o := &ops[i]
		if o.kind == opFlush {
			continue
		}
		ev := durable.Event{ID: o.id}
		if o.err != nil {
			ev.Verdict = durable.Rejected
		}
		if o.kind == opRegister {
			ev.Kind = durable.EventRegister
			ev.ID = o.f.ID()
			ev.Weight = o.f.Weight()
			ev.Path = o.f.Path()
		} else {
			ev.Kind = durable.EventRemove
		}
		evs = append(evs, ev)
	}
	s.walRec.Events = evs
	if err := s.dlog.AppendBatch(&s.walRec); err != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrWAL, s.id, err)
	}
	s.stats.WALBatches++
	return nil
}

// maybeSnapshot writes a durable snapshot (and compacts the WAL) once
// enough accepted events have landed since the last one. A snapshot
// failure is survivable — the WAL still covers everything — so it is
// counted, not fatal.
func (s *shard) maybeSnapshot() {
	if s.dlog == nil || s.snapEvery <= 0 || s.sinceSnap < s.snapEvery {
		return
	}
	s.writeDurableSnapshot()
}

// writeDurableSnapshot captures the committed flow set + counters into
// the shard's snapshot file. Called on cadence and from Close.
func (s *shard) writeDurableSnapshot() {
	snap := durable.Snapshot{
		Epoch:    s.stats.Epoch,
		Counters: s.stats.counters(),
		Flows:    make([]durable.FlowState, len(s.flows)),
	}
	for i, f := range s.flows {
		snap.Flows[i] = durable.FlowState{ID: f.ID(), Weight: f.Weight(), Path: f.Path()}
	}
	if err := s.dlog.WriteSnapshot(&snap); err != nil {
		s.stats.SnapshotErrors++
	} else {
		s.stats.Snapshots++
		s.sinceSnap = 0
	}
	// Snapshot counters land after publish; republish the same shares
	// and epoch so Stats() sees them without waiting for the next batch.
	if old := s.snap.Load(); old != nil {
		s.snap.Store(&Snapshot{Epoch: old.Epoch, Shares: old.Shares, Stats: s.stats})
	}
}

// recover rebuilds the shard's worker state from its log: restore the
// snapshot's flow set and counters, replay the WAL tail batches in
// commit order (accepted events only — verdicts were decided before
// the crash and are replayed, not re-judged), then re-price once and
// publish at the recovered epoch. Because the allocation is a pure
// function of the ordered flow set, that single solve reproduces the
// exact bytes the shard had published before the crash. It reports
// how many WAL tail batches were replayed.
func (s *shard) recover() (int, error) {
	snap, batches := s.dlog.Recovered()
	if snap == nil && len(batches) == 0 {
		return 0, nil
	}
	if snap != nil {
		for _, fs := range snap.Flows {
			f, err := flow.New(fs.ID, fs.Weight, fs.Path)
			if err != nil {
				return 0, fmt.Errorf("shard %d: snapshot flow %s: %w", s.id, fs.ID, err)
			}
			if _, dup := s.index[f.ID()]; dup {
				return 0, fmt.Errorf("%w: shard %d: snapshot repeats flow %s", durable.ErrCorrupt, s.id, f.ID())
			}
			s.addFlow(f)
		}
		// The snapshot's counters already count its flows' registers, so
		// they replace what the adds counted.
		s.stats = ShardStats{}
		s.stats.restoreCounters(snap.Counters)
	}
	for _, rec := range batches {
		for _, ev := range rec.Events {
			if ev.Verdict == durable.Rejected {
				if ev.Kind == durable.EventRegister {
					s.stats.Rejected++
				}
				continue
			}
			switch ev.Kind {
			case durable.EventRegister:
				f, err := flow.New(ev.ID, ev.Weight, ev.Path)
				if err != nil {
					return 0, fmt.Errorf("shard %d: WAL flow %s: %w", s.id, ev.ID, err)
				}
				if _, dup := s.index[f.ID()]; dup {
					return 0, fmt.Errorf("%w: shard %d: WAL re-registers live flow %s", durable.ErrCorrupt, s.id, f.ID())
				}
				s.addFlow(f)
			case durable.EventRemove:
				if !s.removeFlow(ev.ID) {
					return 0, fmt.Errorf("%w: shard %d: WAL removes unknown flow %s", durable.ErrCorrupt, s.id, ev.ID)
				}
			}
		}
		s.stats.Batches++
		s.stats.WALBatches++
		s.stats.Epoch = rec.Epoch - 1 // publish() below bumps to rec.Epoch
	}
	shares, err := s.price()
	if err != nil {
		return 0, fmt.Errorf("shard %d: recovery solve: %w", s.id, err)
	}
	if len(batches) > 0 {
		s.publish(shares)
	} else {
		// Snapshot only, empty WAL tail: publish at the snapshot epoch
		// without inventing a new one.
		s.stats.Flows = uint64(len(s.flows))
		s.snap.Store(&Snapshot{Epoch: s.stats.Epoch, Shares: shares, Stats: s.stats})
	}
	return len(batches), nil
}
