// Package serve is the high-throughput serving core on top of the
// allocation engine: a long-lived flow registry that accepts
// register/remove churn, coalesces it into batches, re-solves the
// paper's per-clique fair-share LP through core.Allocator's
// churn-delta seam, and publishes the resulting shares as immutable
// lock-free snapshots.
//
// Three structural ideas carry the throughput:
//
//   - Churn-batch coalescing. Register/remove requests queue into a
//     per-shard batch window and are applied as ONE flow-set mutation +
//     live-instance update + CentralizedDelta per batch, amortizing the
//     contention update and group-LP solves across k events. Because
//     the allocation is a pure function of the live flow set (and the
//     group-share cache returns bit-exact vectors), batch-final shares
//     are byte-identical to applying the same events one at a time —
//     pinned by the seeded equivalence property test.
//
//   - Lock-free share snapshots. Each commit publishes an immutable
//     epoch-stamped Snapshot behind an atomic.Pointer (RCU-style swap),
//     and flow→shard routing is a copy-on-write map swapped the same
//     way, so GetShare/Stats take no locks and allocate nothing under
//     any reader count.
//
//   - Shard ownership per contention component. Live flows are
//     partitioned by the topology's interference-closed radio
//     components (topology.AppendRadioComponents): flows in different
//     components can never contend (the same block-diagonal structure
//     the core's per-group LPs exploit within a shard), so each
//     component batches, solves and publishes on its own worker
//     pipeline with its own core.Allocator — the one-allocator-per-
//     shard idiom the core package's concurrency contract requires.
//
// Admission control composes at two layers: the engine applies
// deterministic per-event checks (per-shard flow cap, and a
// Ganesan-style clique-capacity floor on the basic share), while the
// HTTP edge in cmd/fairallocd adds a clique-capacity token bucket; see
// TokenBucket.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

var (
	// ErrClosed is returned for operations on a closed (draining or
	// drained) engine.
	ErrClosed = errors.New("serve: engine closed")
	// ErrUnknownFlow is returned by Remove for a flow that is not
	// registered.
	ErrUnknownFlow = errors.New("serve: unknown flow")
	// ErrDuplicateFlow is returned by Register when the ID is already
	// live (or pending) anywhere in the engine.
	ErrDuplicateFlow = errors.New("serve: duplicate flow")
	// ErrAdmission is returned by Register when an admission check
	// rejects the flow; use errors.Is and read the message for the
	// specific check.
	ErrAdmission = errors.New("serve: admission rejected")
	// ErrBadFlow wraps validation failures of a FlowSpec (unknown
	// nodes, non-link hops, shortcut paths, non-positive weight).
	ErrBadFlow = errors.New("serve: invalid flow")
	// ErrWAL wraps write-ahead-log append failures on a durable engine.
	// Events failed with it were rolled back, never acked, and will not
	// survive a restart.
	ErrWAL = errors.New("serve: write-ahead log append failed")
)

// FlowSpec describes one flow to register: an engine-unique ID, a
// positive weight w_i, and a path of topology node IDs where every hop
// is a radio link (the same validation core.NewInstance applies).
type FlowSpec struct {
	ID     flow.ID
	Weight float64
	Path   []topology.NodeID
}

// Config configures an Engine. The zero value of every field is a
// usable default except Topo, which is required.
type Config struct {
	// Topo is the immutable radio topology flows are registered over.
	Topo *topology.Topology

	// Window is how long a shard worker waits after the first queued
	// event before applying, letting concurrent churn coalesce into one
	// batch. 0 means drain-greedy: the worker applies whatever queued
	// while it was busy, which already batches under load and adds no
	// idle latency.
	Window time.Duration

	// MaxBatch caps events applied per price cycle; 0 = unlimited.
	MaxBatch int

	// Workers is the LP worker count of each shard's core.Allocator
	// (the within-shard group fan-out); 0 or 1 = sequential.
	Workers int

	// CacheCap bounds each shard allocator's group-share cache;
	// 0 = core.DefaultGroupCacheCap.
	CacheCap int

	// NoRefine disables the lexicographic max-min refinement. The
	// default (refined) matches the paper's deterministic solutions and
	// Allocator.Centralized with Refine: true.
	NoRefine bool

	// MaxFlows rejects registers once a shard holds this many live
	// flows; 0 = unlimited.
	MaxFlows int

	// MinShare, when positive, is the admission floor on the basic
	// share: a register is rejected if it would push the conservative
	// per-shard basic share w/Σ w_j·v_j of a weight-1 flow below
	// MinShare. Σ w_j·v_j bounds every clique's weighted occupancy
	// (each clique holds at most v_i subflows of flow i, Sec. II-D), so
	// this is the clique-capacity admission test of Ganesan's
	// distributed scheme evaluated at the shard level — conservative
	// across a shard with several contending groups, exact within one.
	MinShare float64

	// Durable, when non-nil, makes the engine persistent: each shard
	// write-ahead-logs its batches before publishing and New recovers
	// the flow set (snapshot + WAL tail replay, one re-price) from the
	// store's data directory. nil keeps the engine fully volatile with
	// the exact pre-durability behavior and read-path allocation
	// profile.
	Durable *durable.Store
}

// RecoveryInfo summarizes what New rebuilt from a durable store.
type RecoveryInfo struct {
	// Flows is the number of live flows restored (snapshot flows plus
	// accepted WAL-tail registers minus removes).
	Flows int
	// Batches is the number of WAL tail batches replayed on top of the
	// snapshots.
	Batches int
	// Epoch is the sum of recovered shard epochs (the same coarse
	// global version Shares reports).
	Epoch uint64
}

// Engine is the serving core: a sharded flow registry with batched
// allocation and lock-free reads. Construct with New, feed it churn
// with Register/Remove (or their Async forms), read with GetShare /
// Shares / Stats, and shut down with Close. All methods are safe for
// concurrent use; reads never block on writes.
type Engine struct {
	topo    *topology.Topology
	shardOf []int32 // NodeID → shard index
	shards  []*shard

	// route maps flow ID → owning shard from register-enqueue time
	// until the flow is removed (or its register fails), so removes can
	// target flows still pending in a batch window. Per-flow operation
	// order is guaranteed for a client issuing them sequentially;
	// concurrent clients racing on one ID get first-wins semantics.
	route sync.Map // flow.ID → *shard

	// dir is the committed-flow directory for the read path: an
	// immutable map swapped copy-on-write under dirMu on each batch
	// commit that changes membership. Readers load and index it with a
	// typed key — no boxing, no locks, no allocation.
	dir   atomic.Pointer[directory]
	dirMu sync.Mutex

	// store is the attached durable store (nil when volatile) and
	// recovery what New rebuilt from it.
	store    *durable.Store
	recovery RecoveryInfo

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// directory maps committed flow IDs to their owning shard.
type directory map[flow.ID]*shard

// New builds an engine over the topology: one shard (batch queue,
// worker goroutine, core.Allocator, snapshot) per interference-closed
// radio component. The topology must be non-empty and is never
// mutated; it may be shared with other readers.
func New(cfg Config) (*Engine, error) {
	if cfg.Topo == nil || cfg.Topo.NumNodes() == 0 {
		return nil, fmt.Errorf("serve: config needs a non-empty topology")
	}
	var cs topology.RadioComponentSet
	cfg.Topo.AppendRadioComponents(&cs)
	e := &Engine{
		topo:    cfg.Topo,
		shardOf: make([]int32, cfg.Topo.NumNodes()),
		shards:  make([]*shard, cs.Len()),
	}
	empty := make(directory)
	e.dir.Store(&empty)
	for c := range e.shards {
		for _, n := range cs.Component(c) {
			e.shardOf[n] = int32(c)
		}
		e.shards[c] = newShard(e, c, cfg)
	}
	if cfg.Durable != nil {
		if err := e.attachAndRecover(cfg.Durable); err != nil {
			return nil, err
		}
	}
	for _, s := range e.shards {
		e.wg.Add(1)
		go s.loop()
	}
	return e, nil
}

// attachAndRecover binds the durable store to the engine's shards and
// replays each shard's snapshot + WAL tail before any worker starts:
// until New returns, no share is readable and no churn is accepted, so
// recovery is single-threaded and race-free by construction.
func (e *Engine) attachAndRecover(store *durable.Store) error {
	logs, err := store.Attach(len(e.shards), e.topo.AdjacencyFingerprint())
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fail := func(err error) error {
		for _, sl := range logs {
			sl.Close()
		}
		store.Detach()
		return err
	}
	nd := make(directory)
	for i, s := range e.shards {
		s.dlog = logs[i]
		s.snapEvery = store.SnapshotEvery()
		n, err := s.recover()
		if err != nil {
			return fail(fmt.Errorf("serve: recovery: %w", err))
		}
		e.recovery.Batches += n
		e.recovery.Flows += len(s.flows)
		e.recovery.Epoch += s.stats.Epoch
		for _, f := range s.flows {
			nd[f.ID()] = s
			e.route.Store(f.ID(), s)
		}
	}
	e.dir.Store(&nd)
	e.store = store
	return nil
}

// Recovery reports what New rebuilt from the durable store; the zero
// value means a volatile engine or an empty data directory.
func (e *Engine) Recovery() RecoveryInfo { return e.recovery }

// NumShards returns the number of radio-component shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// prepare validates a spec and resolves its owning shard. Path
// validation here mirrors core.NewInstance exactly, which is why the
// shard's live instance never re-validates a flow the engine accepted.
func (e *Engine) prepare(spec FlowSpec) (*flow.Flow, *shard, error) {
	if err := routing.ValidatePath(e.topo, spec.Path); err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrBadFlow, spec.ID, err)
	}
	f, err := flow.New(spec.ID, spec.Weight, spec.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadFlow, err)
	}
	// Consecutive path nodes are within tx range ⊆ interference range,
	// so the whole path lives in one radio component by construction.
	return f, e.shards[e.shardOf[spec.Path[0]]], nil
}

// RegisterAsync validates the flow and queues it for the owning
// shard's next batch. The returned channel receives exactly one value:
// nil once the flow's shares are published, or the typed error that
// rejected it (ErrBadFlow, ErrDuplicateFlow, ErrAdmission, ErrClosed).
func (e *Engine) RegisterAsync(spec FlowSpec) <-chan error {
	done := make(chan error, 1)
	f, sh, err := e.prepare(spec)
	if err != nil {
		done <- err
		return done
	}
	if err := sh.enqueueRegister(&e.route, op{kind: opRegister, id: f.ID(), f: f, done: done}); err != nil {
		done <- err
	}
	return done
}

// Register is RegisterAsync, awaited: it returns once the flow's
// shares are readable via GetShare (or with the rejection error).
func (e *Engine) Register(spec FlowSpec) error {
	return <-e.RegisterAsync(spec)
}

// RemoveAsync queues removal of a flow. The returned channel receives
// nil once the removal is committed, ErrUnknownFlow if no such flow is
// live or pending, or ErrClosed.
func (e *Engine) RemoveAsync(id flow.ID) <-chan error {
	done := make(chan error, 1)
	v, ok := e.route.Load(id)
	if !ok {
		done <- fmt.Errorf("%w: %s", ErrUnknownFlow, id)
		return done
	}
	sh := v.(*shard)
	if !sh.enqueue(op{kind: opRemove, id: id, done: done}) {
		done <- ErrClosed
	}
	return done
}

// Remove is RemoveAsync, awaited.
func (e *Engine) Remove(id flow.ID) error {
	return <-e.RemoveAsync(id)
}

// Flush forces every shard through one batch cycle and returns when
// all events enqueued before the call are committed. A flush of an
// idle engine is the "empty batch" case: no price cycle runs, no epoch
// advances, published shares are untouched.
func (e *Engine) Flush() error {
	dones := make([]<-chan error, 0, len(e.shards))
	for _, sh := range e.shards {
		done := make(chan error, 1)
		if !sh.enqueue(op{kind: opFlush, done: done}) {
			done <- ErrClosed
		}
		dones = append(dones, done)
	}
	var first error
	for _, done := range dones {
		if err := <-done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close drains and stops the engine: new operations are rejected with
// ErrClosed, every already-queued event is applied and committed, and
// all shard workers exit before Close returns. On a durable engine it
// then writes a final snapshot per shard (compacting the WALs, so the
// next boot restores without replay) and releases the store.
// Idempotent.
func (e *Engine) Close() { e.shutdown(true) }

// crash is Close without the final snapshots: workers stop, file
// handles close, but the data directory is left exactly as the last
// committed append wrote it — the disk state a kill -9 leaves behind.
// Test-only seam for the crash-recovery property tests.
func (e *Engine) crash() { e.shutdown(false) }

func (e *Engine) shutdown(final bool) {
	e.closeOnce.Do(func() {
		for _, s := range e.shards {
			s.mu.Lock()
			s.stopping = true
			s.mu.Unlock()
			s.wakeUp()
		}
		e.wg.Wait()
		for _, s := range e.shards {
			if s.dlog == nil {
				continue
			}
			if final {
				// Workers have exited; the worker-owned state is ours.
				s.writeDurableSnapshot()
			}
			s.dlog.Close()
		}
		if e.store != nil {
			e.store.Detach()
		}
	})
}

// GetShare returns flow id's published share (as a fraction of B) and
// the owning shard's snapshot epoch. ok is false when the flow is not
// in any committed snapshot — unknown, rejected, or still pending in a
// batch window. The read path is lock-free and allocation-free: one
// copy-on-write directory load plus one immutable-snapshot load.
func (e *Engine) GetShare(id flow.ID) (share float64, epoch uint64, ok bool) {
	sh, found := (*e.dir.Load())[id]
	if !found {
		return 0, 0, false
	}
	snap := sh.snap.Load()
	share, ok = snap.Shares[id]
	return share, snap.Epoch, ok
}

// Snapshot returns shard i's current immutable snapshot. Callers must
// not mutate the Shares map.
func (e *Engine) Snapshot(i int) *Snapshot {
	return e.shards[i].snap.Load()
}

// Shares merges every shard's published shares into one freshly
// allocated map, with the sum of shard epochs as a coarse global
// version. Intended for bulk export (the daemon's GET /v1/shares);
// point reads should use GetShare.
func (e *Engine) Shares() (core.FlowAllocation, uint64) {
	out := make(core.FlowAllocation)
	var epoch uint64
	for _, sh := range e.shards {
		snap := sh.snap.Load()
		epoch += snap.Epoch
		for id, x := range snap.Shares {
			out[id] = x
		}
	}
	return out, epoch
}

// Stats sums every shard's committed counters. Like GetShare it is
// lock-free and allocation-free: it reads only published snapshots.
func (e *Engine) Stats() Stats {
	var st Stats
	st.Shards = uint64(len(e.shards))
	for _, sh := range e.shards {
		s := &sh.snap.Load().Stats
		st.Epoch += s.Epoch
		st.Batches += s.Batches
		st.Events += s.Events
		st.Registers += s.Registers
		st.Removes += s.Removes
		st.Rejected += s.Rejected
		st.Rebuilds += s.Rebuilds
		st.GroupsSolved += s.GroupsSolved
		st.GroupsReused += s.GroupsReused
		st.CacheEvictions += s.CacheEvictions
		st.Flows += s.Flows
		st.WALBatches += s.WALBatches
		st.Snapshots += s.Snapshots
		st.SnapshotErrors += s.SnapshotErrors
	}
	return st
}

// commitDirectory swaps in a new copy-on-write directory reflecting a
// shard's committed membership changes, and retires enqueue-time
// routes for flows that ended the batch dead. The copy is O(live
// flows) but runs once per membership-changing batch, amortized across
// the batch's events; per-shard share snapshots never pay it.
func (e *Engine) commitDirectory(s *shard, ops []op) {
	e.dirMu.Lock()
	old := *e.dir.Load()
	nd := make(directory, len(old)+len(ops))
	for id, sh := range old {
		nd[id] = sh
	}
	for i := range ops {
		o := &ops[i]
		if o.kind == opFlush {
			continue
		}
		if _, live := s.index[o.id]; live {
			nd[o.id] = s
		} else {
			delete(nd, o.id)
		}
	}
	e.dir.Store(&nd)
	e.dirMu.Unlock()
	// A dead ID keeps its route while a later register of it is still
	// uncommitted; enqueueRegister counts those under the same lock.
	s.mu.Lock()
	for i := range ops {
		if o := &ops[i]; o.kind == opRegister {
			if s.uncommitted[o.id]--; s.uncommitted[o.id] == 0 {
				delete(s.uncommitted, o.id)
			}
		}
	}
	for i := range ops {
		o := &ops[i]
		if o.kind == opFlush {
			continue
		}
		if _, live := s.index[o.id]; !live && s.uncommitted[o.id] == 0 {
			e.route.CompareAndDelete(o.id, s)
		}
	}
	s.mu.Unlock()
}
