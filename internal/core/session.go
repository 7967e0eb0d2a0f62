package core

import (
	"runtime"
	"sync/atomic"

	"e2efair/internal/lp"
)

// session bundles one reusable lp.Solver with the scratch it needs to
// run the phase-1 algorithms without per-solve allocation churn: one
// lp.Problem every LP is rebuilt in, a reusable Solution, the reduced
// form's column and row scratch, and copy buffers for the floor LP's
// consistent optimal point and its dual-certified blocking flows.
//
// A session is not safe for concurrent use; Allocator gives each
// worker its own.
type session struct {
	solver *lp.Solver
	sol    lp.Solution
	prob   lp.Problem

	col    []int     // reduced column per flow, −1 when frozen
	shift  []float64 // per-flow shift of the reduced form
	floor  []float64 // probe floors
	buf    []float64 // one constraint row
	probed int       // flow the probe objective selects, or −1

	point    []float64
	blocking []bool
}

func newSession() *session {
	return &session{solver: lp.NewSolver()}
}

// maximizeTotal solves max Σ x_i subject to rows·x ≤ 1 and x ≥ basic,
// substituted as y_i = x_i − basic_i so the floors become the implicit
// y ≥ 0 bounds: when the floors fit every clique the program is
// pure-LE with nonnegative right-hand sides, the slack basis is
// feasible, and phase 1 has no artificials to drive out. Floors that
// do not fit flip a row's normalized sense, and phase 1 reports
// ErrInfeasible exactly as the unshifted form would. The returned
// slice aliases the session's solution scratch and is valid only until
// the next solve on this session.
func (s *session) maximizeTotal(rows [][]float64, basic []float64) ([]float64, float64, error) {
	n := len(basic)
	s.prob.Reset(n)
	for i := 0; i < n; i++ {
		if err := s.prob.SetObjectiveCoeff(i, 1); err != nil {
			return nil, 0, err
		}
	}
	for _, row := range rows {
		rhs := 1.0
		for i, a := range row {
			rhs -= a * basic[i]
		}
		if err := s.prob.AddLE(row, rhs); err != nil {
			return nil, 0, err
		}
	}
	if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
		return nil, 0, err
	}
	var off float64
	for i, b := range basic {
		s.sol.X[i] += b
		off += b
	}
	return s.sol.X, s.sol.Objective + off, nil
}

// Allocator owns the reusable solver state behind the phase-1
// algorithms. One Allocator held across repeated allocations (churn
// re-solves, sweeps) reuses tableau scratch between solves, shards
// group LPs across its worker sessions, and caches each solved group's
// share vector keyed by the exact bits of the group LP — so a churn
// event that perturbs one contention component re-solves only that
// component's group and copies cached bits for the rest. The
// package-level CentralizedAllocate / DistributedAllocate helpers
// construct a fresh one per call.
//
// # Concurrency
//
// An Allocator is single-caller-at-a-time BY DESIGN: its sessions,
// tableau scratch, pending list and share cache are reused across
// calls without synchronization, so methods on one Allocator must
// never run concurrently with each other. (Internally Centralized and
// Distributed fan work out across the worker sessions; that fan-out is
// the Allocator's own and does not change the external contract.)
//
// The supported concurrent idiom is one-allocator-per-shard: give
// every independent worker — a serve.Engine shard, a netsim sweep
// worker, a goroutine in a test — its own Allocator and share nothing.
// Allocators are cheap (a few KB of scratch that grows to the largest
// solve seen), results are bit-identical across instances by
// construction, and the pattern is pinned race-clean by
// TestAllocatorPerShardRace. Builds tagged `e2edebug` additionally arm
// a reentrancy guard that panics when two goroutines enter one
// Allocator at the same time.
type Allocator struct {
	workers  int
	sessions []*session

	// cache is the size-capped LRU mapping a group LP's exact
	// serialized bits (plus the refine flag) to the solved share
	// vector, in group index order. Cached vectors are stored once and
	// never mutated; readers copy.
	cache   *groupLRU
	pending []int // scratch: group indices missing from the cache

	// busy arms the e2edebug reentrancy guard; unused (but kept, so
	// the struct layout is tag-independent) in release builds.
	busy atomic.Int32
}

// groupCacheKey identifies one solved group LP: the exact bits of its
// clique rows, basic floors and weights, plus whether the max-min
// refinement ran. Solutions are pure functions of this key, so equal
// keys may share one cached share vector.
type groupCacheKey struct {
	lp     string
	refine bool
}

// ResetCache drops all cached group solutions (cumulative CacheStats
// counters are kept). Benchmarks use it to measure cold solves;
// allocations never need it for correctness because cache keys capture
// the entire LP.
func (a *Allocator) ResetCache() {
	a.enterGuard()
	defer a.exitGuard()
	a.cache.reset()
}

// SetGroupCacheCap rebounds the group-share cache to at most n
// entries, evicting least-recently-used entries immediately if the
// cache is already larger; n < 1 restores DefaultGroupCacheCap.
// Eviction never changes results — an evicted group is simply solved
// again, bit-identically — so the cap trades memory for re-solve work
// only. Like every other Allocator method it must not race with
// concurrent calls.
func (a *Allocator) SetGroupCacheCap(n int) {
	a.enterGuard()
	defer a.exitGuard()
	a.cache.setCap(n)
}

// CacheStats reports the group-share cache's cumulative hit/miss/evict
// counters and current population.
func (a *Allocator) CacheStats() CacheStats {
	return CacheStats{
		Hits:      a.cache.hits,
		Misses:    a.cache.misses,
		Evictions: a.cache.evictions,
		Entries:   len(a.cache.entries),
		Cap:       a.cache.cap,
	}
}

// NewAllocator returns an Allocator sized to the machine: Distributed
// solves per-node LPs on up to GOMAXPROCS workers.
func NewAllocator() *Allocator {
	return NewAllocatorWorkers(runtime.GOMAXPROCS(0))
}

// NewAllocatorWorkers returns an Allocator with a fixed worker count;
// workers < 1 is treated as 1. Results are bit-identical for every
// worker count.
func NewAllocatorWorkers(workers int) *Allocator {
	if workers < 1 {
		workers = 1
	}
	a := &Allocator{
		workers:  workers,
		sessions: make([]*session, workers),
		cache:    newGroupLRU(DefaultGroupCacheCap),
	}
	for i := range a.sessions {
		a.sessions[i] = newSession()
	}
	return a
}
