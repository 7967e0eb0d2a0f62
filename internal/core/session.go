package core

import (
	"runtime"
	"sync/atomic"

	"e2efair/internal/lp"
)

// session bundles one reusable lp.Solver with the scratch it needs to
// run the phase-1 algorithms without per-solve allocation churn: the
// lp.Problem a group is loaded into and edited through its refinement,
// a reusable Solution, row scratch, and copy buffers for the floor
// LP's consistent optimal point and its dual-certified blocking flows.
//
// A session is not safe for concurrent use; Allocator gives each
// worker its own.
type session struct {
	solver *lp.Solver
	sol    lp.Solution
	prob   lp.Problem

	// The loaded group's clique rows, basic shares, weights (scaled,
	// see scaleWeights) and t0 = max basic_i/w_i, and which flows'
	// columns stand for x_i − w_i·t.
	rows           [][]float64
	basic, weights []float64
	t0             float64
	inT            []bool

	buf    []float64 // one constraint row or column
	scaled []float64 // a local LP's weights, scaled (see solveLocal)

	point    []float64
	blocking []bool

	// observer, when set, sees every program the session solves and
	// its solution; tests use it to re-solve each one cold.
	observer func(*lp.Problem, *lp.Solution)
}

func newSession() *session {
	return &session{solver: lp.NewSolver()}
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
// never run concurrently with each other. (Internally Centralized fans
// group LPs out across the worker sessions; that fan-out is the
// Allocator's own and does not change the external contract.)
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
	cache        *groupLRU
	pending      []int     // scratch: group indices missing from the cache
	flowWeights  []float64 // scratch: 2PA-D's scaled flow weights
	localWeights []float64 // scratch: one 2PA-D local LP's scaled weights

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

// NewAllocator returns an Allocator sized to the machine: Centralized
// shards group LPs across up to GOMAXPROCS workers.
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
