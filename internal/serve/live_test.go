package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
)

// denseChurner drives register/remove batches into an engine over the
// dense scenario.Random shape and mirrors the committed flow list in
// registration order, the order the shard prices in.
type denseChurner struct {
	t       *testing.T
	rng     *rand.Rand
	sc      *scenario.Scenario
	flows   []*flow.Flow // committed, registration order
	next    int
	batches int
}

// batch enqueues a batch of registers and removes (removals from
// anywhere and, with pairs, flows registered and removed in one batch),
// flushes, and returns each op's error in order, applying accepted ops
// to the mirror.
func (c *denseChurner) batch(e *Engine, pairs bool) []error {
	type pending struct {
		register bool
		spec     FlowSpec
		id       flow.ID
		done     <-chan error
	}
	var ops []pending
	live := slices.Clone(c.flows)
	for k := c.rng.Intn(3); k > 0 && len(live) > 0; k-- {
		i := c.rng.Intn(len(live))
		ops = append(ops, pending{id: live[i].ID()})
		live = slices.Delete(live, i, i+1)
	}
	all := c.sc.Flows.Flows()
	for k := 1 + c.rng.Intn(3); k > 0 && len(live)+k <= 18; k-- {
		spec := FlowSpec{ID: flow.ID(fmt.Sprintf("d%d", c.next)), Weight: 1, Path: all[c.rng.Intn(len(all))].Path()}
		c.next++
		ops = append(ops, pending{register: true, spec: spec})
		if pairs && c.rng.Intn(4) == 0 {
			ops = append(ops, pending{id: spec.ID})
		}
	}
	for i := range ops {
		if ops[i].register {
			ops[i].done = e.RegisterAsync(ops[i].spec)
		} else {
			ops[i].done = e.RemoveAsync(ops[i].id)
		}
	}
	if err := e.Flush(); err != nil {
		c.t.Fatal(err)
	}
	errs := make([]error, len(ops))
	for i, o := range ops {
		errs[i] = <-o.done
		if errs[i] != nil {
			continue
		}
		if o.register {
			f, err := flow.New(o.spec.ID, o.spec.Weight, o.spec.Path)
			if err != nil {
				c.t.Fatal(err)
			}
			c.flows = append(c.flows, f)
		} else {
			c.flows = slices.DeleteFunc(c.flows, func(f *flow.Flow) bool { return f.ID() == o.id })
		}
	}
	c.batches++
	return errs
}

// check demands the engine's published shares equal a fresh
// Allocator.Centralized over the mirrored flow list, bit for bit.
func (c *denseChurner) check(e *Engine, stage string) {
	c.t.Helper()
	want := core.FlowAllocation{}
	if len(c.flows) > 0 {
		set, err := flow.NewSet(c.flows...)
		if err != nil {
			c.t.Fatal(err)
		}
		inst, err := core.NewInstance(c.sc.Topo, set)
		if err != nil {
			c.t.Fatal(err)
		}
		if want, err = core.NewAllocatorWorkers(1).Centralized(inst, core.CentralizedOptions{Refine: true}); err != nil {
			c.t.Fatal(err)
		}
	}
	got, _ := e.Shares()
	if len(got) != len(want) {
		c.t.Fatalf("batch %d %s: %d shares, want %d", c.batches, stage, len(got), len(want))
	}
	for id, x := range want {
		if g, ok := got[id]; !ok || math.Float64bits(g) != math.Float64bits(x) {
			c.t.Fatalf("batch %d %s: flow %s share %v, want %v", c.batches, stage, id, g, x)
		}
	}
}

// TestLiveInstanceRollbackAndRecovery pins the shard's live instance
// to its flow list through the two paths that move the list without a
// normal commit. A WAL append cut mid-churn fails its batch and rolls
// s.flows back while the live instance has already absorbed the
// batch; the batches after it (with logging switched off on the dead
// shard) must still price exactly. A crash then recovers the durable
// prefix, and recover() builds the live instance from the replayed
// flows; churn on the recovered engine must price exactly too.
func TestLiveInstanceRollbackAndRecovery(t *testing.T) {
	sc, err := scenario.Random(scenario.RandomConfig{
		Nodes: 100, Flows: 30, Width: 1300, Height: 1300, MaxHops: 6,
	}, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	c := &denseChurner{t: t, rng: rand.New(rand.NewSource(1)), sc: sc}
	dir := t.TempDir()
	opts := durable.Options{Policy: durable.FsyncNever}
	store, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Topo: sc.Topo, Durable: store})
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumShards() != 1 {
		t.Fatalf("dense shape has %d shards, want 1", eng.NumShards())
	}
	s := eng.shards[0]
	for i := 0; i < 8; i++ {
		c.batch(eng, true)
		c.check(eng, "durable churn")
	}

	// Cut the next append a few bytes in: the batch fails with ErrWAL
	// and rolls back, and the published shares stay on the last commit.
	// The batch pairs no register with a remove, so every op fails with
	// ErrWAL however the worker splits it (the log stays dead).
	s.dlog.FailAfter(s.dlog.Size() + 3)
	committed := slices.Clone(c.flows)
	for i, err := range c.batch(eng, false) {
		if !errors.Is(err, ErrWAL) {
			t.Fatalf("op %d of the cut batch: got %v, want ErrWAL", i, err)
		}
	}
	c.check(eng, "after WAL failure")

	// Stop logging on the dead shard (Flush above ordered this write
	// before the worker's next read) so later batches commit again.
	dead := s.dlog
	s.dlog = nil
	for i := 0; i < 6; i++ {
		c.batch(eng, true)
		c.check(eng, "after rollback")
	}
	eng.crash()
	dead.Close()

	// Recovery replays the durable prefix — everything committed before
	// the cut — and prices it from a live instance built from empty.
	store2, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := New(Config{Topo: sc.Topo, Durable: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	c.flows = committed
	c.check(eng2, "recovered")
	for i := 0; i < 6; i++ {
		c.batch(eng2, true)
		c.check(eng2, "after recovery")
	}
}
