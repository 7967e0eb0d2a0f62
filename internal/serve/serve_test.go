package serve

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// TestEmptyBatch pins the empty-batch edge case: a Flush with nothing
// queued runs a batch cycle but neither rebuilds nor advances any
// epoch, and published shares are untouched (same map, not a copy).
func TestEmptyBatch(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 4)
	e, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Register(FlowSpec{ID: "f0", Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot(0)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	after := e.Snapshot(0)
	if after.Epoch != before.Epoch {
		t.Fatalf("empty batch advanced epoch %d -> %d", before.Epoch, after.Epoch)
	}
	if &after.Shares != &before.Shares && len(after.Shares) != len(before.Shares) {
		t.Fatal("empty batch changed shares")
	}
	if after.Stats.Rebuilds != before.Stats.Rebuilds {
		t.Fatal("empty batch ran a rebuild")
	}
	if after.Stats.Batches != before.Stats.Batches+1 {
		t.Fatalf("flush should count one batch: %d -> %d", before.Stats.Batches, after.Stats.Batches)
	}
}

// TestRegisterRemoveSameWindow pins the one-window register+remove
// edge case: both events succeed, the flow never becomes visible, and
// the batch commits exactly one rebuild.
func TestRegisterRemoveSameWindow(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 4)
	// A long window guarantees both events land in one batch.
	e, err := New(Config{Topo: topo, Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Register(FlowSpec{ID: "keep", Weight: 1, Path: ids[0][:2]}); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot(0)

	regDone := e.RegisterAsync(FlowSpec{ID: "blink", Weight: 3, Path: ids[0]})
	remDone := e.RemoveAsync("blink")
	if err := <-regDone; err != nil {
		t.Fatalf("register in shared window: %v", err)
	}
	if err := <-remDone; err != nil {
		t.Fatalf("remove in shared window: %v", err)
	}
	if _, _, ok := e.GetShare("blink"); ok {
		t.Fatal("flow registered+removed in one window is visible")
	}
	after := e.Snapshot(0)
	if after.Stats.Rebuilds != before.Stats.Rebuilds+1 {
		t.Fatalf("want exactly one rebuild for the coalesced window, got %d",
			after.Stats.Rebuilds-before.Stats.Rebuilds)
	}
	if after.Stats.Events != before.Stats.Events+2 {
		t.Fatalf("want 2 events, got %d", after.Stats.Events-before.Stats.Events)
	}
	// The surviving flow's share is unchanged bit-for-bit: the final
	// flow set equals the pre-window set.
	if after.Shares["keep"] != before.Shares["keep"] {
		t.Fatalf("keep's share moved: %v -> %v", before.Shares["keep"], after.Shares["keep"])
	}
}

// TestExtremeWeightSameWindow registers a weight-1e9 flow and a
// weight-1 flow in one window: the shares depend only on the weights'
// ratio, so both registrations succeed and both flows get a share.
func TestExtremeWeightSameWindow(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 4)
	e, err := New(Config{Topo: topo, Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	heavy := e.RegisterAsync(FlowSpec{ID: "heavy", Weight: 1e9, Path: ids[0]})
	light := e.RegisterAsync(FlowSpec{ID: "light", Weight: 1, Path: ids[0][1:]})
	if err := <-heavy; err != nil {
		t.Fatalf("weight-1e9 register: %v", err)
	}
	if err := <-light; err != nil {
		t.Fatalf("weight-1 register in the same window: %v", err)
	}
	for _, id := range []flow.ID{"heavy", "light"} {
		if share, _, ok := e.GetShare(id); !ok || !(share > 0) {
			t.Errorf("%s: share %v, registered %v", id, share, ok)
		}
	}
}

// TestRemoveUnknownFlow pins the typed error for removal of a flow
// that is not (or no longer) registered.
func TestRemoveUnknownFlow(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 3)
	e, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Remove("ghost"); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("want ErrUnknownFlow, got %v", err)
	}
	if err := e.Register(FlowSpec{ID: "f", Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("f"); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("second remove: want ErrUnknownFlow, got %v", err)
	}
}

// TestBatchEmptiesInstance pins the batch-empties-the-instance edge
// case: removing every live flow in one window publishes an empty
// share map at a new epoch without attempting an Instance build (which
// would fail on zero flows).
func TestBatchEmptiesInstance(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 4)
	e, err := New(Config{Topo: topo, Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, id := range []flow.ID{"a", "b"} {
		if err := e.Register(FlowSpec{ID: id, Weight: 1, Path: ids[0][:2]}); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Snapshot(0)
	d1 := e.RemoveAsync("a")
	d2 := e.RemoveAsync("b")
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	if err := <-d2; err != nil {
		t.Fatal(err)
	}
	after := e.Snapshot(0)
	if len(after.Shares) != 0 {
		t.Fatalf("emptied shard still publishes %d shares", len(after.Shares))
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("emptying batch: epoch %d -> %d, want +1", before.Epoch, after.Epoch)
	}
	if all, _ := e.Shares(); len(all) != 0 {
		t.Fatalf("engine still exports %d shares", len(all))
	}
	// The shard accepts flows again afterwards.
	if err := e.Register(FlowSpec{ID: "c", Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := e.GetShare("c"); !ok {
		t.Fatal("re-registered flow not visible")
	}
}

// TestDuplicateAndBadFlow pins rejection typing on the register path.
func TestDuplicateAndBadFlow(t *testing.T) {
	topo, ids := clusteredTopo(t, 2, 4)
	e, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := FlowSpec{ID: "f", Weight: 1, Path: ids[0]}
	if err := e.Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(spec); !errors.Is(err, ErrDuplicateFlow) {
		t.Fatalf("same-shard duplicate: want ErrDuplicateFlow, got %v", err)
	}
	// Same ID on a different component: rejected at the engine edge.
	if err := e.Register(FlowSpec{ID: "f", Weight: 1, Path: ids[1]}); !errors.Is(err, ErrDuplicateFlow) {
		t.Fatalf("cross-shard duplicate: want ErrDuplicateFlow, got %v", err)
	}
	// A cross-cluster hop is not a link.
	bad := FlowSpec{ID: "x", Weight: 1, Path: []topology.NodeID{ids[0][0], ids[1][0]}}
	if err := e.Register(bad); !errors.Is(err, ErrBadFlow) {
		t.Fatalf("non-link hop: want ErrBadFlow, got %v", err)
	}
	if err := e.Register(FlowSpec{ID: "y", Weight: -1, Path: ids[0]}); !errors.Is(err, ErrBadFlow) {
		t.Fatalf("negative weight: want ErrBadFlow, got %v", err)
	}
}

// TestAdmissionChecks pins the deterministic per-op admission layer:
// the per-shard flow cap and the basic-share floor, both typed
// ErrAdmission, and both leaving previously committed flows untouched.
func TestAdmissionChecks(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 4)
	e, err := New(Config{Topo: topo, MaxFlows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(FlowSpec{ID: "a", Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(FlowSpec{ID: "b", Weight: 1, Path: ids[0]}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("flow cap: want ErrAdmission, got %v", err)
	}
	if st := e.Stats(); st.Rejected != 1 {
		t.Fatalf("want 1 rejection counted, got %+v", st)
	}
	e.Close()

	// Basic-share floor: flow "a" (w=1, v=3) loads Σw·v=3; admitting
	// "b" (w=2, v=3) would make the weight-1 basic share 1/9 < 0.2.
	e2, err := New(Config{Topo: topo, MinShare: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Register(FlowSpec{ID: "a", Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}
	share, _, _ := e2.GetShare("a")
	if err := e2.Register(FlowSpec{ID: "b", Weight: 2, Path: ids[0]}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("share floor: want ErrAdmission, got %v", err)
	}
	if got, _, ok := e2.GetShare("a"); !ok || got != share {
		t.Fatalf("rejected register disturbed a committed share: %v -> %v", share, got)
	}
}

// TestClosedEngine pins ErrClosed semantics and that Close drains
// queued work before returning.
func TestClosedEngine(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 4)
	e, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(FlowSpec{ID: "f", Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}
	// Queue one more event, then close: the event must still commit.
	done := e.RegisterAsync(FlowSpec{ID: "g", Weight: 1, Path: ids[0][:2]})
	e.Close()
	if err := <-done; err != nil {
		t.Fatalf("event queued before Close should drain, got %v", err)
	}
	if _, _, ok := e.GetShare("g"); !ok {
		t.Fatal("drained flow not visible after Close")
	}
	if err := e.Register(FlowSpec{ID: "h", Weight: 1, Path: ids[0]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after Close: want ErrClosed, got %v", err)
	}
	if err := e.Remove("f"); !errors.Is(err, ErrClosed) {
		t.Fatalf("remove after Close: want ErrClosed, got %v", err)
	}
	if err := e.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after Close: want ErrClosed, got %v", err)
	}
	e.Close() // idempotent
	// Reads still serve the last committed state.
	if _, _, ok := e.GetShare("f"); !ok {
		t.Fatal("closed engine dropped committed shares")
	}
}

// TestShardingMatchesComponents pins that the engine shards by radio
// component and that flows land on the shard owning their source node.
func TestShardingMatchesComponents(t *testing.T) {
	topo, ids := clusteredTopo(t, 3, 3)
	e, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.NumShards() != 3 {
		t.Fatalf("want 3 shards for 3 radio components, got %d", e.NumShards())
	}
	for c := range ids {
		id := flow.ID(string(rune('a' + c)))
		if err := e.Register(FlowSpec{ID: id, Weight: 1, Path: ids[c]}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Flows != 3 || st.Epoch != 3 {
		t.Fatalf("want one flow and one epoch per shard, got %+v", st)
	}
	// Each shard snapshot holds exactly its own flow.
	for i := 0; i < e.NumShards(); i++ {
		if n := len(e.Snapshot(i).Shares); n != 1 {
			t.Fatalf("shard %d holds %d flows, want 1", i, n)
		}
	}
}

// TestTokenBucket pins the edge rate limiter with an injected clock.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	tb := NewTokenBucket(10, 2) // 10 tokens/s, burst 2
	tb.now = func() time.Time { return now }
	tb.last = now
	if !tb.Allow(1) || !tb.Allow(1) {
		t.Fatal("burst should admit 2")
	}
	if tb.Allow(1) {
		t.Fatal("empty bucket should reject")
	}
	now = now.Add(100 * time.Millisecond) // +1 token
	if !tb.Allow(1) {
		t.Fatal("refill should admit")
	}
	if tb.Allow(1) {
		t.Fatal("token already spent")
	}
	now = now.Add(time.Hour) // refills clamp at burst
	if !tb.Allow(1) || !tb.Allow(1) || tb.Allow(1) {
		t.Fatal("burst clamp violated")
	}
	// rate <= 0 disables limiting; nil bucket allows everything.
	if off := NewTokenBucket(0, 0); !off.Allow(1) {
		t.Fatal("disabled bucket rejected")
	}
	var nilTB *TokenBucket
	if !nilTB.Allow(1) {
		t.Fatal("nil bucket rejected")
	}
}

// TestStatsWireFormat pins GET /v1/stats' JSON body, which the daemon
// writes straight from Stats, and the durable counter order: each
// counter's position in a snapshot, and that an older snapshot's
// shorter prefix restores the counters it holds and leaves the rest.
func TestStatsWireFormat(t *testing.T) {
	var st Stats
	st.Shards = 1
	for i, p := range st.fields() {
		*p = uint64(i + 2)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"shards":1,"epoch":2,"batches":3,"events":4,"registers":5,"removes":6,"rejected":7,"rebuilds":8,"groupsSolved":9,"groupsReused":10,"cacheEvictions":11,"flows":12,"walBatches":13,"snapshots":14,"snapshotErrors":15}`
	if string(b) != want {
		t.Fatalf("stats JSON:\n got %s\nwant %s", b, want)
	}
	c := st.counters()
	if want := []uint64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}; !slices.Equal(c, want) {
		t.Fatalf("counters = %v, want %v", c, want)
	}
	var old ShardStats
	old.SnapshotErrors = 99
	old.restoreCounters(c[:3])
	if old.Epoch != 2 || old.Batches != 3 || old.Events != 4 || old.Registers != 0 || old.SnapshotErrors != 99 {
		t.Fatalf("prefix restore: %+v", old)
	}
}
