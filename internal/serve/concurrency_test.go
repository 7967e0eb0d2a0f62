package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"e2efair/internal/durable"
	"e2efair/internal/flow"
)

// TestManyReadersOneWriterRace pins the lock-free read path race-clean
// under -race: one writer churns flows through awaited batches while
// many readers hammer GetShare, Stats, Snapshot and Shares. Readers
// additionally check snapshot sanity — a share they observe is always
// positive and at most 1, and epochs never run backwards on a shard.
func TestManyReadersOneWriterRace(t *testing.T) {
	topo, ids := clusteredTopo(t, 2, 4)
	e, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Seed one long-lived flow per cluster so readers always have a
	// stable ID to query.
	stable := make([]flow.ID, len(ids))
	for c, chain := range ids {
		stable[c] = flow.ID(fmt.Sprintf("stable%d", c))
		if err := e.Register(FlowSpec{ID: stable[c], Weight: 1, Path: chain}); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	readerErr := make([]error, 8)
	for r := range readerErr {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for !stop.Load() {
				id := stable[r%len(stable)]
				share, epoch, ok := e.GetShare(id)
				if !ok || share <= 0 || share > 1 {
					readerErr[r] = fmt.Errorf("flow %s: share=%v ok=%v", id, share, ok)
					return
				}
				if epoch < lastEpoch {
					readerErr[r] = fmt.Errorf("epoch ran backwards: %d -> %d", lastEpoch, epoch)
					return
				}
				lastEpoch = epoch
				if st := e.Stats(); st.Shards != uint64(e.NumShards()) {
					readerErr[r] = fmt.Errorf("stats shards %d != %d", st.Shards, e.NumShards())
					return
				}
				if all, _ := e.Shares(); len(all) == 0 {
					readerErr[r] = fmt.Errorf("no shares visible")
					return
				}
			}
		}(r)
	}

	// Writer: churn a rotating flow per cluster for a few hundred
	// rounds, each register/remove awaited (so each is a commit).
	for round := 0; round < 150; round++ {
		c := round % len(ids)
		id := flow.ID(fmt.Sprintf("churn%d", c))
		if err := e.Register(FlowSpec{ID: id, Weight: 2, Path: ids[c][:2]}); err != nil {
			t.Fatal(err)
		}
		if err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	for r, err := range readerErr {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}
}

// TestSnapshotReadsZeroAlloc pins the acceptance criterion that the
// hot read path allocates nothing: GetShare and Stats are measured at
// 0 allocs/op against a live engine. This is why the flow directory is
// a typed copy-on-write map behind an atomic.Pointer rather than a
// sync.Map (whose any-keyed Load would box every string key).
func TestSnapshotReadsZeroAlloc(t *testing.T) {
	topo, ids := clusteredTopo(t, 2, 4)
	e, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	id := flow.ID("f0")
	if err := e.Register(FlowSpec{ID: id, Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}

	var sink float64
	if n := testing.AllocsPerRun(1000, func() {
		share, _, ok := e.GetShare(id)
		if !ok {
			t.Fatal("flow vanished")
		}
		sink += share
	}); n != 0 {
		t.Fatalf("GetShare allocates %v times per op, want 0", n)
	}
	var events uint64
	if n := testing.AllocsPerRun(1000, func() {
		events += e.Stats().Events
	}); n != 0 {
		t.Fatalf("Stats allocates %v times per op, want 0", n)
	}
	_ = sink
	_ = events
}

// TestDurableReadsZeroAlloc pins that turning durability on costs the
// read path nothing: the WAL sits entirely on the write side of the
// commit protocol, so GetShare against a durable engine still runs at
// 0 allocs/op.
func TestDurableReadsZeroAlloc(t *testing.T) {
	topo, ids := clusteredTopo(t, 2, 4)
	store, err := durable.Open(t.TempDir(), durable.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Topo: topo, Durable: store})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	id := flow.ID("f0")
	if err := e.Register(FlowSpec{ID: id, Weight: 1, Path: ids[0]}); err != nil {
		t.Fatal(err)
	}

	var sink float64
	if n := testing.AllocsPerRun(1000, func() {
		share, _, ok := e.GetShare(id)
		if !ok {
			t.Fatal("flow vanished")
		}
		sink += share
	}); n != 0 {
		t.Fatalf("durable GetShare allocates %v times per op, want 0", n)
	}
	_ = sink
}

// TestCloseRaceInFlight pins Close's contract against racing writers:
// registrations fired concurrently with Close each resolve to exactly
// one of (a) nil — the flow committed, its share is readable even on
// the drained engine — or (b) ErrClosed. No hang, no lost ack, no
// third outcome. Run under -race this also proves the stopping/drain
// handshake is clean.
func TestCloseRaceInFlight(t *testing.T) {
	topo, ids := clusteredTopo(t, 2, 4)
	store, err := durable.Open(t.TempDir(), durable.Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Topo: topo, Durable: store})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 40
	type outcome struct {
		id  flow.ID
		err error
	}
	results := make(chan outcome, writers*perWriter)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				id := flow.ID(fmt.Sprintf("w%dr%d", w, i))
				done := e.RegisterAsync(FlowSpec{ID: id, Weight: 1, Path: ids[(w+i)%len(ids)][:2]})
				results <- outcome{id, <-done}
			}
		}(w)
	}
	close(start)
	// Let some registrations land, then slam the door mid-stream.
	for e.Stats().Registers == 0 {
		runtime.Gosched()
	}
	e.Close()
	wg.Wait()
	close(results)

	committed, rejected := 0, 0
	for r := range results {
		switch {
		case r.err == nil:
			committed++
			if share, _, ok := e.GetShare(r.id); !ok || share <= 0 {
				t.Fatalf("flow %s acked but unreadable after Close (share=%v ok=%v)", r.id, share, ok)
			}
		case errors.Is(r.err, ErrClosed):
			rejected++
		default:
			t.Fatalf("flow %s: unexpected outcome %v", r.id, r.err)
		}
	}
	if committed+rejected != writers*perWriter {
		t.Fatalf("lost acks: %d committed + %d rejected != %d fired",
			committed, rejected, writers*perWriter)
	}
	if committed == 0 {
		t.Fatal("Close raced ahead of every registration; test proved nothing")
	}
}

// TestReRegisterKeepsRoute churns one ID through remove → register
// pairs faster than single-event batches commit. A batch that ends
// with the flow removed must not retire the ID's route while a later
// register of it is still queued: the remove after that register has
// to find the flow, and the flow must stay removable at the end.
func TestReRegisterKeepsRoute(t *testing.T) {
	topo, ids := clusteredTopo(t, 1, 4)
	eng, err := New(Config{Topo: topo, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	spec := FlowSpec{ID: "F", Weight: 1, Path: ids[0][:3]}
	if err := eng.Register(spec); err != nil {
		t.Fatal(err)
	}
	var dones []<-chan error
	for r := 0; r < 500; r++ {
		dones = append(dones, eng.RemoveAsync(spec.ID), eng.RegisterAsync(spec))
	}
	for i, d := range dones {
		if err := <-d; err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := eng.Remove(spec.ID); err != nil {
		t.Fatalf("final remove: %v", err)
	}
}
