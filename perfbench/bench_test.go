package main

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"e2efair/internal/flow"
	"e2efair/internal/serve"
)

func TestPercentileRule(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := percentile(sorted(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it; the rule must refuse it")
	}
	v, ok := percentile(sorted(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990 with exactly 10 beyond", v, ok)
	}
	if v, ok := percentile(sorted(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v (ok %v), want 10", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples must not be reportable")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) values.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// stallHost answers reads instantly except the first, which blocks
// for stall.
type stallHost struct {
	stall time.Duration
	calls atomic.Int64
}

func (h *stallHost) register(serve.FlowSpec) (outcome, error) { return outOK, nil }
func (h *stallHost) remove(flow.ID) (outcome, error)          { return outOK, nil }
func (h *stallHost) read(flow.ID) (outcome, error) {
	if h.calls.Add(1) == 1 {
		time.Sleep(h.stall)
	}
	return outOK, nil
}

// With one operation in flight, a stalled first request holds up the
// ones due behind it: their latency runs from when they were due, so it
// includes the wait, and the generator reports them late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var ops []op
	for i := 0; i < 5; i++ {
		ops = append(ops, op{kind: opRead, due: time.Duration(i) * 5 * time.Millisecond, id: "f"})
	}
	res := openLoop(&stallHost{stall: stall}, nil, ops, 1, nil, clock{})
	if res.Attempted != 5 || res.Succeeded != 5 || len(res.readLat) != 5 {
		t.Fatalf("tally %+v, %d latencies; want 5 reads", res.tally, len(res.readLat))
	}
	if res.readLat[0] < stall {
		t.Errorf("stalled read latency %v < stall %v", res.readLat[0], stall)
	}
	for i := 1; i < 5; i++ {
		// Op i was due at 5i ms but could not be sent before the stall
		// ended at ~60 ms.
		due := ops[i].due
		if min := stall - due; res.lag[i] < min-2*time.Millisecond || res.readLat[i] < min-2*time.Millisecond {
			t.Errorf("op %d due %v: lag %v, latency %v; both must include the %v wait", i, due, res.lag[i], res.readLat[i], min)
		}
	}
}

// A fake clock shows the same accounting without real sleeps: the
// generator "wakes" at each due time, but the first operation holds
// the only slot until 100 ms.
func TestOpenLoopLagWithFakeClock(t *testing.T) {
	var now atomic.Int64 // nanoseconds
	clk := clock{
		since: func(time.Time) time.Duration { return time.Duration(now.Load()) },
		sleep: func(d time.Duration) { now.Add(int64(d)) },
	}
	h := &fakeClockHost{now: &now, first: 100 * time.Millisecond}
	ops := []op{
		{kind: opRead, due: 0, id: "a"},
		{kind: opRead, due: 10 * time.Millisecond, id: "b"},
	}
	res := openLoop(h, nil, ops, 1, nil, clk)
	if got, want := res.lag[1], 90*time.Millisecond; got != want {
		t.Errorf("second op lag %v, want %v (sent at 100 ms, due at 10 ms)", got, want)
	}
	if got, want := res.readLat[1], 90*time.Millisecond; got != want {
		t.Errorf("second op latency %v, want %v from its due time", got, want)
	}
}

// fakeClockHost completes its first read at fake time `first` (however
// the generator's sleeps interleave with it) and answers the rest
// instantly.
type fakeClockHost struct {
	now   *atomic.Int64
	first time.Duration
	calls atomic.Int64
}

func (h *fakeClockHost) register(serve.FlowSpec) (outcome, error) { return outOK, nil }
func (h *fakeClockHost) remove(flow.ID) (outcome, error)          { return outOK, nil }
func (h *fakeClockHost) read(flow.ID) (outcome, error) {
	if h.calls.Add(1) == 1 {
		for {
			cur := h.now.Load()
			if cur >= int64(h.first) || h.now.CompareAndSwap(cur, int64(h.first)) {
				break
			}
		}
	}
	return outOK, nil
}

func TestSelfTimePartialCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Name: "batch", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "a1", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	// Parent: covered [10,50] ∪ [90,100] = 50 of 100.
	if want := []int64{50, 14, 30, 30, 6}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	lt := layerTotals(spans)
	if b := lt["batch"]; b.Count != 1 || b.Total != 100 || b.Self != 50 {
		t.Fatalf("batch totals %+v, want count 1 total 100 self 50", *b)
	}
}

func TestPlanIsSeedDetermined(t *testing.T) {
	wl, err := workloadByName("engine-dense-arrivals")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) plan {
		w, err := wl.build(seed)
		if err != nil {
			t.Fatal(err)
		}
		return makePlan(wl, w, seed, 200*time.Millisecond, "s")
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different plans")
	}
	if reflect.DeepEqual(a.ops, c.ops) || reflect.DeepEqual(a.sessions, c.sessions) {
		t.Fatal("different seeds gave the same operations")
	}
	if len(a.sessions) == 0 || len(a.ops) < 2*len(a.sessions) {
		t.Fatalf("plan has %d sessions and %d ops", len(a.sessions), len(a.ops))
	}
	for i := 1; i < len(a.ops); i++ {
		if a.ops[i].due < a.ops[i-1].due {
			t.Fatal("plan ops are not in due order")
		}
	}
	if !reflect.DeepEqual(roundSeeds(7), roundSeeds(7)) || reflect.DeepEqual(roundSeeds(7), roundSeeds(8)) {
		t.Fatal("round seeds must follow the run seed")
	}
}

func TestRunAggregates(t *testing.T) {
	// Ten samples, one stall: the trimmed mean drops it (and the
	// lowest sample) and averages the rest.
	v := []float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 100}
	if got := trimmedMean(v, 0.1); got != 5.5 {
		t.Errorf("trimmedMean = %v, want 5.5", got)
	}
	if got := trimmedMean([]float64{3}, 0.4); got != 3 {
		t.Errorf("trimmedMean of one value = %v, want 3", got)
	}
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("trimmedMean of none = %v, want 0", got)
	}
	// Two repetitions of equal work at 100 and 50 units/s: 2 units in
	// 0.01 + 0.02 s is 66.67 units/s, not the mean rate 75.
	if got := harmonicMean([]float64{100, 50}); math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("harmonicMean = %v, want 66.67 (total work over total time)", got)
	}
}
