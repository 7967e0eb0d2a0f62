package sim

import "testing"

// ScheduleAt enqueues fn at an absolute time in phase 0.
func (e *Engine) ScheduleAt(at Time, fn func()) error {
	return e.Schedule(at, 0, fn)
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	var order []int
	_ = e.ScheduleAt(20, func() { order = append(order, 2) })
	_ = e.ScheduleAt(10, func() { order = append(order, 1) })
	_ = e.Schedule(20, 1, func() { order = append(order, 3) }) // later phase at t=20
	_ = e.ScheduleAt(5, func() { order = append(order, 0) })
	e.Run(100)
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Errorf("order = %v", order)
	}
	past := NewEngine()
	_ = past.ScheduleAt(10, func() {
		if err := past.ScheduleAt(5, func() {}); err != ErrPast {
			t.Errorf("past ScheduleAt err = %v", err)
		}
	})
	past.Run(20)
}

// TestFreeListRecycling drives a self-rescheduling event train and
// checks the engine reuses event structs instead of growing the heap
// or leaking: steady state keeps exactly one pending event.
func TestFreeListRecycling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if e.Now() < 1000 {
			_ = e.After(1, 0, tick)
		}
	}
	_ = e.ScheduleAt(0, tick)
	e.Run(2000)
	if count != 1001 {
		t.Fatalf("ticks = %d", count)
	}
	if len(e.free) == 0 {
		t.Error("free list empty after run: events are not recycled")
	}
	if len(e.free) > 2 {
		t.Errorf("free list grew to %d for a single event train", len(e.free))
	}
}

// TestHeapOrderRandomized pushes events with colliding times and
// phases in a scrambled order and verifies the hand-rolled heap drains
// them in (time, phase, seq) order.
func TestHeapOrderRandomized(t *testing.T) {
	e := NewEngine()
	type key struct {
		at    Time
		phase Phase
		seq   int
	}
	var got []key
	seqAt := map[[2]int64]int{}
	for i := 0; i < 500; i++ {
		at := Time((i * 7919) % 23)
		ph := Phase((i * 104729) % 3)
		k := [2]int64{int64(at), int64(ph)}
		seq := seqAt[k]
		seqAt[k]++
		_ = e.Schedule(at, ph, func() { got = append(got, key{at, ph, seq}) })
	}
	e.Run(100)
	if len(got) != 500 {
		t.Fatalf("ran %d events", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.phase > b.phase) ||
			(a.at == b.at && a.phase == b.phase && a.seq >= b.seq) {
			t.Fatalf("order violated at %d: %+v then %+v", i, a, b)
		}
	}
}

// BenchmarkEngineSteadyState measures the schedule/run cycle once the
// free list is primed: scheduling from inside events must be
// allocation-free.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		_ = e.After(1, 0, tick)
	}
	_ = e.ScheduleAt(0, tick)
	e.Run(64) // prime the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + 1)
	}
	if n == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkEngineChurn measures a deeper queue: 64 interleaved event
// trains with staggered periods.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		period := Time(1 + i%7)
		var tick func()
		tick = func() { _ = e.After(period, Phase(i%3), tick) }
		_ = e.Schedule(Time(i), Phase(i%3), tick)
	}
	e.Run(100) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + 10)
	}
}
