package sim

import (
	"errors"
	"testing"
)

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

func TestRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	_ = e.Schedule(30, 0, func() { order = append(order, 3) })
	_ = e.Schedule(10, 0, func() { order = append(order, 1) })
	_ = e.Schedule(20, 0, func() { order = append(order, 2) })
	n := e.Run(100)
	if n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %d, want horizon 100", e.Now())
	}
}

func TestPhaseOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	_ = e.Schedule(10, 2, func() { order = append(order, "late") })
	_ = e.Schedule(10, 0, func() { order = append(order, "early") })
	_ = e.Schedule(10, 1, func() { order = append(order, "mid") })
	e.Run(10)
	if len(order) != 3 || order[0] != "early" || order[1] != "mid" || order[2] != "late" {
		t.Errorf("order = %v", order)
	}
}

func TestFIFOWithinPhase(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		_ = e.Schedule(5, 0, func() { order = append(order, i) })
	}
	e.Run(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("insertion order not preserved: %v", order)
		}
	}
}

// TestScheduleArg checks that closure-free events interleave with
// plain ones in strict (time, phase, insertion) order, carry their
// argument, and reject the past like Schedule.
func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	var order []uint64
	record := func(arg uint64) { order = append(order, arg) }
	_ = e.ScheduleArg(20, 0, record, 3)
	_ = e.Schedule(10, 1, func() { order = append(order, 2) })
	_ = e.ScheduleArg(10, 0, record, 1)
	_ = e.ScheduleArg(20, 0, record, 4)
	e.Run(100)
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Errorf("order = %v", order)
	}
	if err := e.ScheduleArg(50, 0, record, 9); !errors.Is(err, ErrPast) {
		t.Errorf("past ScheduleArg err = %v", err)
	}
}

// TestScheduleArgSteadyStateAllocs pins the zero-alloc property the
// MAC relies on: re-scheduling through the event free list with a
// long-lived handler must not allocate.
func TestScheduleArgSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var fire func(uint64)
	fire = func(arg uint64) {
		if e.Now() < 1_000_000 {
			_ = e.ScheduleArg(e.Now()+10, 0, fire, arg+1)
		}
	}
	_ = e.ScheduleArg(0, 0, fire, 0)
	e.Run(1000) // warm the free list
	allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + 1000)
	})
	if allocs > 0 {
		t.Errorf("steady-state ScheduleArg allocates %.1f/run, want 0", allocs)
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := NewEngine()
	var hits []Time
	var emit func()
	emit = func() {
		hits = append(hits, e.Now())
		if e.Now() < 50 {
			_ = e.After(10, 0, emit)
		}
	}
	_ = e.Schedule(0, 0, emit)
	e.Run(1000)
	if len(hits) != 6 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[5] != 50 {
		t.Errorf("last hit at %d", hits[5])
	}
}

func TestPastRejected(t *testing.T) {
	e := NewEngine()
	_ = e.Schedule(100, 0, func() {
		if err := e.Schedule(50, 0, func() {}); !errors.Is(err, ErrPast) {
			t.Errorf("past schedule err = %v", err)
		}
	})
	e.Run(200)
	if err := e.After(-1, 0, func() {}); !errors.Is(err, ErrPast) {
		t.Errorf("negative After err = %v", err)
	}
}

func TestHorizonStops(t *testing.T) {
	e := NewEngine()
	ran := false
	_ = e.Schedule(100, 0, func() { ran = true })
	e.Run(99)
	if ran {
		t.Error("event past the horizon ran")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.Run(100)
	if !ran {
		t.Error("event at the horizon should run")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		_ = e.Schedule(Time(i), 0, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(100)
	if count != 3 {
		t.Errorf("ran %d events after Stop", count)
	}
}

func TestSeconds(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %g", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds = %g", got)
	}
}

func TestReset(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 0; i < 8; i++ {
		i := i
		_ = e.Schedule(Time(10*i), 0, func() { fired = append(fired, i) })
	}
	e.Run(35) // leaves events 4..7 pending
	if len(fired) != 4 {
		t.Fatalf("pre-reset ran %d events, want 4", len(fired))
	}
	e.Reset()
	if e.Now() != 0 {
		t.Errorf("Now = %d after Reset, want 0", e.Now())
	}
	// Pending events must be gone and time 0 schedulable again.
	fired = fired[:0]
	_ = e.Schedule(5, 0, func() { fired = append(fired, -1) })
	n := e.Run(100)
	if n != 1 || len(fired) != 1 || fired[0] != -1 {
		t.Errorf("post-reset run: n=%d fired=%v, want just the new event", n, fired)
	}
}

// TestResetRecyclesEvents pins the point of Reset: after a warm-up
// run, a reset engine re-runs the same workload without growing the
// heap or allocating new event records.
func TestResetRecyclesEvents(t *testing.T) {
	e := NewEngine()
	work := func() {
		for i := 0; i < 64; i++ {
			_ = e.Schedule(Time(i), 0, func() {})
		}
		e.Run(1000)
		e.Reset()
	}
	work() // warm free list and heap storage
	allocs := testing.AllocsPerRun(10, work)
	if allocs != 0 {
		t.Errorf("reset-recycled workload allocates %.1f per run, want 0", allocs)
	}
}

// TestResetEquivalence: a reset engine must be indistinguishable from
// a fresh one — same event count, same final clock — even when the
// previous run left pending events behind.
func TestResetEquivalence(t *testing.T) {
	run := func(e *Engine) (int, Time) {
		for i := 0; i < 16; i++ {
			_ = e.Schedule(Time(7*i), Phase(i%3), func() {})
		}
		n := e.Run(50)
		return n, e.Now()
	}
	fresh := NewEngine()
	wantN, wantNow := run(fresh)

	reused := NewEngine()
	_ = reused.Schedule(3, 0, func() {})
	_ = reused.Schedule(999, 0, func() {}) // stays pending
	reused.Run(10)
	reused.Reset()
	gotN, gotNow := run(reused)
	if gotN != wantN || gotNow != wantNow {
		t.Errorf("reset engine ran (%d, %d), fresh ran (%d, %d)", gotN, gotNow, wantN, wantNow)
	}
}
