// Package sim provides a deterministic discrete-event simulation
// engine: a virtual clock in microseconds and an event queue ordered
// by (time, phase, insertion sequence). It is the foundation of the
// packet-level wireless simulator that substitutes for ns-2.
package sim

import "errors"

// Time is simulated time in microseconds.
type Time int64

// Common time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000000
)

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Phase orders events that fire at the same instant: lower phases run
// first. The MAC uses phases to finish transmissions before new
// contention attempts resolve.
type Phase int

// ErrPast is returned when an event is scheduled before the current
// virtual time.
var ErrPast = errors.New("sim: event scheduled in the past")

type event struct {
	at    Time
	phase Phase
	seq   uint64
	fn    func()
	// argFn/arg carry the closure-free form used by ScheduleArg: a
	// long-lived handler plus a per-event word, so hot paths schedule
	// without allocating a fresh closure per event.
	argFn func(uint64)
	arg   uint64
}

// before is the queue ordering: (time, phase, insertion sequence).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.phase != o.phase {
		return e.phase < o.phase
	}
	return e.seq < o.seq
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
//
// The event queue is a hand-rolled binary heap of *event with a free
// list: executed events are recycled into subsequent Schedule calls,
// so a simulation whose pending-event count has plateaued schedules
// with zero allocations.
type Engine struct {
	now     Time
	seq     uint64
	events  []*event
	free    []*event
	stopped bool
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an event from the free list, or the heap when the list
// is dry.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return new(event)
}

// recycle returns an executed event to the free list, dropping its
// closure so the GC can reclaim captured state.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.argFn = nil
	e.free = append(e.free, ev)
}

// push inserts an event into the heap (sift-up).
func (e *Engine) push(ev *event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(e.events[parent]) {
			break
		}
		e.events[i] = e.events[parent]
		i = parent
	}
	e.events[i] = ev
}

// pop removes and returns the earliest event (sift-down).
func (e *Engine) pop() *event {
	top := e.events[0]
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = nil
	e.events = e.events[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.events[r].before(e.events[child]) {
			child = r
		}
		if !e.events[child].before(last) {
			break
		}
		e.events[i] = e.events[child]
		i = child
	}
	e.events[i] = last
	return top
}

// Schedule enqueues fn to run at the given time and phase. Events in
// the past are rejected.
func (e *Engine) Schedule(at Time, phase Phase, fn func()) error {
	if at < e.now {
		return ErrPast
	}
	ev := e.alloc()
	e.seq++
	ev.at, ev.phase, ev.seq, ev.fn = at, phase, e.seq, fn
	e.push(ev)
	return nil
}

// ScheduleArg enqueues fn(arg) to run at the given time and phase.
// Unlike Schedule, the handler is a long-lived function value and the
// per-event state travels in arg, so steady-state callers (the MAC's
// backoff expirations) schedule with zero allocations instead of
// building a closure per event.
func (e *Engine) ScheduleArg(at Time, phase Phase, fn func(uint64), arg uint64) error {
	if at < e.now {
		return ErrPast
	}
	ev := e.alloc()
	e.seq++
	ev.at, ev.phase, ev.seq, ev.fn, ev.argFn, ev.arg = at, phase, e.seq, nil, fn, arg
	e.push(ev)
	return nil
}

// After schedules fn to run delay microseconds from now.
func (e *Engine) After(delay Time, phase Phase, fn func()) error {
	if delay < 0 {
		return ErrPast
	}
	return e.Schedule(e.now+delay, phase, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state — time zero, empty
// queue, sequence zero — while keeping the heap storage and moving any
// pending events onto the free list. A reset engine is
// indistinguishable from a fresh NewEngine to callers (the free list
// only recycles memory, never behavior), so sweep workers and
// per-epoch re-runs can reuse one engine instead of reallocating the
// queue each job.
func (e *Engine) Reset() {
	for _, ev := range e.events {
		e.recycle(ev)
	}
	clear(e.events)
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
}

// Run executes events in order until the queue empties or the next
// event is past the horizon. Events scheduled exactly at the horizon
// still run. It returns the number of events executed.
func (e *Engine) Run(until Time) int {
	e.stopped = false
	n := 0
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > until {
			break
		}
		ev := e.pop()
		e.now = ev.at
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.argFn(ev.arg)
		}
		e.recycle(ev)
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}
