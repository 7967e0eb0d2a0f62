package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2efair/internal/flow"
	"e2efair/internal/serve"
)

// opKind is what one generated operation asks of the host.
type opKind uint8

const (
	opRegister opKind = iota
	opRemove
	opRead
)

func (k opKind) String() string {
	switch k {
	case opRegister:
		return "register"
	case opRemove:
		return "remove"
	default:
		return "read"
	}
}

// op is one scheduled operation of an open-loop phase. Registers and
// removes name a session; reads name a background flow.
type op struct {
	kind opKind
	due  time.Duration // offset from the phase start
	sess int32         // session index (register, remove)
	id   flow.ID       // flow read (read)
}

// outcome classifies a completed operation. A refusal (HTTP 429/503,
// engine admission or closed) and a failure both count against
// fail_frac; neither is retried.
type outcome uint8

const (
	outOK outcome = iota
	outRefused
	outFailed
	outSkipped // remove of a session whose register did not succeed
)

// tally counts one phase's operations.
type tally struct {
	Attempted int64  `json:"attempted"`
	Succeeded int64  `json:"succeeded"`
	Refused   int64  `json:"refused"`
	Failed    int64  `json:"failed"`
	FirstErr  string `json:"firstError,omitempty"`
}

func (t *tally) add(o outcome, err error) {
	if o == outSkipped {
		return
	}
	t.Attempted++
	switch o {
	case outOK:
		t.Succeeded++
	case outRefused:
		t.Refused++
	default:
		t.Failed++
	}
	if o != outOK && t.FirstErr == "" && err != nil {
		t.FirstErr = err.Error()
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Succeeded += o.Succeeded
	t.Refused += o.Refused
	t.Failed += o.Failed
	if t.FirstErr == "" {
		t.FirstErr = o.FirstErr
	}
}

// host is the system under test as the load generator sees it: the
// fairallocd daemon over HTTP, or an in-process serve.Engine.
type host interface {
	register(spec serve.FlowSpec) (outcome, error)
	remove(id flow.ID) (outcome, error)
	read(id flow.ID) (outcome, error)
}

// openResult is what an open-loop phase measured. Latencies run from
// each operation's due time to its completion, so time an operation
// spent waiting behind a stalled generator or a busy connection
// counts; lag is how late the generator issued each operation.
type openResult struct {
	tally
	regLat  []time.Duration
	readLat []time.Duration
	lag     []time.Duration
	wall    time.Duration
}

// clock lets tests drive the generator; the zero value uses real time.
type clock struct {
	since func(time.Time) time.Duration
	sleep func(time.Duration)
}

func (c clock) orReal() clock {
	if c.since == nil {
		c.since = time.Since
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// openLoop issues ops at their due times, regardless of how fast the
// host answers, with at most inflight operations outstanding: when all
// slots are busy the generator waits, and the wait shows as lag on the
// late operation and as latency on it and everything queued behind it.
// A session's remove is issued only after its register completed (and
// is skipped if the register did not succeed). rec, when enabled, gets
// one root span per operation with the operation index as request ID.
func openLoop(h host, sessions []serve.FlowSpec, ops []op, inflight int, rec *recorder, clk clock) *openResult {
	clk = clk.orReal()
	type done struct {
		ch chan struct{}
		ok atomic.Bool
	}
	regDone := make([]done, len(sessions))
	for i := range regDone {
		regDone[i].ch = make(chan struct{})
	}
	type sample struct {
		lat, lag time.Duration
		out      outcome
		err      error
	}
	samples := make([]sample, len(ops))
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, o := range ops {
		if d := o.due - clk.since(start); d > 0 {
			clk.sleep(d)
		}
		sem <- struct{}{}
		issued := clk.since(start)
		wg.Add(1)
		go func(i int, o op, issued time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			sp := rec.begin("loadgen."+o.kind.String(), noParent, int64(i))
			var out outcome
			var err error
			switch o.kind {
			case opRegister:
				out, err = h.register(sessions[o.sess])
				regDone[o.sess].ok.Store(out == outOK)
				close(regDone[o.sess].ch)
			case opRemove:
				<-regDone[o.sess].ch
				if regDone[o.sess].ok.Load() {
					out, err = h.remove(sessions[o.sess].ID)
				} else {
					out = outSkipped
				}
			case opRead:
				out, err = h.read(o.id)
			}
			rec.end(sp)
			samples[i] = sample{lat: clk.since(start) - o.due, lag: issued - o.due, out: out, err: err}
		}(i, o, issued)
	}
	wg.Wait()
	res := &openResult{wall: clk.since(start)}
	for i, s := range samples {
		res.add(s.out, s.err)
		if s.out == outSkipped {
			continue
		}
		res.lag = append(res.lag, s.lag)
		if s.out != outOK {
			continue
		}
		switch ops[i].kind {
		case opRegister:
			res.regLat = append(res.regLat, s.lat)
		case opRead:
			res.readLat = append(res.readLat, s.lat)
		}
	}
	return res
}

// closedLoop runs n register→remove sessions back to back on clients
// clients, each client sending its next request only after the
// previous one answered, and times them. Session k registers specs[k]
// (cycled) under the ID prefix+k. It reports committed events
// (successful registers plus removes) and the wall time they took.
func closedLoop(h host, clients, n int, specs []serve.FlowSpec, prefix string) (tally, int64, time.Duration) {
	var mu sync.Mutex
	var total tally
	var events atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					break
				}
				s := specs[k%len(specs)]
				s.ID = flow.ID(fmt.Sprintf("%s%d", prefix, k))
				out, err := h.register(s)
				t.add(out, err)
				if out != outOK {
					continue
				}
				events.Add(1)
				out, err = h.remove(s.ID)
				t.add(out, err)
				if out == outOK {
					events.Add(1)
				}
			}
			mu.Lock()
			total.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, events.Load(), time.Since(start)
}
