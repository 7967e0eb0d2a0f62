package netsim

import (
	"fmt"
	"runtime"
	"sync"

	"e2efair/internal/core"
	"e2efair/internal/sim"
)

// Job is one independent simulation of a sweep: an instance plus a
// fully-specified config (protocol, seed, duration, ...). Jobs over
// the same *core.Instance may run concurrently — Run builds a private
// engine, medium, RNG, and collectors per call and only reads the
// instance.
type Job struct {
	Inst *core.Instance
	Cfg  Config
}

// SweepJobs expands the (instance × protocol × seed) cross product
// into a deterministic job list: instances outermost, then protocols,
// then seeds, mirroring how the paper's tables iterate runs.
func SweepJobs(insts []*core.Instance, cfg Config, protocols []Protocol, seeds []int64) []Job {
	jobs := make([]Job, 0, len(insts)*len(protocols)*len(seeds))
	for _, inst := range insts {
		for _, p := range protocols {
			for _, seed := range seeds {
				c := cfg
				c.Protocol = p
				c.Seed = seed
				jobs = append(jobs, Job{Inst: inst, Cfg: c})
			}
		}
	}
	return jobs
}

// RunParallel executes the jobs across a pool of workers and returns
// results in job order: results[i] is the outcome of jobs[i]
// regardless of which worker ran it or when it finished, so a parallel
// sweep is bit-identical to running the jobs sequentially. workers <= 0
// selects GOMAXPROCS. On failure the error of the lowest-indexed
// failing job is returned (also deterministic). Configs carrying a
// shared Tracer must not be fanned out: a tracer would interleave
// events from concurrent engines.
func RunParallel(jobs []Job, workers int) ([]*Result, error) {
	results := make([]*Result, len(jobs))
	if i, err := forEach(len(jobs), workers, func(eng *sim.Engine, i int) (err error) {
		cfg := jobs[i].Cfg
		cfg.eng = eng
		results[i], err = Run(jobs[i].Inst, cfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("netsim: job %d (%s, seed %d): %w",
			i, jobs[i].Cfg.Protocol, jobs[i].Cfg.Seed, err)
	}
	return results, nil
}

// forEach is the one worker pool, behind RunParallel and the sharded
// run: it calls fn(eng, i) for every i in [0, n) on up to workers
// goroutines (<= 0 selects GOMAXPROCS) and returns once all are done.
// Each worker owns one engine, recycled via Reset across its items —
// the heap storage and event free list carry over, so a long sweep
// stops paying per-run allocation for them. Items write only their own
// index-addressed slots, so the outcome never depends on scheduling;
// on failure forEach returns the lowest failing index and its error.
func forEach(n, workers int, fn func(eng *sim.Engine, i int) error) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine()
			for i := range idx {
				errs[i] = fn(eng, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// RunAllParallel fans runs across the worker pool: one run per
// protocol with the same config, results in protocol order.
func RunAllParallel(inst *core.Instance, cfg Config, protocols ...Protocol) ([]*Result, error) {
	jobs := make([]Job, len(protocols))
	for i, p := range protocols {
		c := cfg
		c.Protocol = p
		jobs[i] = Job{Inst: inst, Cfg: c}
	}
	return RunParallel(jobs, 0)
}
