package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"e2efair/internal/netsim"
)

// runConfig is one invocation's settings.
type runConfig struct {
	wl         *workload
	seed       int64
	seconds    float64
	fairallocd string
	dir        string // this run's private directory inside the checkout
	nproc      int
}

func (c runConfig) phase(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// conns is the connection (and in-flight) bound of the daemon's load:
// at most nproc, as the load comes from one process.
func (c runConfig) conns() int { return c.nproc }

// satClients is the saturation phase's closed-loop client count.
func (c runConfig) satClients() int { return 1 }

// satSessions is how many register→remove sessions one round's
// saturation slice commits.
func (c runConfig) satSessions() int {
	return max(int(math.Ceil(c.wl.satRate*c.wl.satFrac*c.seconds/rounds)), 1)
}

// inflight bounds outstanding open-loop operations: connections for
// the daemon, and enough for batches to form on an in-process engine.
func (c runConfig) inflight() int {
	if c.wl.daemon {
		return c.conns()
	}
	return 256
}

// report is everything one run measured, beyond the final JSON line.
type report struct {
	metrics map[string]float64
	notes   map[string]any
	tally   tally
	correct error // first correctness failure
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), notes: make(map[string]any)}
}

func (r *report) fail(err error) {
	if r.correct == nil && err != nil {
		r.correct = err
	}
}

// rounds splits every measured phase of a run into slices taken in
// turn — set-up samples, an open-loop slice, a saturation slice,
// crash/recovery samples and simulation repetitions — so each metric
// samples the whole run rather than one stretch of it.
//
// The host is shared: other tenants slow its CPUs by up to a third, in
// stretches from a second to minutes, and a run's samples fall into a
// fast and a slow state. A median jumps between the two states as the
// share of slow samples crosses one half, so the metrics that take
// CPU time are run totals (work over time) or trimmed means, which
// move smoothly with that share instead.
const rounds = 12

// sampleTrim is the share of set-up and recovery samples dropped at
// each end before they are averaged.
const sampleTrim = 0.1

// perRound returns how many set-up and recovery samples each round
// takes: two process launches for the daemon, more of the
// millisecond-scale in-process boots.
func (c runConfig) perRound() int {
	if c.wl.daemon {
		return 2
	}
	return 8
}

// startServer boots the workload's host with its background flows;
// name keeps each daemon's directory apart.
func startServer(c runConfig, w *world, name string) (server, error) {
	if c.wl.daemon {
		dir := filepath.Join(c.dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return startDaemonServer(c.fairallocd, dir, w.topo, w.background, c.conns(), true)
	}
	return startEngine(w.topo, w.background)
}

// timeSetup boots and discards a host, returning the boot time.
func timeSetup(c runConfig, w *world, name string) (float64, error) {
	t0 := time.Now()
	srv, err := startServer(c, w, name)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(t0).Seconds()
	srv.close()
	return d, nil
}

// roundSeeds derives each round's plan seed from the run seed.
func roundSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, rounds)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// runUntraced runs the workload's pipeline with tracing off and
// measures every end-to-end metric.
func runUntraced(c runConfig) (*report, error) {
	r := newReport()
	w, err := c.wl.build(c.seed)
	if err != nil {
		return nil, err
	}
	want, err := expectedShares(w.topo, w.background)
	if err != nil {
		return nil, err
	}
	inst, err := fig6Instance()
	if err != nil {
		return nil, err
	}
	simCfg := simConfig(c.seed)

	t0 := time.Now()
	srv, err := startServer(c, w, "main")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	firstSetup := time.Since(t0).Seconds()
	warmUp(c, w, srv)

	var open openResult
	var sat tally
	var satEvents int64
	var satWall time.Duration
	var setups, recov, rss, simRates []float64
	var simDelivered []int64
	for round, seed := range roundSeeds(c.seed) {
		runtime.GC()
		for i := 0; i < c.perRound(); i++ {
			d, err := timeSetup(c, w, fmt.Sprintf("setup%d-%d", round, i))
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}

		p := makePlan(c.wl, w, seed, c.phase(c.wl.openFrac)/rounds, fmt.Sprintf("s%d-", round))
		runtime.GC()
		o := openLoop(srv, p.sessions, p.ops, c.inflight(), nil, clock{})
		open.tally.merge(o.tally)
		open.regLat = append(open.regLat, o.regLat...)
		open.readLat = append(open.readLat, o.readLat...)
		open.lag = append(open.lag, o.lag...)
		open.wall += o.wall

		runtime.GC()
		t, events, wall := closedLoop(srv, c.satClients(), c.satSessions(), p.sat, fmt.Sprintf("sat%d-", round))
		sat.merge(t)
		satEvents += events
		satWall += wall

		got, err := srv.shares()
		if err != nil {
			return nil, err
		}
		r.fail(wrap("published shares", sameShares(got, want)))
		if c.wl.daemon {
			v, err := srv.peakRSSMB()
			if err != nil {
				return nil, err
			}
			rss = append(rss, v)
		}
		runtime.GC()
		for i := 0; i < c.perRound(); i++ {
			d, err := srv.crashRecover()
			if err != nil {
				return nil, fmt.Errorf("recovery: %w", err)
			}
			recov = append(recov, d.Seconds())
			after, err := srv.shares()
			if err != nil {
				return nil, err
			}
			r.fail(wrap("shares after recovery", sameShares(after, got)))
		}

		rates, got2, err := simReps(c.seed, c.phase(c.wl.simFrac)/rounds)
		if err != nil {
			return nil, err
		}
		simRates = append(simRates, rates...)
		if simDelivered == nil {
			simDelivered = got2
		} else {
			r.fail(wrap("sim repeat", sameCounts(inst, got2, simDelivered)))
		}
	}
	srv.close()
	srv = nil

	r.tally.merge(open.tally)
	r.tally.merge(sat)
	r.notes["open_loop"] = open.tally
	r.notes["open_loop_wall_s"] = open.wall.Seconds()
	r.notes["saturation"] = sat
	regLat, readLat, lag := sortedMs(open.regLat), sortedMs(open.readLat), sortedMs(open.lag)
	r.notes["register_samples"] = len(regLat)
	r.notes["read_samples"] = len(readLat)
	putPercentiles(r, "register", regLat)
	putPercentiles(r, "read", readLat)
	if v, ok := percentile(lag, 0.99); ok {
		r.notes["loadgen_lag_p99_ms"] = v
	}
	r.metrics["churn_eps"] = float64(satEvents) / satWall.Seconds()
	r.notes["first_setup_s"] = firstSetup
	r.notes["setup_samples_s"] = setups
	r.metrics["setup_s"] = trimmedMean(setups, sampleTrim)
	r.notes["recovery_samples_s"] = recov
	r.metrics["recovery_s"] = trimmedMean(recov, sampleTrim)
	r.notes["sim_rates"] = simRates
	r.metrics["sim_rate"] = harmonicMean(simRates) // all repetitions' simulated over wall seconds
	oracle, err := checkDelivered(inst, simCfg, simDelivered)
	r.notes["sim_oracle"] = oracle
	r.fail(wrap("sim delivered", err))
	if c.wl.daemon {
		r.notes["daemon_peak_rss_mb"] = rss
		r.metrics["peak_rss_mb"] = median(rss)
	} else {
		v, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		r.metrics["peak_rss_mb"] = v
	}
	r.notes["fail_frac"] = float64(r.tally.Refused+r.tally.Failed) / float64(max(r.tally.Attempted, 1))
	return r, nil
}

// warmFrac is the share of --seconds spent warming the host before the
// open loop is measured: the same kind of sessions from another seed
// stream fill the group-share cache, as in a long-running service.
const warmFrac = 0.1

func warmUp(c runConfig, w *world, h host) {
	p := makePlan(c.wl, w, c.seed^0x3a3a, c.phase(warmFrac), "w")
	openLoop(h, p.sessions, p.ops, c.inflight(), nil, clock{})
}

// simReps simulates the Fig. 6 tiles in a child process (this binary
// with -sim-child) for about budget and returns each timed
// repetition's simulated seconds per wall second and the delivered
// packets per flow, which every repetition must reproduce. The child
// has the simulator to itself: its heap and goroutines are not the
// load generator's or the in-process engine's.
func simReps(seed int64, budget time.Duration) ([]float64, []int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "-sim-child", "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(budget.Seconds(), 'g', -1, 64))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("sim child: %w", err)
	}
	var res simChildResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, nil, fmt.Errorf("sim child output: %w", err)
	}
	if res.Err != "" {
		return nil, nil, fmt.Errorf("sim child: %s", res.Err)
	}
	return res.Rates, res.Delivered, nil
}

// simChildResult is what a -sim-child process prints.
type simChildResult struct {
	Rates     []float64 `json:"rates"`
	Delivered []int64   `json:"delivered"`
	Err       string    `json:"error,omitempty"`
}

// simChild is the body of a -sim-child process: one untimed warm-up
// repetition, then timed repetitions until budget is spent (at least
// one), every one delivering the same packets per flow.
func simChild(seed int64, budget time.Duration) error {
	res, err := runSimReps(seed, budget)
	if err != nil {
		res = &simChildResult{Err: err.Error()}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func runSimReps(seed int64, budget time.Duration) (*simChildResult, error) {
	inst, err := fig6Instance()
	if err != nil {
		return nil, err
	}
	cfg := simConfig(seed)
	res := &simChildResult{}
	var start time.Time
	for rep := -1; rep <= 0 || time.Since(start) < budget; rep++ {
		if rep == 0 {
			start = time.Now()
		}
		t0 := time.Now()
		out, err := netsim.Run(inst, cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if rep >= 0 {
			res.Rates = append(res.Rates, cfg.Duration.Seconds()/time.Since(t0).Seconds())
		}
		got := delivered(inst, out.Stats)
		if res.Delivered == nil {
			res.Delivered = got
		} else if err := sameCounts(inst, got, res.Delivered); err != nil {
			return nil, fmt.Errorf("sim repeat: %w", err)
		}
	}
	return res, nil
}

// putPercentiles records the <name>_p50_ms metric and, when the
// percentile rule allows, <name>_p99_ms in the report notes.
func putPercentiles(r *report, name string, sorted []float64) {
	if v, _ := percentile(sorted, 0.5); len(sorted) > 0 {
		r.metrics[name+"_p50_ms"] = v
	}
	if v, ok := percentile(sorted, 0.99); ok {
		r.notes[name+"_p99_ms"] = v
	}
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
