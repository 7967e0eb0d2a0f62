// Command perfbench is the repository benchmark: it runs one workload
// of the fair-allocation serving path and the packet simulator, checks
// the outputs, and prints every metric by name with its unit. See
// README.md in this directory for the workloads and metrics; run it
// through run.sh, which builds it and fairallocd from source first.
//
//	perfbench -workload engine-dense-sessions -seed 1 -seconds 10 -trace 0
//	perfbench -summary   # run-to-run spread over the recorded runs
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; a --trace 0 run
// prints every one of them. The run's churn_eps, recovery_s and
// sim_rate, and the open loop's p99 latencies, go to the report line
// instead: on the shared host they spread past any usable regression
// bound from run to run (see README).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"register_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's per-layer metrics; a --trace 1 run
// prints every one of them (0 where the workload has no such layer).
var perLayer = []metricDef{
	{"edge.register_overhead_ms", "ms"},
	{"edge.http_429", "count"},
	{"edge.http_503", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"serve.events_per_batch", "count"},
	{"serve.rebuilds", "count"},
	{"serve.rejected", "count"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.read_ns", "ns"},
	{"routing.validate_us", "us"},
	{"flow.newset_us", "us"},
	{"contention.graph_us", "us"},
	{"contention.cliques_us", "us"},
	{"contention.edges", "count"},
	{"contention.cliques", "count"},
	{"core.instance_us", "us"},
	{"core.delta_us", "us"},
	{"core.groups_solved_per_batch", "count"},
	{"core.groups_reused_per_batch", "count"},
	{"core.cache_hit_frac", "ratio"},
	{"core.cache_evictions", "count"},
	{"lp.solve_us", "us"},
	{"durable.append_us", "us"},
	{"durable.bytes_per_batch", "B"},
	{"durable.replay_s", "s"},
	{"serve.recover_s", "s"},
	{"topology.build_ms", "ms"},
	{"topology.components_us", "us"},
	{"netsim.stack_ms", "ms"},
	{"netsim.components", "count"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"mac.delivered_hops", "count"},
	{"mac.collisions", "count"},
	{"mac.retry_drops", "count"},
	{"mac.queue_drops", "count"},
	{"mac.utilization", "ratio"},
	{"mac.collision_overhead", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// stamp identifies where and how a result was measured.
type stamp struct {
	SHA        string  `json:"sha"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	Network    string  `json:"network"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Time       string  `json:"time"`
}

// errIncorrect reports a run whose outputs failed a correctness check;
// its result line has already been printed.
var errIncorrect = errors.New("outputs failed a correctness check")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errIncorrect) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := fs.String("fairallocd", "", "fairallocd binary (built by run.sh)")
	work := fs.String("work", ".bench_build", "directory for run state, spans and history")
	sha := fs.String("sha", "unknown", "source revision to stamp on results")
	summary := fs.Bool("summary", false, "print median and quartiles of every metric over the recorded runs")
	simChildFlag := fs.Bool("sim-child", false, "internal: run the simulation phase for -seconds and print its repetitions as JSON")
	record := fs.String("record-golden", "", "record simulated delivered packets for seeds LO-HI (e.g. 1-30) into ./golden_sim.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *summary {
		return printSummary(filepath.Join(*work, "history.jsonl"))
	}
	if *record != "" {
		return recordGolden(*record)
	}
	if *simChildFlag {
		return simChild(*seed, time.Duration(*seconds*float64(time.Second)))
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if wl.daemon && *bin == "" {
		return errors.New("-fairallocd is required for " + wl.name)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	dir, err := os.MkdirTemp(mkdirAll(filepath.Join(*work, "runs")), wl.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c := runConfig{wl: wl, seed: *seed, seconds: *seconds, fairallocd: *bin, dir: dir, nproc: runtime.NumCPU()}
	st := stamp{
		SHA: *sha, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Network: "loopback", Workload: wl.name,
		Seed: *seed, Seconds: *seconds, Trace: *traceFlag, Time: time.Now().UTC().Format(time.RFC3339),
	}

	defs := endToEnd
	var r *report
	if *traceFlag != 0 {
		defs = perLayer
		r, err = runTraced(c, filepath.Join(mkdirAll(filepath.Join(*work, "spans")),
			fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed)))
	} else {
		r, err = runUntraced(c)
	}
	if err != nil {
		return err
	}
	res := result{
		Correct:   r.correct == nil,
		Attempted: max(r.tally.Attempted, 1),
		Failed:    r.tally.Refused + r.tally.Failed,
		Metrics:   make(map[string]metricOut),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			res.Correct = false
			r.fail(fmt.Errorf("metric %s was not measured", d.name))
			continue
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for name, v := range r.metrics {
		if _, ok := res.Metrics[name]; !ok {
			r.notes[name] = v
		}
	}
	if r.correct != nil {
		r.notes["correctness_error"] = r.correct.Error()
	}
	spread, err := appendHistory(filepath.Join(*work, "history.jsonl"), st, res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Stamp  stamp                 `json:"stamp"`
		Notes  map[string]any        `json:"notes"`
		Tally  tally                 `json:"tally"`
		Spread map[string][3]float64 `json:"spread_over_recorded_runs"`
	}{st, r.notes, r.tally, spread})
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", line)
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-32s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%w: %v", errIncorrect, r.correct)
	}
	return nil
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755) // a failure surfaces at the first write
	return dir
}

// historyEntry is one recorded run.
type historyEntry struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

// appendHistory records the run and returns, per metric, the first
// quartile, median and third quartile over every recorded run of the
// same workload, trace mode and revision (this one included).
func appendHistory(path string, st stamp, res result) (map[string][3]float64, error) {
	entries, err := readHistory(path)
	if err != nil {
		return nil, err
	}
	entries = append(entries, historyEntry{st, res})
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(historyEntry{st, res})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return spreads(entries, st)[st.Workload], nil
}

func readHistory(path string) ([]historyEntry, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []historyEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e historyEntry
		if json.Unmarshal(sc.Bytes(), &e) == nil {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// spreads groups entries matching like's revision and trace mode by
// workload and returns each metric's quartiles over them.
func spreads(entries []historyEntry, like stamp) map[string]map[string][3]float64 {
	vals := make(map[string]map[string][]float64)
	for _, e := range entries {
		if e.Stamp.SHA != like.SHA || e.Stamp.Trace != like.Trace || e.Stamp.Seconds != like.Seconds {
			continue
		}
		if vals[e.Stamp.Workload] == nil {
			vals[e.Stamp.Workload] = make(map[string][]float64)
		}
		for name, m := range e.Result.Metrics {
			vals[e.Stamp.Workload][name] = append(vals[e.Stamp.Workload][name], m.Value)
		}
	}
	out := make(map[string]map[string][3]float64)
	for wl, ms := range vals {
		out[wl] = make(map[string][3]float64)
		for name, v := range ms {
			out[wl][name] = quartiles(v)
		}
	}
	return out
}

// printSummary prints, per revision, trace mode, workload and metric,
// the run count, median and quartiles, and the quartile spread as a
// share of the median.
func printSummary(path string) error {
	entries, err := readHistory(path)
	if err != nil {
		return err
	}
	type key struct {
		sha      string
		trace    int
		seconds  float64
		workload string
		metric   string
	}
	vals := make(map[key][]float64)
	for _, e := range entries {
		for name, m := range e.Result.Metrics {
			k := key{e.Stamp.SHA, e.Stamp.Trace, e.Stamp.Seconds, e.Stamp.Workload, name}
			vals[k] = append(vals[k], m.Value)
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return fmt.Sprint(a.sha, a.trace, a.seconds, a.workload, a.metric) < fmt.Sprint(b.sha, b.trace, b.seconds, b.workload, b.metric)
	})
	fmt.Printf("%-14s %-5s %-24s %-32s %4s %12s %12s %12s %8s\n", "sha", "trace", "workload", "metric", "runs", "q1", "median", "q3", "iqr/med")
	for _, k := range keys {
		q := quartiles(vals[k])
		rel := 0.0
		if q[1] != 0 {
			rel = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-14s %-5d %-24s %-32s %4d %12.6g %12.6g %12.6g %8.3f\n",
			strings.TrimSpace(k.sha), k.trace, k.workload, k.metric, len(vals[k]), q[0], q[1], q[2], rel)
	}
	return nil
}
