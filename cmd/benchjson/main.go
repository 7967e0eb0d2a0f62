// Command benchjson summarizes `go test -bench` output into a BENCH
// JSON file: one section per package, one entry per benchmark or
// sub-benchmark, and for every unit it reports (ns/op, B/op,
// allocs/op and custom ReportMetric units) the median over the runs in
// values, beside their min and max.
//
// Usage:
//
//	go test -run '^$' -bench <regexp> -benchmem -count 5 <packages> | benchjson [-compare OLD.json] BENCH_x.json
//
// The input is echoed to stdout as it is read. benchjson exits non-zero
// and leaves the output file untouched when the input holds a FAIL line
// or no benchmark result. It reads the benchmarks' GOMAXPROCS from its
// own environment, which it shares with `go test` through the pipe, so
// pass no -cpu flag.
//
// With -compare, benchjson first reads OLD.json (usually the committed
// file the run is about to replace) and checks the new medians against
// its [min, max] envelopes. allocs/op and the work counts benchmarks
// report (lpsolves/refine, pivots/refine, solves/event, groups/event)
// do not depend on the machine, so a median outside its envelope fails
// the run and leaves the output file untouched. Timing units are
// printed beside their envelopes but not gated: the machine that wrote
// OLD.json is rarely the one comparing. Entries and units OLD.json
// lacks are reported as new. To accept a deliberate change of a gated
// value, run without -compare.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"e2efair/internal/benchreport"
)

func main() {
	compare := flag.String("compare", "", "gate allocs/op and work counts against this BENCH file's [min, max] envelopes")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: go test -bench ... | benchjson [-compare OLD.json] BENCH_x.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdin, os.Stdout, flag.Arg(0), *compare, runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run parses in, echoing it to echo, and writes the summary to path.
// With a non-empty compare it gates the summary against that BENCH
// file first (see gate), writing nothing when the gate fails.
func run(in io.Reader, echo io.Writer, path, compare string, procs int) error {
	var old *benchreport.Report
	if compare != "" {
		buf, err := os.ReadFile(compare)
		if err != nil {
			return err
		}
		old = new(benchreport.Report)
		if err := json.Unmarshal(buf, old); err != nil {
			return fmt.Errorf("%s: %w", compare, err)
		}
	}
	rep, err := parse(io.TeeReader(in, echo), procs)
	if err != nil {
		return err
	}
	if old != nil {
		if err := gate(echo, old, rep); err != nil {
			return err
		}
	}
	rep.NumCPU = runtime.NumCPU()
	rep.GitSHA = benchreport.GitSHA()
	if err := benchreport.Write(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(echo, "wrote %s (%d sections)\n", path, len(rep.Sections))
	return nil
}

// gatedUnits are the units -compare gates: allocations and the work
// counts benchmarks report, which a faster or slower machine does not
// change.
var gatedUnits = map[string]bool{
	"allocs/op":       true,
	"lpsolves/refine": true,
	"pivots/refine":   true,
	"solves/event":    true,
	"groups/event":    true,
}

// gate prints every unit of cur beside old's envelope for it and
// returns an error naming each gated unit whose median left its
// envelope. An entry recorded as a single sample has the envelope
// [value, value].
func gate(w io.Writer, old, cur *benchreport.Report) error {
	type key struct{ section, label string }
	prev := map[key]benchreport.Entry{}
	for _, sec := range old.Sections {
		for _, e := range sec.Entries {
			prev[key{sec.Name, e.Label}] = e
		}
	}
	var outside []string
	for _, sec := range cur.Sections {
		for _, e := range sec.Entries {
			o, ok := prev[key{sec.Name, e.Label}]
			if !ok {
				fmt.Fprintf(w, "compare %s: new entry\n", e.Label)
				continue
			}
			units := make([]string, 0, len(e.Values))
			for u := range e.Values {
				units = append(units, u)
			}
			sort.Strings(units)
			for _, u := range units {
				v := e.Values[u]
				if _, ok := o.Values[u]; !ok {
					fmt.Fprintf(w, "compare %s %s: %g, new unit\n", e.Label, u, v)
					continue
				}
				lo, hi := envelope(o, u)
				verdict := "not gated"
				if gatedUnits[u] {
					verdict = "ok"
					if v < lo || v > hi {
						verdict = "OUTSIDE"
						outside = append(outside, fmt.Sprintf("%s %s %g not in [%g, %g]", e.Label, u, v, lo, hi))
					}
				}
				fmt.Fprintf(w, "compare %s %s: %g in [%g, %g]? %s\n", e.Label, u, v, lo, hi, verdict)
			}
		}
	}
	if len(outside) > 0 {
		return fmt.Errorf("%d gated medians left the committed envelope: %s", len(outside), strings.Join(outside, "; "))
	}
	return nil
}

// envelope is entry e's [min, max] for unit u, or [value, value] when
// e records no spread for it.
func envelope(e benchreport.Entry, u string) (lo, hi float64) {
	lo, hi = e.Values[u], e.Values[u]
	if v, ok := e.Min[u]; ok {
		lo = v
	}
	if v, ok := e.Max[u]; ok {
		hi = v
	}
	return lo, hi
}

// parse reads `go test -bench` output from benchmarks run at GOMAXPROCS
// procs. go test names each benchmark with a -procs suffix, or with none
// when procs is 1.
func parse(in io.Reader, procs int) (*benchreport.Report, error) {
	type bench struct {
		label   string
		runs    int
		samples map[string][]float64 // by unit
	}
	type pkg struct {
		name    string
		benches []*bench
		byLabel map[string]*bench
	}
	var pkgs []*pkg
	var cur *pkg
	failed := ""
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		// Read on past a failure so the whole run is echoed.
		trimmed := strings.TrimSpace(line)
		if failed == "" && (strings.HasPrefix(trimmed, "FAIL") || strings.HasPrefix(trimmed, "--- FAIL")) {
			failed = trimmed
		}
		if name, ok := strings.CutPrefix(line, "pkg: "); ok {
			cur = &pkg{name: strings.TrimSpace(name), byLabel: map[string]*bench{}}
			pkgs = append(pkgs, cur)
			continue
		}
		name, values, ok := parseResult(line)
		if !ok {
			continue
		}
		label, err := trimProcs(name, procs)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = &pkg{byLabel: map[string]*bench{}}
			pkgs = append(pkgs, cur)
		}
		b := cur.byLabel[label]
		if b == nil {
			b = &bench{label: label, samples: map[string][]float64{}}
			cur.byLabel[label] = b
			cur.benches = append(cur.benches, b)
		}
		b.runs++
		for _, v := range values {
			b.samples[v.unit] = append(b.samples[v.unit], v.value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if failed != "" {
		return nil, fmt.Errorf("benchmark run failed: %s", failed)
	}
	rep := &benchreport.Report{GoMaxProcs: procs}
	for _, p := range pkgs {
		if len(p.benches) == 0 {
			continue
		}
		sec := &benchreport.Section{Name: p.name}
		for _, b := range p.benches {
			e := benchreport.Entry{
				Label: b.label, Runs: b.runs,
				Values: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{},
			}
			for u, xs := range b.samples {
				sort.Float64s(xs)
				e.Values[u], e.Min[u], e.Max[u] = median(xs), xs[0], xs[len(xs)-1]
			}
			sec.Entries = append(sec.Entries, e)
		}
		rep.Sections = append(rep.Sections, sec)
	}
	if len(rep.Sections) == 0 {
		return nil, errors.New("no benchmark results in the input")
	}
	return rep, nil
}

type measurement struct {
	value float64
	unit  string
}

// parseResult parses one benchmark result line,
//
//	BenchmarkName/sub-8   1000   1234 ns/op   16 B/op   1 allocs/op
//
// returning the name as printed and the (value, unit) pairs after the
// iteration count.
func parseResult(line string) (name string, values []measurement, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return "", nil, false
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		values = append(values, measurement{v, f[i+1]})
	}
	return f[0], values, true
}

// trimProcs strips the -procs suffix go test appends to a benchmark
// name at GOMAXPROCS procs. At procs 1 it appends none, so the name is
// kept whole: a trailing -N there is part of a sub-benchmark name. A
// name without the suffix at procs > 1 ran at another GOMAXPROCS.
func trimProcs(name string, procs int) (string, error) {
	if procs == 1 {
		return name, nil
	}
	if label, ok := strings.CutSuffix(name, "-"+strconv.Itoa(procs)); ok {
		return label, nil
	}
	return "", fmt.Errorf("%s: not run at GOMAXPROCS %d; pass no -cpu flag", name, procs)
}

// median of sorted xs; the mean of the middle two for an even count.
func median(xs []float64) float64 {
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
