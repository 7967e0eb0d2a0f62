package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e2efair/internal/benchreport"
)

// canned is `go test -bench -benchmem -count N` output over two
// packages: sub-benchmarks, the -2 GOMAXPROCS suffix, a custom
// ReportMetric unit, an odd (3) and an even (4) run count, a b.Logf
// line under a parent benchmark, and the goos/pkg/PASS/ok lines go
// test interleaves.
const canned = `goos: linux
goarch: amd64
pkg: e2efair/internal/lp
cpu: Some CPU @ 2.00GHz
BenchmarkLPSolve/fig6-2         	  400000	      3000 ns/op	       0 B/op	       0 allocs/op
BenchmarkLPSolve/fig6-2         	  400000	      2000 ns/op	       0 B/op	       0 allocs/op
BenchmarkLPSolve/fig6-2         	  400000	      2500 ns/op	       0 B/op	       0 allocs/op
BenchmarkContention
    build_test.go:165: 1k-node scenario: 188 subflows
BenchmarkContention/incidence-2 	    1000	   1000000 ns/op	   80000 B/op	     100 allocs/op	         4.0 lpsolves/refine
BenchmarkContention/incidence-2 	    1000	   3000000 ns/op	   80000 B/op	     100 allocs/op	         2.0 lpsolves/refine
BenchmarkContention/incidence-2 	    1000	   2000000 ns/op	   80000 B/op	     100 allocs/op	         8.0 lpsolves/refine
BenchmarkContention/incidence-2 	    1000	   4000000 ns/op	   80000 B/op	     100 allocs/op	         1.0 lpsolves/refine
PASS
ok  	e2efair/internal/lp	12.345s
goos: linux
goarch: amd64
pkg: e2efair/internal/topology
PASS
ok  	e2efair/internal/topology	0.010s
goos: linux
goarch: amd64
pkg: e2efair
BenchmarkDistributedAllocate/fig6/sequential-2 	   10000	    150000 ns/op	 5.5 totalB
PASS
ok  	e2efair	3.2s
`

func TestParseCannedOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(canned), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoMaxProcs != 2 {
		t.Errorf("gomaxprocs = %d, want 2", rep.GoMaxProcs)
	}
	// The topology package ran no benchmark and gets no section.
	if len(rep.Sections) != 2 || rep.Sections[0].Name != "e2efair/internal/lp" || rep.Sections[1].Name != "e2efair" {
		t.Fatalf("sections = %+v", rep.Sections)
	}
	lp := rep.Sections[0].Entries
	if len(lp) != 2 || lp[0].Label != "BenchmarkLPSolve/fig6" || lp[1].Label != "BenchmarkContention/incidence" {
		t.Fatalf("lp entries = %+v", lp)
	}
	check := func(e benchreport.Entry, unit string, runs int, med, lo, hi float64) {
		t.Helper()
		if e.Runs != runs {
			t.Errorf("%s: runs = %d, want %d", e.Label, e.Runs, runs)
		}
		if e.Values[unit] != med || e.Min[unit] != lo || e.Max[unit] != hi {
			t.Errorf("%s %s: median/min/max = %g/%g/%g, want %g/%g/%g",
				e.Label, unit, e.Values[unit], e.Min[unit], e.Max[unit], med, lo, hi)
		}
	}
	check(lp[0], "ns/op", 3, 2500, 2000, 3000)
	check(lp[0], "allocs/op", 3, 0, 0, 0)
	check(lp[1], "ns/op", 4, 2500000, 1000000, 4000000)
	check(lp[1], "B/op", 4, 80000, 80000, 80000)
	check(lp[1], "lpsolves/refine", 4, 3, 1, 8)
	check(rep.Sections[1].Entries[0], "totalB", 1, 5.5, 5.5, 5.5)
	if got := rep.Sections[1].Entries[0].Label; got != "BenchmarkDistributedAllocate/fig6/sequential" {
		t.Errorf("label = %q", got)
	}
}

func TestParseNoSuffixIsOneProc(t *testing.T) {
	rep, err := parse(strings.NewReader("pkg: p\nBenchmarkX 	 10	 5 ns/op\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoMaxProcs != 1 || rep.Sections[0].Entries[0].Label != "BenchmarkX" {
		t.Errorf("report = %+v", rep.Sections[0].Entries)
	}
}

// TestParseOneProcKeepsNumericSubName feeds the output of a GOMAXPROCS=1
// run, where go test appends no -N suffix: a sub-benchmark name ending
// in -64 is part of the label, not a GOMAXPROCS, so the -64 and -1 runs
// stay two entries of one report.
func TestParseOneProcKeepsNumericSubName(t *testing.T) {
	in := "pkg: p\n" +
		"BenchmarkX/batch-64 	 10	 5 ns/op\n" +
		"BenchmarkX/batch-1 	 10	 9 ns/op\n"
	rep, err := parse(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	ents := rep.Sections[0].Entries
	if rep.GoMaxProcs != 1 || len(ents) != 2 || ents[0].Label != "BenchmarkX/batch-64" || ents[1].Label != "BenchmarkX/batch-1" {
		t.Errorf("gomaxprocs %d, entries %+v", rep.GoMaxProcs, ents)
	}
}

// TestParseOtherProcsFails feeds a line run at GOMAXPROCS 1 (no suffix)
// and one run at 4 to a parser at 2: neither carries the -2 suffix, so
// both are rejected instead of being filed under a wrong label.
func TestParseOtherProcsFails(t *testing.T) {
	for _, line := range []string{"BenchmarkX 	 10	 5 ns/op", "BenchmarkX-4 	 10	 5 ns/op"} {
		if _, err := parse(strings.NewReader("pkg: p\n"+line+"\n"), 2); err == nil {
			t.Errorf("%q parsed at GOMAXPROCS 2", line)
		}
	}
}

// TestRunWritesReport checks the file run writes: the shared schema
// with runs, median, min and max, and the echoed input.
func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	var echo strings.Builder
	if err := run(strings.NewReader(canned), &echo, path, "", 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(echo.String(), "BenchmarkLPSolve/fig6-2") {
		t.Error("input was not echoed")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchreport.Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	e := rep.Sections[0].Entries[0]
	if e.Runs != 3 || e.Values["ns/op"] != 2500 || e.Min["ns/op"] != 2000 || e.Max["ns/op"] != 3000 {
		t.Errorf("entry = %+v", e)
	}
	if rep.NumCPU < 1 || rep.GoMaxProcs != 2 {
		t.Errorf("stamp: numCPU %d gomaxprocs %d", rep.NumCPU, rep.GoMaxProcs)
	}
}

// TestRunFailureKeepsExistingFile feeds a failed and an empty run: run
// must fail and leave the previous BENCH file byte-for-byte intact, so
// a broken benchmark cannot commit an empty table.
func TestRunFailureKeepsExistingFile(t *testing.T) {
	for name, in := range map[string]string{
		"fail-line":     canned + "--- FAIL: BenchmarkBroken\n    x_test.go:9: boom\nFAIL\ne2efair/internal/x\t0.1s\nFAIL\n",
		"build-failed":  "FAIL\te2efair/internal/lp [build failed]\n",
		"no-benchmarks": "goos: linux\npkg: e2efair/internal/lp\nPASS\nok  \te2efair/internal/lp\t0.01s\n",
		"empty":         "",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "BENCH_x.json")
			const old = `{"old": true}` + "\n"
			if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run(strings.NewReader(in), io.Discard, path, "", 2); err == nil {
				t.Fatal("run succeeded")
			}
			buf, err := os.ReadFile(path)
			if err != nil || string(buf) != old {
				t.Errorf("BENCH file changed: %q, %v", buf, err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 1 {
				t.Errorf("left %d files behind", len(ents))
			}
		})
	}
}

// writeOld writes canned's own summary, edited by tweak, as the
// committed file -compare reads, and returns its path and bytes.
func writeOld(t *testing.T, tweak func(*benchreport.Report)) (string, []byte) {
	t.Helper()
	rep, err := parse(strings.NewReader(canned), 2)
	if err != nil {
		t.Fatal(err)
	}
	tweak(rep)
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := benchreport.Write(path, rep); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, buf
}

// TestCompareGatesCounts runs canned against committed files that
// differ from it in one unit each. A gated unit (allocs/op, a work
// count) whose median leaves the committed [min, max] fails the run
// and leaves the committed file as it was; timing units, and entries
// or units the committed file lacks, are printed but never fail it.
func TestCompareGatesCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*benchreport.Report)
		fail  bool
	}{
		{"same", func(*benchreport.Report) {}, false},
		{"slower-machine", func(r *benchreport.Report) {
			e := r.Sections[0].Entries[0]
			e.Values["ns/op"], e.Min["ns/op"], e.Max["ns/op"] = 10, 9, 11
		}, false},
		{"allocs-grew", func(r *benchreport.Report) {
			e := r.Sections[0].Entries[1]
			e.Values["allocs/op"], e.Min["allocs/op"], e.Max["allocs/op"] = 99, 99, 99
		}, true},
		{"count-moved", func(r *benchreport.Report) {
			e := r.Sections[0].Entries[1]
			e.Min["lpsolves/refine"], e.Max["lpsolves/refine"] = 3.5, 8
		}, true},
		{"single-sample", func(r *benchreport.Report) {
			e := &r.Sections[0].Entries[1]
			e.Min, e.Max = nil, nil
		}, false},
		{"new-entry-and-unit", func(r *benchreport.Report) {
			r.Sections[1].Entries = nil
			delete(r.Sections[0].Entries[1].Values, "lpsolves/refine")
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, committed := writeOld(t, tc.tweak)
			var echo strings.Builder
			err := run(strings.NewReader(canned), &echo, old, old, 2)
			if (err != nil) != tc.fail {
				t.Fatalf("err = %v, want failure %v\n%s", err, tc.fail, echo.String())
			}
			if !strings.Contains(echo.String(), "BenchmarkLPSolve/fig6 ns/op: 2500") {
				t.Errorf("timing unit not printed:\n%s", echo.String())
			}
			buf, _ := os.ReadFile(old)
			if tc.fail && string(buf) != string(committed) {
				t.Error("a failed gate rewrote the committed file")
			}
			if !tc.fail && string(buf) == string(committed) {
				t.Error("a passing run kept the committed file")
			}
		})
	}
}

// TestCompareMissingFile: a -compare file that cannot be read fails
// the run before anything is written.
func TestCompareMissingFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_x.json")
	if err := run(strings.NewReader(canned), io.Discard, out, filepath.Join(dir, "missing.json"), 2); err == nil {
		t.Fatal("run succeeded without its baseline")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output written: %v", err)
	}
}
