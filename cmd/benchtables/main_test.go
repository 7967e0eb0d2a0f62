package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e2efair/internal/benchreport"
)

// capture redirects stdout during fn and returns what was printed. The
// pipe is drained while fn runs, so output larger than the pipe's
// buffer cannot block fn.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	read := make(chan error, 1)
	go func() {
		_, err := io.Copy(&out, r)
		read <- err
	}()
	os.Stdout = w
	errRun := fn()
	os.Stdout = old
	w.Close()
	errRead := <-read
	r.Close()
	if errRun != nil {
		t.Fatal(errRun)
	}
	if errRead != nil {
		t.Fatal(errRead)
	}
	return out.String()
}

// TestDuration20Golden pins benchtables -duration 20 stdout byte for
// byte: every section, analytic and simulated, at seed 1.
func TestDuration20Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "duration20.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := capture(t, func() error { return run(20, 1, "", "") }); got != string(want) {
		t.Errorf("output differs from testdata/duration20.txt:\n%s", got)
	}
}

func TestAnalyticSections(t *testing.T) {
	cases := map[string]string{
		"fig1":   "basic-fairness LP",
		"fig2":   "end-to-end fair",
		"fig4":   "LP optimum",
		"fig5":   "pentagon",
		"fig6":   "2PA-C",
		"tableI": "adopted 2PA-D shares",
	}
	for section, want := range cases {
		t.Run(section, func(t *testing.T) {
			out := capture(t, func() error { return run(1, 1, section, "") })
			if !strings.Contains(out, want) {
				t.Errorf("section %s missing %q:\n%s", section, want, out)
			}
		})
	}
}

func TestSimulationSectionsShort(t *testing.T) {
	out := capture(t, func() error { return run(2, 1, "tableII", "") })
	if !strings.Contains(out, "802.11") || !strings.Contains(out, "2PA-C") {
		t.Errorf("tableII output:\n%s", out)
	}
	out = capture(t, func() error { return run(2, 1, "transport", "") })
	if !strings.Contains(out, "goodput") {
		t.Errorf("transport output:\n%s", out)
	}
	out = capture(t, func() error { return run(2, 1, "ideal", "") })
	if !strings.Contains(out, "MAC efficiency") {
		t.Errorf("ideal output:\n%s", out)
	}
}

func TestUnknownSection(t *testing.T) {
	// The timing sections are Go benchmarks now (make bench-lp etc.),
	// and the analytical twin is gone.
	for _, section := range []string{"nope", "lp", "alloc", "topo", "mac", "sim", "twin", "serve"} {
		if err := run(1, 1, section, ""); err == nil {
			t.Errorf("unknown section %q should fail", section)
		}
	}
}

// TestJSONReport checks the -json output: per-section entries carrying
// the paper metrics plus wall-clock timings.
func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	capture(t, func() error { return run(2, 1, "tableII", path) })
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchreport.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.DurationSec != 2 || rep.Seed != 1 {
		t.Errorf("header = %+v", rep)
	}
	if rep.TotalWallSecs <= 0 {
		t.Error("missing total wall-clock timing")
	}
	if len(rep.Sections) != 1 || rep.Sections[0].Name != "tableII" {
		t.Fatalf("sections = %+v", rep.Sections)
	}
	sec := rep.Sections[0]
	if sec.WallSecs <= 0 {
		t.Error("missing section wall-clock timing")
	}
	if len(sec.Entries) != 4 {
		t.Fatalf("tableII entries = %d, want one per protocol", len(sec.Entries))
	}
	for _, e := range sec.Entries {
		for _, key := range []string{"totalE2EPkt", "lossRatio", "jain", "pktPerS"} {
			if _, ok := e.Values[key]; !ok {
				t.Errorf("entry %s missing metric %s", e.Label, key)
			}
		}
	}
}

// TestJSONDeterministicMetrics runs the same table twice and requires
// identical metric values: the parallel fan-out must not leak
// scheduling nondeterminism into results.
func TestJSONDeterministicMetrics(t *testing.T) {
	read := func() *benchreport.Report {
		path := filepath.Join(t.TempDir(), "bench.json")
		capture(t, func() error { return run(2, 7, "tableII", path) })
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep benchreport.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		return &rep
	}
	a, b := read(), read()
	for i, sec := range a.Sections {
		for j, e := range sec.Entries {
			other := b.Sections[i].Entries[j]
			if e.Label != other.Label {
				t.Fatalf("entry order diverged: %s vs %s", e.Label, other.Label)
			}
			for k, v := range e.Values {
				if other.Values[k] != v {
					t.Errorf("%s/%s: %g vs %g across runs", e.Label, k, v, other.Values[k])
				}
			}
		}
	}
}
