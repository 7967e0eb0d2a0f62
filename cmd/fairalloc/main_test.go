package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2efair"
)

func TestRunBuiltinTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "figure1"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"2pa-c", "0.5000", "two-tier"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunSingleStrategy(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "figure6", "-strategy", "2pa-c"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "two-tier") {
		t.Errorf("single-strategy output should omit others:\n%s", text)
	}
	if !strings.Contains(text, "2pa-c") {
		t.Errorf("missing requested strategy:\n%s", text)
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "figure1", "-json", "-contention"}, &out); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Contention  *e2efair.ContentionReport      `json:"contention"`
		Allocations map[string]*e2efair.Allocation `json:"allocations"`
	}
	if err := json.Unmarshal(out.Bytes(), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if payload.Contention == nil || len(payload.Allocations) == 0 {
		t.Errorf("payload incomplete: %+v", payload)
	}
}

func TestRunReportAndDot(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "pentagon", "-report"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schedulable: false") {
		t.Errorf("pentagon report should flag unschedulability:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-scenario", "figure1", "-dot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "graph contention {") {
		t.Errorf("bad DOT output:\n%s", out.String())
	}
}

func TestRunSpecFile(t *testing.T) {
	spec := e2efair.Figure1Spec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-spec", path, "-strategy", "basic"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0.2500") {
		t.Errorf("expected basic shares:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no source should fail")
	}
	if err := run([]string{"-scenario", "nope"}, &out); err == nil {
		t.Error("unknown scenario should fail")
	}
	if err := run([]string{"-scenario", "figure1", "-strategy", "bogus"}, &out); err == nil {
		t.Error("unknown strategy should fail")
	}
	if err := run([]string{"-scenario", "figure1", "-spec", "x.json"}, &out); err == nil {
		t.Error("both sources should fail")
	}
}

// TestRunGolden pins `-json -contention` on every builtin, byte for
// byte, against testdata/<builtin>.json (':' written as '-'). Refresh
// a file only for a deliberate output change:
//
//	go run ./cmd/fairalloc -scenario chain:5 -json -contention > cmd/fairalloc/testdata/chain-5.json
func TestRunGolden(t *testing.T) {
	for _, name := range []string{"figure1", "figure6", "pentagon", "chain:5", "grid:3x3", "parkinglot:4"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", strings.ReplaceAll(name, ":", "-")+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run([]string{"-scenario", name, "-json", "-contention"}, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from testdata:\n%s", out.String())
			}
		})
	}
}

// A valid spec file whose node span overflows float64 must not hang
// the topology build.
func TestRunSpecFileOverflowingSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.json")
	spec := `{"nodes":[{"name":"A","x":-1e308},{"name":"B","x":-1e308,"y":200},{"name":"C","x":1e308},{"name":"D","x":1e308,"y":200}],` +
		`"flows":[{"id":"F1","path":["A","B"]},{"id":"F2","path":["C","D"]}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() { done <- run([]string{"-spec", path, "-strategy", "2pa-c"}, &out) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fairalloc did not return within 5 s")
	}
	if !strings.Contains(out.String(), "1.0000") {
		t.Errorf("two independent one-hop flows should each get the whole channel:\n%s", out.String())
	}
}
