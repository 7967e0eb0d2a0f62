// Package benchreport is the schema of the repository's BENCH_*.json
// files, shared by the programs that write them: cmd/benchjson, which
// summarizes `go test -bench` output into every committed BENCH file,
// and cmd/benchtables, whose -json flag writes the paper tables'
// metrics and wall-clock timings.
package benchreport

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Report is one BENCH file: per section, labelled entries of metrics.
// Every report is stamped with the environment the numbers were taken
// on — GOMAXPROCS, CPU count and the git commit — so cross-PR
// comparisons never mix machines or revisions silently.
type Report struct {
	DurationSec   float64    `json:"durationSec,omitempty"`
	Seed          int64      `json:"seed,omitempty"`
	GoMaxProcs    int        `json:"gomaxprocs"`
	NumCPU        int        `json:"numCPU"`
	GitSHA        string     `json:"gitSHA,omitempty"`
	TotalWallSecs float64    `json:"totalWallSeconds,omitempty"`
	Sections      []*Section `json:"sections"`
}

// Section is one table, figure or benchmarked package of a report.
type Section struct {
	Name     string  `json:"name"`
	WallSecs float64 `json:"wallSeconds,omitempty"`
	Entries  []Entry `json:"entries,omitempty"`
}

// Entry is one labelled row of a section (a protocol, a sweep size, a
// benchmark). Values holds each metric; an entry summarizing several
// runs holds their median there, with Runs, Min and Max beside it.
type Entry struct {
	Label  string             `json:"label"`
	Runs   int                `json:"runs,omitempty"`
	Values map[string]float64 `json:"values"`
	Min    map[string]float64 `json:"min,omitempty"`
	Max    map[string]float64 `json:"max,omitempty"`
}

// Add appends a single-sample entry.
func (s *Section) Add(label string, values map[string]float64) {
	s.Entries = append(s.Entries, Entry{Label: label, Values: values})
}

// GitSHA is the short commit of the working directory's checkout;
// empty (and omitted from the JSON) outside a git checkout.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Write stores r as indented JSON at path. It writes a temporary file
// beside path and renames it over path, so a failed write leaves any
// existing file untouched.
func Write(path string, r *Report) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
