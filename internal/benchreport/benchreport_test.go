package benchreport

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGitSHADirty stamps a temporary repository: clean at a commit,
// still clean when only BENCH_*.json files (at any depth) changed, and
// "-dirty" once any other tracked file differs.
func TestGitSHADirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	// Keep git from finding a checkout that encloses the temp dir.
	t.Setenv("GIT_CEILING_DIRECTORIES", filepath.Dir(dir))
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{
			"-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false",
		}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if got := gitSHA(dir); got != "" {
		t.Fatalf("outside a checkout: %q, want empty", got)
	}
	git("init", "-q")
	write("main.go", "package main\n")
	write("BENCH_x.json", "{}\n")
	write("sub/BENCH_y.json", "{}\n")
	git("add", "-A")
	git("commit", "-q", "-m", "init")
	sha := git("rev-parse", "--short", "HEAD")

	if got := gitSHA(dir); got != sha {
		t.Errorf("clean tree: %q, want %q", got, sha)
	}
	write("BENCH_x.json", "{\"new\": 1}\n")
	write("sub/BENCH_y.json", "{\"new\": 1}\n")
	write("untracked.go", "package main\n")
	if got := gitSHA(filepath.Join(dir, "sub")); got != sha {
		t.Errorf("only BENCH files and an untracked file changed: %q, want %q", got, sha)
	}
	write("main.go", "package main\n\nfunc main() {}\n")
	if got := gitSHA(filepath.Join(dir, "sub")); got != sha+"-dirty" {
		t.Errorf("tracked source changed: %q, want %q", got, sha+"-dirty")
	}
}
