package latlab

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// -update rewrites the example pins and the elision census instead of
// comparing against them:
//
//	go test -run 'TestExamplesRun|TestElisionCensus' . -update
var update = flag.Bool("update", false, "rewrite testdata/examples and testdata/census from current output")

// TestExamplesRun builds and runs every example main and compares its
// whole stdout with testdata/examples/<name>.txt — the examples are
// documentation, and the simulator is deterministic, so any byte that
// moves is a behaviour change.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples compile+run; skipped in -short")
	}
	cases := []struct {
		path string
		args []string
	}{
		{"./examples/quickstart", nil},
		{"./examples/notepad", nil},
		{"./examples/powerpoint", []string{"-persona", "nt40"}},
		{"./examples/wordstudy", nil},
		{"./examples/thinkwait", nil},
	}
	for _, c := range cases {
		c := c
		name := strings.TrimPrefix(c.path, "./examples/")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", c.path}, c.args...)
			cmd := exec.Command("go", args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			start := time.Now()
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s failed after %v: %v\n%s%s", c.path, time.Since(start), err, stdout.Bytes(), stderr.Bytes())
			}
			path := filepath.Join("testdata", "examples", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing pin (run `go test -run TestExamplesRun . -update`): %v", err)
			}
			if !bytes.Equal(want, stdout.Bytes()) {
				t.Fatalf("%s stdout differs from %s:\n--- want\n%s\n--- got\n%s", c.path, path, want, stdout.Bytes())
			}
		})
	}
}
