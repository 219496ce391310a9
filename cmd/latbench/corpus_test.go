package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"latlab/internal/scenario"
)

// corpusDir is the committed scenario corpus this binary replays with
// -run corpus.
const corpusDir = "../../testdata/scenarios"

// TestCorpusGolden replays every committed scenario document through
// the full CLI path (-scenario, quick mode) and locks the rendering
// byte-for-byte. The ext-faults-* twins share golden files with their
// Go-registered counterparts from TestGoldenQuick — that sharing is the
// proof that a file-backed experiment and a registered one produce
// identical output — while the fuzzer-found fz-* documents get goldens
// of their own (regenerate with -update). Because fz-* documents pin
// their seed and machine, their cliff numbers reproduce here whatever
// the environment.
func TestCorpusGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario documents in %s", corpusDir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		path := path
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(doc.ID, func(t *testing.T) {
			t.Parallel()
			var out, errBuf strings.Builder
			if code := run([]string{"-quick", "-scenario", path}, &out, &errBuf); code != 0 {
				t.Fatalf("exit %d: %s", code, errBuf.String())
			}
			golden := filepath.Join("testdata", "golden", doc.ID+".txt")
			if *update && !strings.HasPrefix(doc.ID, "ext-") {
				// Twin goldens belong to TestGoldenQuick; rewriting them here
				// would mask a twin-vs-registered divergence.
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/latbench -update`): %v", err)
			}
			if !bytes.Equal(want, []byte(out.String())) {
				t.Fatalf("output differs from %s (lens %d vs %d):\n%s",
					golden, len(want), out.Len(), firstDiff(want, []byte(out.String())))
			}
		})
	}
}

// TestCorpusGoldenBatched replays the whole corpus as one -run corpus
// suite on a 4-worker pool and requires each document's section of the
// combined rendering to match its golden byte for byte — proof that
// running the documents together, concurrently, changes nothing
// against replaying each alone. It never rewrites goldens (those belong
// to TestCorpusGolden).
func TestCorpusGoldenBatched(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario documents in %s", corpusDir)
	}
	sort.Strings(paths)
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-jobs", "4", "-run", "corpus", "-corpus", corpusDir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	sections := strings.Split(out.String(), strings.Repeat("=", 90)+"\n")
	if len(sections) != len(paths) {
		t.Fatalf("batched replay rendered %d sections for %d documents", len(sections), len(paths))
	}
	for i, path := range paths {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got := []byte(sections[i])
		t.Run(doc.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", doc.ID+".txt"))
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/latbench -update`): %v", err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("batched-replay output differs from the golden (lens %d vs %d):\n%s",
					len(want), len(got), firstDiff(want, got))
			}
		})
	}
}

// TestRunCorpus checks -run corpus against an explicit -machine: a
// scenario that pins a conflicting machine is refused without -force,
// and -force lets the scenario win. That every document compiles, runs
// and renders its golden under -run corpus is TestCorpusGoldenBatched's
// proof.
func TestRunCorpus(t *testing.T) {
	var out, errBuf strings.Builder
	// The corpus contains fz-* documents pinning machines other than
	// p200, so an explicit -machine must be refused...
	if code := run([]string{"-quick", "-run", "corpus", "-corpus", corpusDir, "-machine", "p200"}, &out, &errBuf); code != 1 {
		t.Fatalf("conflicting -machine: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "-force") {
		t.Errorf("conflict error should mention -force, got: %s", errBuf.String())
	}

	out.Reset()
	errBuf.Reset()
	// ...and -force lets the scenarios win.
	if code := run([]string{"-quick", "-run", "corpus", "-corpus", corpusDir, "-machine", "p200", "-force"}, &out, &errBuf); code != 0 {
		t.Fatalf("-force: exit %d: %s", code, errBuf.String())
	}
}
