package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"latlab/internal/scenario"
)

// -update rewrites the JSON twins under testdata/scenarios/ from the
// Go-declared documents, so the two can never drift by hand-editing:
//
//	go test ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite testdata/scenarios twins from the Go-declared documents")

// twinDir is the committed scenario corpus, shared with latbench's
// -run corpus default.
const twinDir = "../../testdata/scenarios"

// TestScenarioTwinsMatchGoRegistered is the matrix proof behind the
// ext-faults family: each JSON twin parses to exactly the Go-declared
// document, and running the file-compiled spec renders byte-identically
// to the registered experiment, in both quick and full mode.
func TestScenarioTwinsMatchGoRegistered(t *testing.T) {
	for _, doc := range extFaultsDocs() {
		doc := doc
		t.Run(doc.ID, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(twinDir, doc.ID+".json")
			if *update {
				data, err := scenario.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			parsed, err := scenario.ParseFile(path)
			if err != nil {
				t.Fatalf("missing or invalid twin (run `go test ./internal/experiments -update`): %v", err)
			}
			if !reflect.DeepEqual(parsed, doc) {
				t.Fatalf("twin %s drifted from the Go-declared document:\nfile: %+v\ncode: %+v", path, parsed, doc)
			}
			fileSpec, err := FromScenario(parsed)
			if err != nil {
				t.Fatal(err)
			}
			goSpec, ok := ByID(doc.ID)
			if !ok {
				t.Fatalf("%s not registered", doc.ID)
			}
			for _, quick := range []bool{true, false} {
				cfg := Config{Seed: 1996, Quick: quick}
				if testing.Short() && !quick {
					continue
				}
				if got, want := renderOf(t, fileSpec, cfg), renderOf(t, goSpec, cfg); got != want {
					t.Fatalf("quick=%v: file-compiled output differs from registered output (lens %d vs %d)",
						quick, len(got), len(want))
				}
			}
		})
	}
}

// renderOf runs spec under cfg and returns its rendered text.
func renderOf(t *testing.T, spec Spec, cfg Config) string {
	t.Helper()
	res, err := spec.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
