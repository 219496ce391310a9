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
	"latlab/internal/simtime"
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

// TestScenarioFSMConservation is the think/wait law on real sessions:
// for every committed corpus document in quick mode (each compare row
// of a compare document), the Fig. 2 FSM the session's probe ran online
// covers the whole run: think + wait equals the end time exactly, and
// at least one transition happened. That the transitions alternate and
// accrue exactly the totals is held against the reference log FSM in
// internal/core's tests, on these same documents.
func TestScenarioFSMConservation(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(twinDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus documents under %s (err %v)", twinDir, err)
	}
	cfg := DefaultConfig()
	cfg.Quick = true
	for _, path := range paths {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := []scenario.Row{{Label: "run", Faulted: true}}
		if len(doc.Compare) > 0 {
			rows = doc.Compare
		}
		for _, row := range rows {
			d := doc
			d.Compare = nil
			if !row.Faulted {
				d.Faults = nil
			}
			t.Run(doc.ID+"/"+row.Label, func(t *testing.T) {
				t.Parallel()
				s, err := OpenScenarioSession(cfg, d)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for !s.finished {
					s.r.sys.K.Run(s.target)
					s.OnTarget()
				}
				end := s.r.sys.K.Now()
				f := s.r.pr.FSM(end)
				if f.Transitions() == 0 {
					t.Fatalf("session ended at %v without a think/wait transition", end)
				}
				if think, wait := f.ThinkTime(), f.WaitTime(); think+wait != simtime.Duration(end) {
					t.Fatalf("think %v + wait %v = %v, want end %v", think, wait, think+wait, end)
				}
			})
		}
	}
}
