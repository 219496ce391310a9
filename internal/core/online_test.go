package core_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"latlab/internal/core"
	"latlab/internal/experiments"
	"latlab/internal/scenario"
)

// TestOnlineFSMMatchesReference cross-checks the probe's online FSM on
// real sessions: every committed scenario document (each compare row of
// a compare document) and scenfuzz seeds 1-64, in quick mode. Each
// session runs twice. The first runs as every session does and reports
// through Result. The second runs with a hook recorder in place of its
// probe, and the reference FSM replays the log for the application
// thread, which is the focused thread because every application spawns
// through SpawnApp. Opening a session fires hooks before the recorder
// can go in, all at instant 0, so the replay starts from the inputs the
// machine held there. Think, wait and the transition count must agree,
// and the reference log must partition the run.
func TestOnlineFSMMatchesReference(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus documents (err %v)", err)
	}
	type named struct {
		name string
		doc  scenario.Doc
	}
	var docs []named
	for _, path := range paths {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Compare) == 0 {
			docs = append(docs, named{"corpus/" + doc.ID, doc})
			continue
		}
		for _, row := range doc.Compare {
			d := doc
			d.Compare = nil
			if !row.Faulted {
				d.Faults = nil
			}
			docs = append(docs, named{"corpus/" + doc.ID + "/" + row.Label, d})
		}
	}
	for seed := uint64(1); seed <= 64; seed++ {
		docs = append(docs, named{fmt.Sprintf("scenfuzz/%d", seed), scenario.Generate(seed, scenario.Constraints{})})
	}
	cfg := experiments.Config{Seed: 1996, Quick: true}
	for _, c := range docs {
		doc := c.doc
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s, err := experiments.OpenScenarioSession(cfg, doc)
			if err != nil {
				t.Fatal(err)
			}
			s.Drive()
			row := s.Result().Row

			s, err = experiments.OpenScenarioSession(cfg, doc)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if now := s.Sys().K.Now(); now != 0 {
				t.Fatalf("opening the session ran its machine to %v; the reference cannot see what it missed", now)
			}
			replay := core.RecordHooks(s.Sys().K, s.Sys().Focus())
			s.Drive()
			ref := replay(s.Sys().K.Now())
			if ref.Partition != "" {
				t.Fatal(ref.Partition)
			}
			if ref.Transitions == 0 {
				t.Fatal("the session made no think/wait transition")
			}
			got := fmt.Sprintf("%v/%v/%d", row.ThinkMs, row.WaitMs, row.Transitions)
			want := fmt.Sprintf("%v/%v/%d", ref.Think.Milliseconds(), ref.Wait.Milliseconds(), ref.Transitions)
			if got != want {
				t.Fatalf("online think/wait ms/transitions %s, reference %s", got, want)
			}
		})
	}
}
