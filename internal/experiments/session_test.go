package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"latlab/internal/scenario"
	"latlab/internal/system"
	"latlab/internal/trace"
)

// TestBatchSessionEquivalence pins the decomposition contract stated in
// session.go: a session stepped inside a system.Batch produces exactly
// the result the sequential path produces for the same Config and Doc —
// same seeds, arena-backed instrument buffers and all.
// Every fuzzer-found corpus document (each pins its seed and machine)
// runs once alone and once interleaved with the whole set in one batch,
// and the two ScenarioResults must be deeply equal. The batched sessions
// are closed before Result, in the order campaigns use.
func TestBatchSessionEquivalence(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(twinDir, "fz-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("need at least 2 corpus documents to interleave, found %d", len(paths))
	}
	sort.Strings(paths)
	var docs []scenario.Doc
	for _, path := range paths {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(doc.Compare) > 0 {
			continue
		}
		docs = append(docs, doc)
	}
	cfg := Config{Seed: 1996, Quick: true}

	// Sequential reference: each document run alone.
	want := make([]*ScenarioResult, len(docs))
	for i, doc := range docs {
		spec, err := FromScenario(doc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", doc.ID, err)
		}
		want[i] = res.(*ScenarioResult)
	}

	// The same documents opened into one batch and stepped interleaved.
	b := system.NewBatch(len(docs))
	open := make([]*ScenarioSession, len(docs))
	for i, doc := range docs {
		c := cfg
		c.IdleArena = b.Arena(i)
		s, err := OpenScenarioSession(c, doc)
		if err != nil {
			t.Fatalf("%s: %v", doc.ID, err)
		}
		open[i] = s
		b.Open(i, s)
	}
	b.Run()
	// Campaigns close every session of a wave before extracting any.
	for _, s := range open {
		s.Close()
	}
	for i, s := range open {
		got := s.Result()
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: batched session result differs from the sequential run:\nbatched:    %+v\nsequential: %+v",
				docs[i].ID, got, want[i])
		}
	}
}

// singleRunDocs returns every single-run scenario a session can open
// that the repository commits: the scenario corpus and the campaign
// templates (the demo's two and the engine tests' mini campaign's).
func singleRunDocs(t *testing.T) []scenario.Doc {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(twinDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths,
		"../../testdata/campaigns/demo-type.json",
		"../../testdata/campaigns/demo-storm.json",
		"../campaign/testdata/tiny-type.json")
	var docs []scenario.Doc
	for _, path := range paths {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(doc.Compare) == 0 {
			docs = append(docs, doc)
		}
	}
	if len(docs) < 9 {
		t.Fatalf("found %d single-run documents, want the corpus's six and three templates", len(docs))
	}
	return docs
}

// openDriven opens doc under cfg and drives it to the end of its
// program, leaving it open.
func openDriven(t *testing.T, cfg Config, doc scenario.Doc) *ScenarioSession {
	t.Helper()
	s, err := OpenScenarioSession(cfg, doc)
	if err != nil {
		t.Fatalf("%s: %v", doc.ID, err)
	}
	s.drive()
	return s
}

// TestEventsMatchResult pins the ledger path: for every single-run
// document, in quick and full mode, a session read with Events returns
// exactly the events a session of the same document reports in
// Result().Row.Report.Events. The ledger sessions record into one
// reused arena, as a campaign slot's do.
func TestEventsMatchResult(t *testing.T) {
	arena := new([]trace.IdleSample)
	for _, doc := range singleRunDocs(t) {
		for _, quick := range []bool{true, false} {
			cfg := Config{Seed: 1996, Quick: quick}
			want := openDriven(t, cfg, doc).Result().Row.Report.Events

			cfg.IdleArena = arena
			got := openDriven(t, cfg, doc).Events()
			if len(want) == 0 {
				t.Errorf("%s quick=%t: no events to compare", doc.ID, quick)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s quick=%t: Events differ from Result's events:\nEvents: %v\nResult: %v", doc.ID, quick, got, want)
			}
		}
	}
}

// TestLedgerSessionResult pins that a session opened exactly as
// campaign.RunCells opens one — on a batch slot's arena, stepped in the
// batch and closed before it is read — reports through Result the
// think/wait row runScenario reports for the same document and seed.
// Each campaign template runs at two seeds through one slot, so the
// second session records into the arena the first one grew.
func TestLedgerSessionResult(t *testing.T) {
	b := system.NewBatch(1)
	for _, path := range []string{
		"../../testdata/campaigns/demo-type.json",
		"../../testdata/campaigns/demo-storm.json",
		"../campaign/testdata/tiny-type.json",
	} {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			res, err := runScenario(context.Background(), Config{Seed: seed, Quick: true}, doc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", doc.ID, seed, err)
			}
			want := res.(*ScenarioResult).Row
			s, err := OpenScenarioSession(Config{Seed: seed, Quick: true, IdleArena: b.Arena(0)}, doc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", doc.ID, seed, err)
			}
			b.Open(0, s)
			b.Run()
			s.Close()
			b.Reset()
			got := s.Result().Row
			if got.Transitions == 0 {
				t.Errorf("%s seed %d: no think/wait transition", doc.ID, seed)
			}
			if got.ThinkMs != want.ThinkMs || got.WaitMs != want.WaitMs || got.Transitions != want.Transitions {
				t.Errorf("%s seed %d: ledger session think/wait/transitions %v/%v/%d, runScenario %v/%v/%d",
					doc.ID, seed, got.ThinkMs, got.WaitMs, got.Transitions, want.ThinkMs, want.WaitMs, want.Transitions)
			}
		}
	}
}

// TestArenaGrowsByUse pins the slot arena's sizing: a session that
// records n idle samples into an empty arena leaves it holding at least
// n and fewer than 2n, and a following session that records no more
// records into that same array without reallocating it.
func TestArenaGrowsByUse(t *testing.T) {
	long, err := scenario.ParseFile(filepath.Join(twinDir, "fz-000000000000001b.json"))
	if err != nil {
		t.Fatal(err)
	}
	short, err := scenario.ParseFile("../../testdata/campaigns/demo-type.json")
	if err != nil {
		t.Fatal(err)
	}
	arena := new([]trace.IdleSample)
	cfg := Config{Seed: 1996, Quick: true, IdleArena: arena}

	s := openDriven(t, cfg, long)
	n := len(s.r.il.Samples())
	s.Close()
	if c := cap(*arena); n == 0 || c < n || c >= 2*n {
		t.Fatalf("a session of %d samples left an arena of capacity %d, want [%d, %d)", n, c, n, 2*n)
	}
	grown, first := cap(*arena), &(*arena)[:1][0]

	for _, doc := range []scenario.Doc{long, short} {
		s := openDriven(t, cfg, doc)
		m := len(s.r.il.Samples())
		s.Close()
		if m > n {
			t.Fatalf("%s recorded %d samples, more than the first session's %d", doc.ID, m, n)
		}
		if cap(*arena) != grown || &(*arena)[:1][0] != first {
			t.Errorf("%s (%d samples) reallocated the arena: capacity %d, was %d", doc.ID, m, cap(*arena), grown)
		}
	}
}
