package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"latlab/internal/scenario"
	"latlab/internal/system"
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
