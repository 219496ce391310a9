package campaign

import (
	"os"
	"strings"
	"testing"
)

// writeFile writes a test fixture, failing the test on error.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// validSpecJSON is a minimal valid spec the mutation tests start from.
const validSpecJSON = `{
  "schema": 1,
  "id": "demo",
  "title": "t",
  "personas": ["nt40"],
  "machines": ["p100"],
  "scenarios": ["s.json"],
  "seeds": {"start": 1, "count": 10, "per_cell": 4}
}`

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "demo" || s.Sessions() != 10 {
		t.Errorf("parsed spec = %+v", s)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"schema":1,"id":"a","title":"t","bogus":1,"personas":["nt40"],"machines":["p100"],"scenarios":["s.json"],"seeds":{"start":1,"count":1,"per_cell":1}}`, "bogus"},
		{"bad schema", strings.Replace(validSpecJSON, `"schema": 1`, `"schema": 9`, 1), "schema"},
		{"bad id", strings.Replace(validSpecJSON, `"id": "demo"`, `"id": "Demo!"`, 1), "slug"},
		{"no title", strings.Replace(validSpecJSON, `"title": "t"`, `"title": ""`, 1), "title"},
		{"unknown persona", strings.Replace(validSpecJSON, `"personas": ["nt40"]`, `"personas": ["dos"]`, 1), "persona"},
		{"dup persona", strings.Replace(validSpecJSON, `"personas": ["nt40"]`, `"personas": ["nt40", "nt40"]`, 1), "duplicate persona"},
		{"unknown machine", strings.Replace(validSpecJSON, `"machines": ["p100"]`, `"machines": ["cray"]`, 1), "machine"},
		{"dup machine", strings.Replace(validSpecJSON, `"machines": ["p100"]`, `"machines": ["p100", "p100"]`, 1), "duplicate machine"},
		{"no scenarios", strings.Replace(validSpecJSON, `"scenarios": ["s.json"]`, `"scenarios": []`, 1), "scenario"},
		{"seed zero", strings.Replace(validSpecJSON, `"start": 1`, `"start": 0`, 1), "seeds.start"},
		{"zero count", strings.Replace(validSpecJSON, `"count": 10`, `"count": 0`, 1), "seeds.count"},
		{"per_cell over count", strings.Replace(validSpecJSON, `"per_cell": 4`, `"per_cell": 11`, 1), "per_cell"},
		{"trailing data", validSpecJSON + `{"more": 1}`, "trailing"},
		{"trailing non-JSON", validSpecJSON + `}`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLoadSpecResolvesScenarios(t *testing.T) {
	c, err := LoadSpec("testdata/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 1 || c.Docs[0].ID != "tiny-type" {
		t.Fatalf("docs = %+v", c.Docs)
	}
}

func TestCellsExpansion(t *testing.T) {
	c, err := LoadSpec("testdata/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(c)
	// 1 scenario x 2 personas x 1 machine x ceil(24/6)=4 chunks.
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	wantFirst := "tiny-type/nt40/p100/1+6"
	if cells[0].ID() != wantFirst {
		t.Errorf("first cell %s, want %s", cells[0].ID(), wantFirst)
	}
	// Expansion order: all nt40 chunks before any w95 chunk; ascending
	// seed chunks within a configuration; indexes sequential.
	seenW95 := false
	var prevStart uint64
	for i, cell := range cells {
		if cell.Index != i {
			t.Errorf("cell %d has index %d", i, cell.Index)
		}
		if cell.Persona == "w95" {
			seenW95 = true
			continue
		}
		if seenW95 {
			t.Fatalf("nt40 cell after w95 at %d", i)
		}
		if cell.SeedStart <= prevStart {
			t.Errorf("seed chunks not ascending at cell %d", i)
		}
		prevStart = cell.SeedStart
	}
	// Seeds tile the range exactly.
	total := 0
	for _, cell := range cells {
		total += cell.SeedCount
		if cell.Doc.Seed != 0 {
			t.Errorf("cell %s doc pins seed %d", cell.ID(), cell.Doc.Seed)
		}
		if cell.Doc.Persona != cell.Persona || cell.Doc.Machine != cell.Machine {
			t.Errorf("cell %s doc not re-pointed: %s/%s", cell.ID(), cell.Doc.Persona, cell.Doc.Machine)
		}
	}
	if total != 2*24 {
		t.Errorf("cells cover %d seeds, want 48", total)
	}
}

func TestLoadSpecRejectsCompareDocs(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/cmp.json", `{
  "schema": 1, "id": "cmp", "title": "t", "paper": "p", "persona": "nt40",
  "workload": {"kind": "typing", "full": {"chars": 8}},
  "compare": [{"label": "clean", "faulted": false}]
}`)
	writeFile(t, dir+"/spec.json", `{
  "schema": 1, "id": "c", "title": "t",
  "personas": ["nt40"], "machines": ["p100"], "scenarios": ["cmp.json"],
  "seeds": {"start": 1, "count": 1, "per_cell": 1}
}`)
	if _, err := LoadSpec(dir + "/spec.json"); err == nil || !strings.Contains(err.Error(), "compare") {
		t.Fatalf("want compare-row rejection, got %v", err)
	}
}

func TestLoadSpecRejectsDuplicateScenarioIDs(t *testing.T) {
	dir := t.TempDir()
	doc := `{
  "schema": 1, "id": "same", "title": "t", "paper": "p", "persona": "nt40",
  "workload": {"kind": "typing", "full": {"chars": 8}}
}`
	writeFile(t, dir+"/a.json", doc)
	writeFile(t, dir+"/b.json", doc)
	writeFile(t, dir+"/spec.json", `{
  "schema": 1, "id": "c", "title": "t",
  "personas": ["nt40"], "machines": ["p100"], "scenarios": ["a.json", "b.json"],
  "seeds": {"start": 1, "count": 1, "per_cell": 1}
}`)
	if _, err := LoadSpec(dir + "/spec.json"); err == nil || !strings.Contains(err.Error(), "duplicate scenario") {
		t.Fatalf("want duplicate-id rejection, got %v", err)
	}
}

// cellSpecJSON is a minimal valid explicit-cell-list spec.
const cellSpecJSON = `{
  "schema": 1,
  "id": "demo-next",
  "title": "t",
  "scenarios": ["s.json"],
  "cells": [
    {"scenario": "s", "persona": "nt40", "machine": "p100", "seed_start": 1, "seed_count": 3},
    {"scenario": "s", "persona": "w95", "machine": "p100", "seed_start": 4, "seed_count": 3}
  ]
}`

func TestParseSpecCellList(t *testing.T) {
	s, err := ParseSpec([]byte(cellSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells) != 2 || s.Sessions() != 6 {
		t.Errorf("parsed spec = %+v", s)
	}
	if got := s.Cells[0].ID(); got != "s/nt40/p100/1+3" {
		t.Errorf("cell id %q", got)
	}
}

func TestParseSpecCellListRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"cells plus personas", func(s string) string {
			return strings.Replace(s, `"scenarios"`, `"personas": ["nt40"], "scenarios"`, 1)
		}, "mutually exclusive"},
		{"cells plus seeds", func(s string) string {
			return strings.Replace(s, `"scenarios"`, `"seeds": {"start":1,"count":2,"per_cell":1}, "scenarios"`, 1)
		}, "mutually exclusive"},
		{"unknown persona", func(s string) string {
			return strings.Replace(s, `"persona": "nt40"`, `"persona": "bogus"`, 1)
		}, "unknown persona"},
		{"unknown machine", func(s string) string {
			return strings.Replace(s, `"machine": "p100", "seed_start": 1`, `"machine": "bogus", "seed_start": 1`, 1)
		}, "unknown machine"},
		{"zero seed start", func(s string) string {
			return strings.Replace(s, `"seed_start": 1`, `"seed_start": 0`, 1)
		}, "seed_start"},
		{"zero seed count", func(s string) string {
			return strings.Replace(s, `"seed_count": 3}`, `"seed_count": 0}`, 1)
		}, "seed_count"},
		{"no scenario id", func(s string) string {
			return strings.Replace(s, `{"scenario": "s", "persona": "nt40"`, `{"scenario": "", "persona": "nt40"`, 1)
		}, "no scenario id"},
		{"duplicate cell", func(s string) string {
			return strings.Replace(s, `"persona": "w95", "machine": "p100", "seed_start": 4`,
				`"persona": "nt40", "machine": "p100", "seed_start": 1`, 1)
		}, "duplicate cell"},
	}
	for _, tc := range cases {
		mutated := tc.mutate(cellSpecJSON)
		if mutated == cellSpecJSON {
			t.Fatalf("%s: mutation did not change the spec", tc.name)
		}
		if _, err := ParseSpec([]byte(mutated)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestMarshalSpecRoundTrips(t *testing.T) {
	for _, src := range []string{validSpecJSON, cellSpecJSON} {
		s, err := ParseSpec([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("marshaled spec does not re-parse: %v\n%s", err, data)
		}
		if again.ID != s.ID || len(again.Cells) != len(s.Cells) || again.Sessions() != s.Sessions() {
			t.Errorf("round trip changed the spec:\n%+v\nvs\n%+v", s, again)
		}
		// Deterministic bytes.
		data2, err := MarshalSpec(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Error("MarshalSpec is not deterministic")
		}
	}
}

// TestNextSpecRoundTrip closes the analyze → emit-spec → run loop at
// the library level: the emitted spec must load, expand to exactly the
// suggested cells, and run.
func TestNextSpecRoundTrip(t *testing.T) {
	ledger, _ := runMini(t, 2)
	recs, err := ParseLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	next, err := a.NextSpec(map[string]string{"tiny-type": "tiny-type.json"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "mini-next" || len(next.Cells) != len(a.SuggestedNext) {
		t.Fatalf("next spec %+v", next)
	}
	data, err := MarshalSpec(next)
	if err != nil {
		t.Fatal(err)
	}
	// Write next to the testdata dir so its scenario path resolves.
	path := "testdata/emitted-next.json"
	writeFile(t, path, string(data))
	t.Cleanup(func() { os.Remove(path) })
	c, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(c)
	if len(cells) != len(a.SuggestedNext) {
		t.Fatalf("%d cells, want %d", len(cells), len(a.SuggestedNext))
	}
	for i, n := range a.SuggestedNext {
		want := Quarantine{Scenario: n.Scenario, Persona: n.Persona, Machine: n.Machine,
			SeedStart: n.SeedStart, SeedCount: n.SeedCount}.Cell()
		if cells[i].ID() != want {
			t.Errorf("cell %d = %s, want %s", i, cells[i].ID(), want)
		}
	}
	// An unknown scenario id must refuse, not emit a dangling reference.
	if _, err := a.NextSpec(map[string]string{}); err == nil {
		t.Error("NextSpec with no path mapping must error")
	}
}
