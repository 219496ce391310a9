package campaign

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// faultsSpecJSON is mini.json plus a two-variant faults axis.
const faultsSpecJSON = `{
  "schema": 1,
  "id": "mini-faults",
  "title": "t",
  "personas": ["nt40"],
  "machines": ["p100"],
  "faults": ["none", "irq-storm"],
  "scenarios": ["s.json"],
  "seeds": {"start": 1, "count": 4, "per_cell": 2}
}`

func TestParseSpecFaultsAxis(t *testing.T) {
	s, err := ParseSpec([]byte(faultsSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	// The axis multiplies the cube: 1 scenario x 1 persona x 1 machine
	// x 2 variants x 4 seeds.
	if s.Sessions() != 8 {
		t.Errorf("Sessions() = %d, want 8", s.Sessions())
	}
}

func TestParseSpecFaultsAxisRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown variant", strings.Replace(faultsSpecJSON, `"none", "irq-storm"`, `"meteor-strike"`, 1), "fault variant"},
		{"duplicate variant", strings.Replace(faultsSpecJSON, `"none", "irq-storm"`, `"none", "none"`, 1), "duplicate fault variant"},
		{"empty variant", strings.Replace(faultsSpecJSON, `"none", "irq-storm"`, `""`, 1), "empty fault variant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	// Cell-list specs get the same variant validation, and cube axes
	// stay mutually exclusive with cells.
	bad := `{"schema":1,"id":"a","title":"t","scenarios":["s.json"],"cells":[{"scenario":"s","persona":"nt40","machine":"p100","faults":"meteor","seed_start":1,"seed_count":1}]}`
	if _, err := ParseSpec([]byte(bad)); err == nil || !strings.Contains(err.Error(), "fault variant") {
		t.Errorf("cell-list variant error = %v", err)
	}
	both := strings.Replace(validSpecJSON, `"scenarios"`, `"cells": [{"scenario":"s","persona":"nt40","machine":"p100","seed_start":1,"seed_count":1}], "scenarios"`, 1)
	if _, err := ParseSpec([]byte(both)); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("cells+axes error = %v", err)
	}
}

// loadFaultsMini loads the mini campaign with a faults axis patched in.
func loadFaultsMini(t *testing.T) *Campaign {
	t.Helper()
	dir := t.TempDir()
	tiny, err := os.ReadFile("testdata/tiny-type.json")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir+"/tiny-type.json", string(tiny))
	spec := strings.Replace(faultsSpecJSON, `"s.json"`, `"tiny-type.json"`, 1)
	writeFile(t, dir+"/spec.json", spec)
	c, err := LoadSpec(dir + "/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCellsExpandFaultsAxis(t *testing.T) {
	cells := Cells(loadFaultsMini(t))
	// 1 scenario x 1 persona x 1 machine x 2 variants x 2 chunks.
	want := []string{
		"tiny-type/nt40/p100/none/1+2",
		"tiny-type/nt40/p100/none/3+2",
		"tiny-type/nt40/p100/irq-storm/1+2",
		"tiny-type/nt40/p100/irq-storm/3+2",
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, cell := range cells {
		if cell.ID() != want[i] {
			t.Errorf("cell %d = %s, want %s", i, cell.ID(), want[i])
		}
	}
	// The "none" variant strips the template's fault block; a kind
	// variant replaces it with a derived plan over the default span
	// (the template pins none).
	if cells[0].Doc.Faults != nil {
		t.Errorf("none variant kept fault block %+v", cells[0].Doc.Faults)
	}
	f := cells[2].Doc.Faults
	if f == nil || len(f.Kinds) != 1 || f.Kinds[0] != "irq-storm" {
		t.Fatalf("derived variant block = %+v", f)
	}
	if f.SpanS != DefaultFaultSpanS || f.QuickSpanS != DefaultQuickFaultSpanS {
		t.Errorf("derived span %v/%v, want defaults %v/%v", f.SpanS, f.QuickSpanS, DefaultFaultSpanS, DefaultQuickFaultSpanS)
	}
	if err := cells[2].Doc.Validate(); err != nil {
		t.Errorf("derived doc invalid: %v", err)
	}
}

func TestRunFaultsAxisCampaign(t *testing.T) {
	c := loadFaultsMini(t)
	var buf bytes.Buffer
	sum, err := RunCells(context.Background(), c, Cells(c), Options{Jobs: 2, Quick: true},
		func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 4 || sum.Sessions != 8 {
		t.Fatalf("summary = %+v, want 4 cells / 8 sessions", sum)
	}
	recs, err := ParseLedger(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(c)
	for i, r := range recs {
		if r.Cell() != cells[i].ID() {
			t.Errorf("record %d is cell %s, want %s", i, r.Cell(), cells[i].ID())
		}
		if r.Faults != cells[i].Faults {
			t.Errorf("record %d faults %q, want %q", i, r.Faults, cells[i].Faults)
		}
	}
	// The ledger round-trips through analyze with per-variant configs,
	// and the suggested cells re-emit as a runnable spec that carries
	// the variant — the `analyze -emit-spec` loop.
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Configs) != 2 {
		t.Fatalf("%d configs, want 2 (one per variant): %+v", len(a.Configs), a.Configs)
	}
	for _, n := range a.SuggestedNext {
		if err := validFaultVariant(n.Faults); err != nil {
			t.Errorf("suggested cell lost its variant: %+v", n)
		}
	}
	spec, err := a.NextSpec(map[string]string{"tiny-type": "tiny-type.json"})
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range spec.Cells {
		if ref.Faults != a.SuggestedNext[i].Faults {
			t.Errorf("emitted cell %d faults %q, want %q", i, ref.Faults, a.SuggestedNext[i].Faults)
		}
	}
	data, err := MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("emitted spec does not re-parse: %v", err)
	}
	for i, ref := range back.Cells {
		if ref != spec.Cells[i] {
			t.Errorf("cell %d did not round-trip: %+v != %+v", i, ref, spec.Cells[i])
		}
	}
	// A resume planned over the full ledger has nothing left to run.
	r := NewResume(c, true, Options{}.SketchAlpha())
	for _, rec := range recs {
		if err := r.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	if missing, _ := r.Missing(nil, 1); len(missing) != 0 {
		t.Errorf("resume found %d missing cells in a complete ledger", len(missing))
	}
}
