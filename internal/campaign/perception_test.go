package campaign

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// runMiniPerception runs the mini campaign with "perception": true. The
// spec is written next to mini.json so the scenario path resolves.
func runMiniPerception(t *testing.T, opt Options) ([]byte, Summary) {
	t.Helper()
	base, err := os.ReadFile("testdata/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := strings.Replace(string(base), `"id": "mini",`, `"id": "mini",
  "perception": true,`, 1)
	if spec == string(base) {
		t.Fatal("failed to splice the perception flag into the mini spec")
	}
	path := "testdata/mini-perception.json"
	writeFile(t, path, spec)
	t.Cleanup(func() { os.Remove(path) })
	c, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Spec.Perception {
		t.Fatal("spec did not parse the perception flag")
	}
	var buf bytes.Buffer
	sum, err := RunCells(t.Context(), c, Cells(c), opt, func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestPerceptionLedgerBlock runs the mini campaign with the perception
// flag and checks the ledger contract: every record carries a
// class-complete perception block, the ledger round-trips through the
// strict canonical-form parser, and stripping the block reproduces the
// flag-off ledger byte for byte — the flag adds a column, it never
// moves the headline numbers.
func TestPerceptionLedgerBlock(t *testing.T) {
	opt := Options{Jobs: 2, Quick: true}
	ledger, sum := runMiniPerception(t, opt)
	if sum.Cells != 8 {
		t.Fatalf("summary = %+v, want 8 cells", sum)
	}
	recs, err := ParseLedger(ledger)
	if err != nil {
		t.Fatalf("perception ledger failed the canonical parser: %v", err)
	}
	for i, r := range recs {
		p := r.Perception
		if p == nil {
			t.Fatalf("record %d has no perception block", i)
		}
		if got := p.ClassTotal(); got != r.Events {
			t.Errorf("record %d: class total %d, want %d", i, got, r.Events)
		}
		// The mini scenario is a typing workload: its events are
		// keystrokes, so the typing sketch must hold them all.
		if p.Typing == nil || p.Typing.Count() != r.Events {
			t.Errorf("record %d: typing sketch does not hold every event", i)
		}
		if p.Pointing != nil || p.Command != nil {
			t.Errorf("record %d: pointing/command sketches present for a typing workload", i)
		}
	}
	// Strip the block; the remainder must be the flag-off ledger.
	var stripped bytes.Buffer
	for _, r := range recs {
		r.Perception = nil
		if err := AppendRecord(&stripped, r); err != nil {
			t.Fatal(err)
		}
	}
	baseLedger, _ := runMiniOpt(t, opt)
	if !bytes.Equal(stripped.Bytes(), baseLedger) {
		t.Error("perception flag perturbed the headline ledger bytes")
	}
}

// TestPerceptionAnalyzeTable: analyze renders the per-class table for a
// perception ledger and — the inertness half — omits it entirely for a
// ledger without the block.
func TestPerceptionAnalyzeTable(t *testing.T) {
	ledger, _ := runMiniPerception(t, Options{Jobs: 1, Quick: true})
	recs, err := ParseLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := a.Render(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"perception classes", "impercep", "typing-p95"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("perception render missing %q:\n%s", want, out.String())
		}
	}
	// Merged counts must cover the whole campaign.
	for _, c := range a.Configs {
		if c.Perception == nil {
			t.Fatalf("config %s lost its perception block in analyze", c.Key())
		}
		if got := c.Perception.ClassTotal(); got != c.Sketch.Count() {
			t.Errorf("config %s: merged class total %d, want %d", c.Key(), got, c.Sketch.Count())
		}
	}
	// Flag-off ledgers must not grow the table.
	baseLedger, _ := runMini(t, 1)
	baseRecs, err := ParseLedger(baseLedger)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := Analyze(baseRecs)
	if err != nil {
		t.Fatal(err)
	}
	var baseOut strings.Builder
	if err := ab.Render(&baseOut); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(baseOut.String(), "perception") {
		t.Error("flag-off analyze output mentions perception")
	}
}
