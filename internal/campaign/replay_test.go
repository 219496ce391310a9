package campaign

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"latlab/internal/experiments"
	"latlab/internal/scenario"
	"latlab/internal/stats"
)

// everySeedRecord folds a cell with every seed simulated: the per-seed
// loop runCell ran before it replayed seed-free sessions, kept here as
// the oracle.
func everySeedRecord(t *testing.T, campaignID string, cell Cell, quick bool) Record {
	t.Helper()
	f := newCellFold(stats.DefaultSketchAlpha, cell.Perception)
	for i := 0; i < cell.SeedCount; i++ {
		seed := cell.SeedStart + uint64(i)
		events, _, err := sessionEvents(cell.Doc, experiments.Config{Seed: seed, Quick: quick})
		if err != nil {
			t.Fatalf("%s seed %d: %v", cell.ID(), seed, err)
		}
		f.add(events)
	}
	return f.record(campaignID, cell, quick)
}

// requireReplayMatchesOracle runs cells through RunCells and requires
// every record to encode, through the ledger codec, byte for byte as
// the oracle's does. It returns the run's summary.
func requireReplayMatchesOracle(t *testing.T, c *Campaign, cells []Cell, quick bool) Summary {
	t.Helper()
	var got [][]byte
	sum, err := RunCells(context.Background(), c, cells, Options{Jobs: 2, Quick: quick},
		func(r Record) error {
			var b bytes.Buffer
			if err := AppendRecord(&b, r); err != nil {
				return err
			}
			got = append(got, b.Bytes())
			return nil
		})
	if err != nil || len(sum.Quarantined) > 0 || len(got) != len(cells) {
		t.Fatalf("run: %v, %d records for %d cells, summary %+v", err, len(got), len(cells), sum)
	}
	t.Logf("%s: %d of %d sessions simulated", c.Spec.ID, sum.Simulated, sum.Sessions)
	for i, cell := range cells {
		var want bytes.Buffer
		if err := AppendRecord(&want, everySeedRecord(t, c.Spec.ID, cell, quick)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want.Bytes()) {
			t.Errorf("%s: replayed record differs from every seed simulated:\n%s\nwant:\n%s", cell.ID(), got[i], want.Bytes())
		}
	}
	return sum
}

// oneCell wraps doc as a one-cell campaign over seeds 1..n, the way
// Cells re-points a template: the document's own seed cleared, so each
// session takes its seed from the run, and no compare rows.
func oneCell(doc scenario.Doc, n int) (*Campaign, []Cell) {
	doc.Seed = 0
	doc.Compare = nil
	cell := Cell{Doc: doc, Scenario: doc.ID, Persona: doc.Persona, Machine: doc.Machine, SeedStart: 1, SeedCount: n}
	return &Campaign{Spec: Spec{ID: doc.ID}}, []Cell{cell}
}

// TestReplayMatchesEverySeed is the replay's oracle check: a cell that
// folds its representative's events for every seed that reaches nothing
// before the representative's end records exactly what simulating
// every seed records, on every cell of the committed demo (quick), both
// benchmark campaign specs (full), every committed scenario document
// and 32 generated ones as one-cell campaigns.
func TestReplayMatchesEverySeed(t *testing.T) {
	specs := []struct {
		path  string
		quick bool
	}{
		{"../../testdata/campaigns/demo.json", true},
		{"../../bench/workloads/campaign-long.json", false},
		{"../../bench/workloads/campaign-modern.json", false},
	}
	for _, s := range specs {
		t.Run(filepath.Base(s.path), func(t *testing.T) {
			t.Parallel()
			c, err := LoadSpec(s.path)
			if err != nil {
				t.Fatal(err)
			}
			requireReplayMatchesOracle(t, c, Cells(c), s.quick)
		})
	}
	t.Run("scenarios", func(t *testing.T) {
		t.Parallel()
		paths, err := filepath.Glob("../../testdata/scenarios/*.json")
		if err != nil || len(paths) == 0 {
			t.Fatalf("no committed scenarios: %v", err)
		}
		for _, path := range paths {
			doc, err := scenario.ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c, cells := oneCell(doc, 6)
			requireReplayMatchesOracle(t, c, cells, true)
		}
	})
	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		for seed := uint64(1); seed <= 32; seed++ {
			c, cells := oneCell(scenario.Generate(seed, scenario.Constraints{}), 4)
			requireReplayMatchesOracle(t, c, cells, true)
		}
	})
}

// TestReplaySimulatesStormInBurst runs a crafted cell whose irq-storm
// window opens, depending on the seed, during its keydown burst, after
// the burst, or after the session ends. The demo never has a storm reach
// an event, so without this cell the oracle check could not tell a
// replay that ignored the fault plan from a correct one. The cell must
// both replay and simulate sessions, and still record what simulating
// every seed records.
func TestReplaySimulatesStormInBurst(t *testing.T) {
	doc := scenario.Doc{
		Schema: scenario.SchemaVersion, ID: "storm-in-burst", Title: "storm in burst",
		Persona: "nt40", Machine: "p100",
		Workload: scenario.Workload{Kind: scenario.KindTyping, Full: scenario.Params{Chars: 5, TrailingS: 0.2}},
		Input:    []scenario.Stanza{{Type: "keydowns", AtMs: 150, PerKeyMs: 12, VK: 34, Count: 20}},
		Faults:   &scenario.FaultSpec{Kinds: []string{"irq-storm"}, SpanS: 1.6},
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	c, cells := oneCell(doc, 24)
	sum := requireReplayMatchesOracle(t, c, cells, true)
	if sum.Sessions != 24 || sum.Simulated <= 1 || sum.Simulated >= sum.Sessions {
		t.Fatalf("%d sessions, %d simulated: the cell must both replay and simulate", sum.Sessions, sum.Simulated)
	}
	distinct := map[string]bool{}
	for seed := uint64(1); seed <= 24; seed++ {
		events, _, err := sessionEvents(cells[0].Doc, experiments.Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		distinct[fmt.Sprint(events)] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("%d distinct sessions over 24 seeds: the storm must reach events on some seeds", len(distinct))
	}
}
