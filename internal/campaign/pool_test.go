package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"latlab/internal/scenario"
)

// poolCell wraps a quick single-run scenario of the given workload as
// a two-seed cell on nt40 @ p100.
func poolCell(id, kind string, prm scenario.Params) Cell {
	doc := scenario.Doc{
		Schema: scenario.SchemaVersion, ID: id, Title: id,
		Persona: "nt40", Machine: "p100",
		Workload: scenario.Workload{Kind: kind, Full: prm},
	}
	return Cell{Doc: doc, Scenario: id, Persona: doc.Persona, Machine: doc.Machine, SeedStart: 1, SeedCount: 2}
}

// smallPPT is a short PowerPoint task: one OLE edit in a six-slide deck.
var smallPPT = scenario.Params{Slides: 6, ObjectSlides: []int{2}, PageDowns: []int{1}}

// runPool runs cells in one quick RunCells call at one worker and
// returns the ledger bytes and the summary.
func runPool(t *testing.T, cells []Cell) ([]byte, Summary) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := RunCells(context.Background(), &Campaign{Spec: Spec{ID: "pool"}}, cells,
		Options{Jobs: 1, Quick: true},
		func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestRunCellsLedgerIsPerCell pins that cells of one RunCells call
// share nothing: at one worker, where they run one after another, a
// typing, a browse and a PowerPoint cell record the ledger that one
// RunCells call per cell records, byte for byte.
func TestRunCellsLedgerIsPerCell(t *testing.T) {
	cells := []Cell{
		poolCell("pool-type", scenario.KindTyping, scenario.Params{Chars: 5, WPM: 120, TrailingS: 0.2}),
		poolCell("pool-browse", scenario.KindBrowse, scenario.Params{Views: 1}),
		poolCell("pool-ppt", scenario.KindPowerpoint, smallPPT),
	}
	var want []byte
	for _, cell := range cells {
		rec, _ := runPool(t, []Cell{cell})
		want = append(want, rec...)
	}
	got, sum := runPool(t, cells)
	if len(sum.Quarantined) != 0 || sum.Cells != len(cells) {
		t.Fatalf("summary %+v, want %d clean cells", sum, len(cells))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("one call's ledger differs from one RunCells call per cell:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunCellsDropsFailedCellBatch pins that a cell which panics with
// sessions open leaves nothing behind for the cells after it: a
// PowerPoint cell whose deadline is too short panics mid-wave and is
// quarantined, its batch dropped with it, and the clean cells after it
// on the same worker record what they record without it.
func TestRunCellsDropsFailedCellBatch(t *testing.T) {
	late := smallPPT
	late.DeadlineS = 1
	bad := poolCell("pool-late", scenario.KindPowerpoint, late)
	clean := []Cell{
		poolCell("pool-browse", scenario.KindBrowse, scenario.Params{Views: 1}),
		poolCell("pool-ppt", scenario.KindPowerpoint, smallPPT),
	}

	want, _ := runPool(t, clean)
	got, sum := runPool(t, append([]Cell{bad}, clean...))
	if len(sum.Quarantined) != 1 || sum.Quarantined[0].Cell() != bad.ID() ||
		!strings.Contains(sum.Quarantined[0].Error, "did not complete") {
		t.Fatalf("quarantined %+v, want only %s's deadline panic", sum.Quarantined, bad.ID())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("clean cells after the failed one differ:\n%s\nwant:\n%s", got, want)
	}
}
