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

// poolCells returns one quick cell of each workload kind, fewest idle
// samples first: a typing session records under a thousand, a browse
// session a few thousand and a PowerPoint session tens of thousands, so
// each later cell grows the arenas an earlier one left.
func poolCells() []Cell {
	return []Cell{
		poolCell("pool-type", scenario.KindTyping, scenario.Params{Chars: 5, WPM: 120, TrailingS: 0.2}),
		poolCell("pool-browse", scenario.KindBrowse, scenario.Params{Views: 1}),
		poolCell("pool-ppt", scenario.KindPowerpoint, smallPPT),
	}
}

// runPool runs cells in one quick RunCells call at one worker, drawing
// batches from pool, and returns the ledger bytes and the summary.
func runPool(t *testing.T, cells []Cell, pool *batchPool) ([]byte, Summary) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := runCells(context.Background(), &Campaign{Spec: Spec{ID: "pool"}}, cells,
		Options{Jobs: 1, Quick: true}, pool,
		func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestRunCellsReusesWorkerBatch pins the per-run batch free list: at
// one worker every cell of a RunCells call runs on the first cell's
// batch, each slot's arena grows by use to the largest capacity any of
// the cells left in that slot when run alone (arenas grown from empty
// by append pass through the same capacities, whichever cell grows
// them), and the ledger equals running each cell in a RunCells call of
// its own byte for byte.
func TestRunCellsReusesWorkerBatch(t *testing.T) {
	cells := poolCells()
	var want []byte
	largest := make([]int, DefaultBatch)
	for _, cell := range cells {
		pool := newBatchPool(Options{})
		rec, _ := runPool(t, []Cell{cell}, pool)
		want = append(want, rec...)
		for slot := range largest {
			largest[slot] = max(largest[slot], cap(*pool.free[0].Arena(slot)))
		}
	}
	if largest[0] == 0 {
		t.Fatal("single-cell runs left every arena empty")
	}

	pool := newBatchPool(Options{})
	got, sum := runPool(t, cells, pool)
	if len(sum.Quarantined) != 0 || sum.Cells != len(cells) {
		t.Fatalf("summary %+v, want %d clean cells", sum, len(cells))
	}
	if len(pool.free) != 1 {
		t.Fatalf("%d batches for %d cells at one worker, want the first cell's reused", len(pool.free), len(cells))
	}
	b := pool.free[0]
	for slot := 0; slot < b.Size(); slot++ {
		if got := cap(*b.Arena(slot)); got != largest[slot] {
			t.Errorf("slot %d arena capacity %d, want %d, the largest of the single-cell runs", slot, got, largest[slot])
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("pooled ledger differs from one RunCells call per cell:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunCellsDropsFailedCellBatch pins that a cell which panics with
// sessions open never hands its batch back: a PowerPoint cell whose
// deadline is too short panics mid-wave and is quarantined, and the
// clean cells after it on the same worker record what they record
// without it. A returned batch would still hold the open slots, and the
// next cell's Batch.Open would panic.
func TestRunCellsDropsFailedCellBatch(t *testing.T) {
	late := smallPPT
	late.DeadlineS = 1
	bad := poolCell("pool-late", scenario.KindPowerpoint, late)
	clean := poolCells()[1:]

	want, _ := runPool(t, clean, newBatchPool(Options{}))
	got, sum := runPool(t, append([]Cell{bad}, clean...), newBatchPool(Options{}))
	if len(sum.Quarantined) != 1 || sum.Quarantined[0].Cell() != bad.ID() ||
		!strings.Contains(sum.Quarantined[0].Error, "did not complete") {
		t.Fatalf("quarantined %+v, want only %s's deadline panic", sum.Quarantined, bad.ID())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("clean cells after the failed one differ:\n%s\nwant:\n%s", got, want)
	}
}
