package campaign

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
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

// waitGoroutines fails t unless the goroutine count falls back to base
// within a few seconds: exiting goroutines finish asynchronously.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d: a failed cell's machine was not released", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunCellsDropsFailedCell pins that a cell which panics with a
// session open leaves nothing behind for the cells after it: a
// PowerPoint cell whose deadline is too short panics mid-drive and is
// quarantined, its machine released, and the clean cells after it on
// the same worker record what they record without it.
func TestRunCellsDropsFailedCell(t *testing.T) {
	late := smallPPT
	late.DeadlineS = 1
	bad := poolCell("pool-late", scenario.KindPowerpoint, late)
	clean := []Cell{
		poolCell("pool-browse", scenario.KindBrowse, scenario.Params{Views: 1}),
		poolCell("pool-ppt", scenario.KindPowerpoint, smallPPT),
	}

	want, _ := runPool(t, clean)
	base := runtime.NumGoroutine()
	got, sum := runPool(t, append([]Cell{bad}, clean...))
	if len(sum.Quarantined) != 1 || sum.Quarantined[0].Cell() != bad.ID() ||
		!strings.Contains(sum.Quarantined[0].Error, "did not complete") {
		t.Fatalf("quarantined %+v, want only %s's deadline panic", sum.Quarantined, bad.ID())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("clean cells after the failed one differ:\n%s\nwant:\n%s", got, want)
	}
	waitGoroutines(t, base)
}

// crashBody is a thread body that computes a little and then panics.
func crashBody(tc *kernel.TC) {
	tc.Compute(cpu.Segment{Name: "crash", BaseCycles: 100_000})
	panic("boom")
}

// loopCrasher counts the calls of its TC.Loop function, next, which
// panics on the third.
type loopCrasher int

func (n *loopCrasher) next(lc *kernel.LoopTC) bool {
	if *n++; *n == 3 {
		panic("boom")
	}
	lc.Compute(cpu.Segment{Name: "crash", BaseCycles: 100_000})
	return true
}

// TestThreadPanicQuarantinesCell pins where a panicking simulated
// thread ends up in a campaign: its cell is quarantined, not the run,
// and the entry's error names the thread and carries a frame of the
// function that panicked. Inject boots a machine and runs it with one
// crashing thread, in its body for one cell and in its lent loop for
// the other.
func TestThreadPanicQuarantinesCell(t *testing.T) {
	byBody := poolCell("pool-crash-body", scenario.KindBrowse, scenario.Params{Views: 1})
	byLoop := poolCell("pool-crash-loop", scenario.KindBrowse, scenario.Params{Views: 1})
	clean := poolCell("pool-browse", scenario.KindBrowse, scenario.Params{Views: 1})
	frames := map[string]string{byBody.ID(): "campaign.crashBody(", byLoop.ID(): "campaign.(*loopCrasher).next("}
	sum, err := RunCells(context.Background(), &Campaign{Spec: Spec{ID: "pool"}}, []Cell{byBody, byLoop, clean},
		Options{Jobs: 1, Quick: true, Inject: func(_ context.Context, cell Cell, _ int) error {
			if frames[cell.ID()] == "" {
				return nil
			}
			sys := system.New(system.Config{Persona: persona.NT40()})
			defer sys.Shutdown()
			sys.SpawnApp("crasher", func(tc *kernel.TC) {
				if cell.ID() == byBody.ID() {
					crashBody(tc)
				}
				tc.Loop(new(loopCrasher).next)
			})
			sys.K.Run(simtime.Time(simtime.Second))
			return nil
		}},
		func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 1 || len(sum.Quarantined) != 2 {
		t.Fatalf("summary %+v, want 1 clean cell and 2 quarantined", sum)
	}
	for _, q := range sum.Quarantined {
		frame := frames[q.Cell()]
		if frame == "" {
			t.Fatalf("quarantined %s, want only the crashing cells", q.Cell())
		}
		if !strings.Contains(q.Error, "thread crasher panicked: boom") || !strings.Contains(q.Error, frame) {
			t.Errorf("%s: quarantine error should name thread crasher and carry a frame of %s:\n%s", q.Cell(), frame, q.Error)
		}
	}
}
