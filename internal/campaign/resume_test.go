package campaign

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// goldenMini runs the mini campaign uninterrupted and returns its
// ledger bytes and parsed records — the reference every resume test
// reconverges to.
func goldenMini(t *testing.T) (*Campaign, []byte, []Record) {
	t.Helper()
	c := mustLoad(t)
	ledger, _ := runMini(t, 4)
	recs, err := ParseLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	return c, ledger, recs
}

// TestResumeReconvergesFromEveryPrefix is the crash-safety core: for
// every prefix length k of the golden ledger, planning a resume over
// the first k records and running the missing cells must append
// exactly the remaining records — the combined ledger is
// byte-identical to the uninterrupted one, at a worker count different
// from the golden run's.
func TestResumeReconvergesFromEveryPrefix(t *testing.T) {
	c, golden, recs := goldenMini(t)
	lines := bytes.SplitAfter(golden, []byte("\n"))
	lines = lines[:len(lines)-1] // trailing empty split
	if len(lines) != len(recs) {
		t.Fatalf("%d ledger lines vs %d records", len(lines), len(recs))
	}
	for k := 0; k <= len(recs); k++ {
		plan := NewResume(c, true, Options{}.SketchAlpha())
		var buf bytes.Buffer
		for i := 0; i < k; i++ {
			buf.Write(lines[i])
			if err := plan.Observe(recs[i]); err != nil {
				t.Fatalf("prefix %d: Observe(%d): %v", k, i, err)
			}
		}
		if plan.Done() != k {
			t.Fatalf("prefix %d: Done() = %d", k, plan.Done())
		}
		missing, skipped := plan.Missing(nil, 3)
		if len(skipped) != 0 {
			t.Fatalf("prefix %d: %d skipped with no quarantine", k, len(skipped))
		}
		if len(missing) != len(recs)-k {
			t.Fatalf("prefix %d: %d missing cells, want %d", k, len(missing), len(recs)-k)
		}
		sum, err := RunCells(context.Background(), c, missing, Options{Jobs: 3, Quick: true},
			func(r Record) error { return AppendRecord(&buf, r) })
		if err != nil {
			t.Fatalf("prefix %d: RunCells: %v", k, err)
		}
		if sum.Interrupted || len(sum.Quarantined) != 0 {
			t.Fatalf("prefix %d: summary %+v", k, sum)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("prefix %d: resumed ledger differs from uninterrupted golden", k)
		}
	}
}

// TestResumeObserveRejects: a ledger that is valid JSONL but not this
// campaign's must fail planning, not corrupt the set-difference.
func TestResumeObserveRejects(t *testing.T) {
	c, _, recs := goldenMini(t)
	cases := []struct {
		name   string
		mutate func(*Record)
		want   string
	}{
		{"campaign", func(r *Record) { r.Campaign = "other" }, "campaign"},
		{"mode", func(r *Record) { r.Quick = false }, "quick"},
		{"cell", func(r *Record) { r.SeedStart += 1000 }, "not a cell"},
	}
	for _, tc := range cases {
		plan := NewResume(c, true, Options{}.SketchAlpha())
		r := recs[0]
		tc.mutate(&r)
		if err := plan.Observe(r); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Observe = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// Mismatched sketch accuracy.
	plan := NewResume(c, true, Options{}.SketchAlpha()/2)
	if err := plan.Observe(recs[0]); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Errorf("alpha mismatch: Observe = %v", err)
	}
	// Duplicate record.
	plan = NewResume(c, true, Options{}.SketchAlpha())
	if err := plan.Observe(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := plan.Observe(recs[0]); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate: Observe = %v", err)
	}
}

// TestQuarantineContinuesRun: a failing cell must not abort the
// campaign — the other cells complete and emit, the failed one lands
// in Summary.Quarantined (and the OnQuarantine hook) with its exact
// configuration and seed range.
func TestQuarantineContinuesRun(t *testing.T) {
	c, _, recs := goldenMini(t)
	victim := recs[2].Cell()
	var hooked []Quarantine
	var buf bytes.Buffer
	sum, err := RunCells(context.Background(), c, Cells(c), Options{
		Jobs: 2, Quick: true,
		Inject: func(_ context.Context, cell Cell, attempt int) error {
			if cell.ID() == victim {
				return fmt.Errorf("injected fault (attempt %d)", attempt)
			}
			return nil
		},
		OnQuarantine: func(q Quarantine) error { hooked = append(hooked, q); return nil },
	}, func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted {
		t.Fatal("quarantine must not mark the run interrupted")
	}
	if sum.Cells != len(recs)-1 {
		t.Fatalf("%d cells completed, want %d", sum.Cells, len(recs)-1)
	}
	if len(sum.Quarantined) != 1 || len(hooked) != 1 {
		t.Fatalf("quarantined %d / hooked %d, want 1/1", len(sum.Quarantined), len(hooked))
	}
	q := sum.Quarantined[0]
	if q.Cell() != victim || q.Attempts != 1 || !strings.Contains(q.Error, "injected fault") {
		t.Fatalf("quarantine entry %+v", q)
	}
	if q.Campaign != "mini" || !q.Quick {
		t.Fatalf("quarantine entry %+v missing provenance", q)
	}
	got, err := ParseLedger(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Cell() == victim {
			t.Fatal("quarantined cell must not reach the ledger")
		}
	}
}

// TestQuarantineRetrySameSeeds: resuming a quarantined cell with the
// retry budget produces the byte-identical record the cell would have
// produced uninterrupted — the retry reuses the same seeds.
func TestQuarantineRetrySameSeeds(t *testing.T) {
	c, _, recs := goldenMini(t)
	victim := recs[2]
	cells := Cells(c)
	var cell Cell
	for _, cl := range cells {
		if cl.ID() == victim.Cell() {
			cell = cl
		}
	}
	// First attempt failed once (prior=1); the retry run is allowed
	// budget-prior more attempts. Inject fails global attempts <= 2, so
	// attempt 3 succeeds.
	attempts := []int{}
	var buf bytes.Buffer
	sum, err := RunCells(context.Background(), c, []Cell{cell}, Options{
		Jobs: 1, Quick: true,
		RetryBudget:   3,
		PriorAttempts: map[string]int{victim.Cell(): 1},
		Inject: func(_ context.Context, _ Cell, attempt int) error {
			attempts = append(attempts, attempt)
			if attempt <= 2 {
				return fmt.Errorf("injected fault (attempt %d)", attempt)
			}
			return nil
		},
	}, func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Quarantined) != 0 || sum.Cells != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if len(attempts) != 2 || attempts[0] != 2 || attempts[1] != 3 {
		t.Fatalf("global attempt numbers %v, want [2 3]", attempts)
	}
	want, err := MarshalRecord(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("retried cell's record differs from the uninterrupted one")
	}
}

// TestQuarantineBudgetExhausted: a cell that keeps failing stops
// consuming attempts once its total reaches the budget, and Missing
// splits over-budget cells into skipped.
func TestQuarantineBudgetExhausted(t *testing.T) {
	c, _, recs := goldenMini(t)
	victim := recs[0]
	cells := Cells(c)
	fail := func(_ context.Context, cell Cell, attempt int) error {
		return fmt.Errorf("always failing (attempt %d)", attempt)
	}
	sum, err := RunCells(context.Background(), c, cells[:1], Options{
		Jobs: 1, Quick: true,
		RetryBudget:   3,
		PriorAttempts: map[string]int{victim.Cell(): 1},
		Inject:        fail,
	}, func(Record) error { t.Fatal("no record expected"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Quarantined) != 1 || sum.Quarantined[0].Attempts != 3 {
		t.Fatalf("summary %+v, want one quarantine at 3 attempts", sum)
	}
	// Planning the next resume: the cell is out of budget, so it is
	// skipped, not retried.
	plan := NewResume(c, true, Options{}.SketchAlpha())
	missing, skipped := plan.Missing(LatestQuarantine(sum.Quarantined), 3)
	if len(skipped) != 1 || skipped[0].Cell() != victim.Cell() {
		t.Fatalf("skipped %+v, want the exhausted cell", skipped)
	}
	if len(missing) != len(cells)-1 {
		t.Fatalf("%d missing cells, want %d", len(missing), len(cells)-1)
	}
	for _, m := range missing {
		if m.ID() == victim.Cell() {
			t.Fatal("exhausted cell must not be in missing")
		}
	}
}

// TestDrainKeepsPrefix: a drain signal mid-run stops feeding new cells
// but the emitted records stay a prefix of expansion order, so the
// ledger is resumable; RunCells reports Interrupted without an error.
func TestDrainKeepsPrefix(t *testing.T) {
	c, golden, _ := goldenMini(t)
	drain := make(chan struct{})
	close(drain) // drain before the first cell is even fed
	var buf bytes.Buffer
	sum, err := RunCells(context.Background(), c, Cells(c), Options{Jobs: 2, Quick: true, Drain: drain},
		func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatalf("drained run must not error: %v", err)
	}
	if !sum.Interrupted {
		t.Fatal("drained run must report Interrupted")
	}
	if !bytes.HasPrefix(golden, buf.Bytes()) {
		t.Fatal("drained ledger is not a byte prefix of the golden ledger")
	}
	if sum.Cells == len(Cells(c)) {
		t.Fatal("pre-closed drain still ran the whole campaign")
	}
}

// TestInterruptedSubsetStaysPrefix: cancelling mid-run must never emit
// a record past the first gap — whatever lands in the ledger is a byte
// prefix of the golden ledger.
func TestInterruptedSubsetStaysPrefix(t *testing.T) {
	c, golden, _ := goldenMini(t)
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	n := 0
	sum, err := RunCells(ctx, c, Cells(c), Options{Jobs: 4, Quick: true},
		func(r Record) error {
			if n++; n == 3 {
				cancel() // cancel once a few records have landed
			}
			return AppendRecord(&buf, r)
		})
	if err == nil && !sum.Interrupted {
		t.Fatal("cancelled run must report interruption")
	}
	if !bytes.HasPrefix(golden, buf.Bytes()) {
		t.Fatal("interrupted ledger is not a byte prefix of the golden ledger")
	}
}
