package campaign

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"latlab/internal/stats"
)

// runMini executes the mini test campaign at the given worker count
// and returns the ledger bytes and run summary.
func runMini(t *testing.T, jobs int) ([]byte, Summary) {
	t.Helper()
	return runMiniOpt(t, Options{Jobs: jobs, Quick: true})
}

// runMiniOpt is runMini with full control over the run options.
func runMiniOpt(t *testing.T, opt Options) ([]byte, Summary) {
	t.Helper()
	c, err := LoadSpec("testdata/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sum, err := RunCells(context.Background(), c, Cells(c), opt,
		func(r Record) error { return AppendRecord(&buf, r) })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

func TestRunFoldsCampaign(t *testing.T) {
	ledger, sum := runMini(t, 1)
	if sum.Cells != 8 || sum.Sessions != 48 {
		t.Fatalf("summary = %+v, want 8 cells / 48 sessions", sum)
	}
	if sum.Events == 0 {
		t.Fatal("campaign folded no events")
	}
	recs, err := ParseLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("%d ledger records, want 8", len(recs))
	}
	for i, r := range recs {
		if r.Campaign != "mini" || !r.Quick {
			t.Errorf("record %d: campaign %q quick %v", i, r.Campaign, r.Quick)
		}
		if r.Sessions != r.SeedCount {
			t.Errorf("record %d: %d sessions for %d seeds", i, r.Sessions, r.SeedCount)
		}
		// P99 is a bucket estimate within relative error alpha, so it may
		// sit up to that factor above the exact max.
		if r.Events == 0 || r.P50Ms <= 0 || r.P99Ms > r.MaxMs*(1+stats.DefaultSketchAlpha) {
			t.Errorf("record %d has implausible metrics: %+v", i, r)
		}
	}
	// Ledger order is cell-expansion order.
	cells := Cells(mustLoad(t))
	for i, r := range recs {
		if r.Cell() != cells[i].ID() {
			t.Errorf("record %d is cell %s, want %s", i, r.Cell(), cells[i].ID())
		}
	}
}

// mustLoad loads the mini campaign spec.
func mustLoad(t *testing.T) *Campaign {
	t.Helper()
	c, err := LoadSpec("testdata/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunShardingInvariant is the cross-shard determinism gate: the
// ledger must be byte-identical however the cells shard across
// workers.
func TestRunShardingInvariant(t *testing.T) {
	base, _ := runMini(t, 1)
	for _, jobs := range []int{4, 8} {
		got, _ := runMini(t, jobs)
		if !bytes.Equal(base, got) {
			t.Errorf("ledger differs between -jobs 1 and -jobs %d", jobs)
		}
	}
}

// TestRunBatchInvariant pins the mini campaign's ledger: it must equal
// the committed testdata/mini-ledger.jsonl byte for byte. After an
// intentional behaviour change, regenerate the file with
//
//	rm internal/campaign/testdata/mini-ledger.jsonl
//	go run ./cmd/campaign run -spec internal/campaign/testdata/mini.json \
//		-ledger internal/campaign/testdata/mini-ledger.jsonl -quick
func TestRunBatchInvariant(t *testing.T) {
	want, err := os.ReadFile("testdata/mini-ledger.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := runMini(t, 2); !bytes.Equal(want, got) {
		t.Error("ledger differs from testdata/mini-ledger.jsonl")
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	c := mustLoad(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCells(ctx, c, Cells(c), Options{Jobs: 2, Quick: true}, func(Record) error { return nil })
	if err == nil {
		t.Fatal("cancelled run must error")
	}
}

func TestRunStopsOnEmitError(t *testing.T) {
	c := mustLoad(t)
	calls := 0
	_, err := RunCells(context.Background(), c, Cells(c), Options{Jobs: 2, Quick: true},
		func(Record) error { calls++; return context.Canceled })
	if err == nil {
		t.Fatal("emit error must propagate")
	}
	if calls != 1 {
		t.Errorf("emit called %d times after erroring, want 1", calls)
	}
}

func TestAnalyzeRanksAndSuggests(t *testing.T) {
	ledger, _ := runMini(t, 2)
	recs, err := ParseLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Campaign != "mini" || a.Cells != 8 || a.Sessions != 48 || len(a.Configs) != 2 {
		t.Fatalf("analysis = %+v", a)
	}
	// Ranked by p95 ascending.
	for i := 1; i < len(a.Configs); i++ {
		if a.Configs[i-1].Sketch.Quantile(0.95) > a.Configs[i].Sketch.Quantile(0.95) {
			t.Errorf("configs not ranked by p95 at %d", i)
		}
	}
	// Config totals must cover the whole campaign.
	var sess int
	var events uint64
	for _, c := range a.Configs {
		sess += c.Sessions
		events += c.Sketch.Count()
	}
	if sess != a.Sessions || events != a.Events {
		t.Errorf("config totals %d/%d vs analysis %d/%d", sess, events, a.Sessions, a.Events)
	}
	if len(a.SuggestedNext) == 0 {
		t.Fatal("no suggested cells")
	}
	for _, n := range a.SuggestedNext {
		if n.SeedCount < 1 || (n.Reason != "p99" && n.Reason != "jitter") {
			t.Errorf("bad suggestion %+v", n)
		}
		// Refined cells are halves of per_cell=6 chunks.
		if n.SeedCount != 3 {
			t.Errorf("suggestion %+v not a half-cell", n)
		}
	}
	// Render is deterministic and carries the table and suggestions.
	var r1, r2 strings.Builder
	if err := a.Render(&r1); err != nil {
		t.Fatal(err)
	}
	if err := a.Render(&r2); err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Error("Render not deterministic")
	}
	for _, want := range []string{"Campaign mini", "config", "p95", "jitter", "suggested_next", "tiny-type/"} {
		if !strings.Contains(r1.String(), want) {
			t.Errorf("render missing %q:\n%s", want, r1.String())
		}
	}
}

func TestAnalyzeRejects(t *testing.T) {
	ledger, _ := runMini(t, 1)
	recs, err := ParseLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(nil); err == nil {
		t.Error("empty ledger must error")
	}
	dup := append(append([]Record{}, recs...), recs[0])
	if _, err := Analyze(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate cell: %v", err)
	}
	mixed := append([]Record{}, recs...)
	mixed[1].Campaign = "other"
	if _, err := Analyze(mixed); err == nil || !strings.Contains(err.Error(), "mixes campaigns") {
		t.Errorf("mixed campaigns: %v", err)
	}
	mode := append([]Record{}, recs...)
	mode[1].Quick = false
	if _, err := Analyze(mode); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("mixed modes: %v", err)
	}
}
