package latlab

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"latlab/internal/campaign"
	"latlab/internal/experiments"
)

// censusWorkloads are the benchmark's campaign workloads (bench/passes.go
// lists the same specs and modes): the census runs the first cell of
// each.
var censusWorkloads = []struct {
	name, spec string
	quick      bool
}{
	{"campaign-short", "testdata/campaigns/demo.json", true},
	{"campaign-long", "bench/workloads/campaign-long.json", false},
	{"campaign-modern", "bench/workloads/campaign-modern.json", false},
}

// TestElisionCensus pins how much idle time each campaign workload's
// sessions elide: for every session of the first cell of each workload's
// spec, the idle cycles elided and simulated and the clock ticks crossed
// and simulated, and their means per session. The counts are
// deterministic, so a change that stops elision somewhere, or makes it
// reach further, moves this golden on any host. Rewrite it after an
// intended change with
//
//	go test -run TestElisionCensus . -update
func TestElisionCensus(t *testing.T) {
	for _, w := range censusWorkloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			c, err := campaign.LoadSpec(w.spec)
			if err != nil {
				t.Fatal(err)
			}
			cell := campaign.Cells(c)[0]
			mode := "full"
			if w.quick {
				mode = "quick"
			}
			var b bytes.Buffer
			fmt.Fprintf(&b, "# %s: cell %s of %s, %s mode\n", w.name, cell.ID(), w.spec, mode)
			fmt.Fprintf(&b, "%-6s %14s %16s %13s %15s\n", "seed", "elided_cycles", "simulated_cycles", "crossed_ticks", "simulated_ticks")
			var sum [4]int64
			for i := range cell.SeedCount {
				seed := cell.SeedStart + uint64(i)
				s, err := experiments.OpenScenarioSession(experiments.Config{Seed: seed, Quick: w.quick}, cell.Doc)
				if err != nil {
					t.Fatal(err)
				}
				s.Drive()
				k := s.Sys().K
				row := [4]int64{k.BulkElided(), k.CyclesSimulated(), k.TicksCrossed(), k.ClockTicks() - k.TicksCrossed()}
				s.Close()
				fmt.Fprintf(&b, "%-6d %14d %16d %13d %15d\n", seed, row[0], row[1], row[2], row[3])
				for j := range sum {
					sum[j] += row[j]
				}
			}
			n := float64(cell.SeedCount)
			fmt.Fprintf(&b, "%-6s %14.1f %16.1f %13.1f %15.1f\n", "mean",
				float64(sum[0])/n, float64(sum[1])/n, float64(sum[2])/n, float64(sum[3])/n)

			compareGolden(t, filepath.Join("testdata", "census", w.name+".txt"), b.Bytes(), "TestElisionCensus")
		})
	}
}

// TestSessionCensus pins, for every cell of each campaign workload, the
// sessions the cell folds and the sessions it actually simulates: a
// cell replays its representative for every seed that reaches nothing
// before that session's end (experiments.SeedReaches), so the second
// count is the campaign's cost in distinct sessions. A change that
// stops a replay, or replays a session whose seed matters, moves this
// golden on any host. Rewrite it after an intended change with
//
//	go test -run TestSessionCensus . -update
func TestSessionCensus(t *testing.T) {
	for _, w := range censusWorkloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			c, err := campaign.LoadSpec(w.spec)
			if err != nil {
				t.Fatal(err)
			}
			mode := "full"
			if w.quick {
				mode = "quick"
			}
			var b bytes.Buffer
			fmt.Fprintf(&b, "# %s: every cell of %s, %s mode\n", w.name, w.spec, mode)
			fmt.Fprintf(&b, "%-44s %8s %9s\n", "cell", "sessions", "simulated")
			var total campaign.Summary
			for _, cell := range campaign.Cells(c) {
				sum, err := campaign.RunCells(context.Background(), c, []campaign.Cell{cell},
					campaign.Options{Jobs: 1, Quick: w.quick}, func(campaign.Record) error { return nil })
				if err != nil || sum.Cells != 1 {
					t.Fatalf("%s: %v, summary %+v", cell.ID(), err, sum)
				}
				fmt.Fprintf(&b, "%-44s %8d %9d\n", cell.ID(), sum.Sessions, sum.Simulated)
				total.Sessions += sum.Sessions
				total.Simulated += sum.Simulated
			}
			fmt.Fprintf(&b, "%-44s %8d %9d\n", "total", total.Sessions, total.Simulated)
			compareGolden(t, filepath.Join("testdata", "census", w.name+"-sessions.txt"), b.Bytes(), "TestSessionCensus")
		})
	}
}

// compareGolden compares got with the golden file at path, or rewrites
// the file under -update.
func compareGolden(t *testing.T, path string, got []byte, test string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test -run %s . -update`): %v", test, err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s differs:\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}
