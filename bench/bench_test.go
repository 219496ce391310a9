package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"latlab/internal/experiments"
)

// TestMain runs the tests from the repository root, which the
// benchmark's input paths are relative to.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// checkAccounting requires the traced layers' self times to add up to
// the workers' capacity (jobs × wall), within 5%.
func checkAccounting(t *testing.T, o outcome) {
	t.Helper()
	var total float64
	for _, d := range o.trace.selfTimes() {
		total += d.Seconds()
	}
	capacity := float64(o.trace.jobs) * o.trace.wall().Seconds()
	if math.Abs(total/capacity-1) > 0.05 {
		t.Errorf("layer self times sum to %.4fs, want jobs x wall = %.4fs within 5%%", total, capacity)
	}
}

// TestReplicaMatchesRunCells runs the last (a cheap) cell of each
// campaign workload through campaign.RunCells and through the traced
// replica, and requires both ledgers to match the pinned reference.
func TestReplicaMatchesRunCells(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"campaign-short", "campaign-long", "campaign-modern"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			p, err := newCampaignPass(ctx, w, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			p.cells = p.cells[len(p.cells)-1:]
			plain, err := p.run(ctx, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := p.run(ctx, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []outcome{plain, traced} {
				if len(o.failed) > 0 || len(o.errs) > 0 {
					t.Fatalf("failed operations %v: %v", o.failed, o.errs)
				}
			}
			if strings.Join(plain.digests, ",") != strings.Join(traced.digests, ",") {
				t.Fatalf("replica ledger differs from RunCells's: %v vs %v", traced.digests, plain.digests)
			}
			if got := traced.layers["core.events_per_session"]; got <= 0 {
				t.Errorf("core.events_per_session = %v, want > 0", got)
			}
			checkAccounting(t, traced)
		})
	}
}

// TestSuitePassMatchesGoldens runs two experiments of the suite untraced
// and traced; both must reproduce the latbench goldens.
func TestSuitePassMatchesGoldens(t *testing.T) {
	ctx := context.Background()
	w, _ := workloadByName("suite-quick")
	p, err := newSuitePass(ctx, w, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	p.specs = nil
	for _, id := range []string{"fig1", "fig4"} {
		s, _ := experiments.ByID(id)
		p.specs = append(p.specs, s)
	}
	for _, traced := range []bool{false, true} {
		o, err := p.run(ctx, "", traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.ids) != 2 || len(o.failed) > 0 || len(o.errs) > 0 {
			t.Fatalf("traced=%v: ops %v, failed %v: %v", traced, o.ids, o.failed, o.errs)
		}
		if traced {
			checkAccounting(t, o)
		}
	}
}

// TestMetricsMatchBenchmarkJSON requires the metrics the harness emits,
// with their units, to be exactly those BENCHMARK.json lists, and its
// workloads to be the harness's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON("BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads: harness %v, BENCHMARK.json %v", names, listed)
	}
	results := map[string][]passResult{"suite-quick": {{PassS: 1}, {Traced: true, PassS: 1}}}
	rows := summarize(workloads, results)
	for _, c := range []struct {
		traced bool
		defs   []metricDef
	}{{false, bench.EndToEnd}, {true, bench.PerLayer}} {
		var buf bytes.Buffer
		if err := printResult(&buf, "suite-quick", rows, c.traced, 1, 0); err != nil {
			t.Fatal(err)
		}
		var res struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, v := range res.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("traced=%v: harness emits\n%s\nBENCHMARK.json lists\n%s", c.traced, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestTallyFlagsNondeterminism requires a pass whose output differs
// from the workload's first pass to count as a failed operation.
func TestTallyFlagsNondeterminism(t *testing.T) {
	results := map[string][]passResult{"w": {
		{Digests: []string{"a", "b"}},
		{Digests: []string{"a", "c"}},
		{Digests: []string{"a", "b"}, Failed: []int{0}},
	}}
	attempted, failed, errs := tally(results)
	if attempted != 6 || failed != 2 || len(errs) != 1 {
		t.Fatalf("tally = %d attempted, %d failed, errs %v; want 6, 2, one error", attempted, failed, errs)
	}
}

// TestCompareFlagsOnlyWorseBeyondBound checks -compare's flagging.
func TestCompareFlagsOnlyWorseBeyondBound(t *testing.T) {
	bench := benchmarkFile{EndToEnd: []metricDef{
		{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	a := report{Rows: []row{{Workload: "w", Metric: "pass_s", Median: 1}, {Workload: "w", Metric: "rate", Median: 1}}}
	for _, c := range []struct {
		pass, rate float64
		flagged    int
	}{{1.05, 0.95, 0}, {0.5, 2, 0}, {1.2, 1, 1}, {1.2, 0.8, 2}} {
		b := report{Rows: []row{{Workload: "w", Metric: "pass_s", Median: c.pass}, {Workload: "w", Metric: "rate", Median: c.rate}}}
		var buf bytes.Buffer
		if got := compare(&buf, bench, a, b); got != c.flagged {
			t.Errorf("pass %v rate %v: %d rows flagged, want %d\n%s", c.pass, c.rate, got, c.flagged, buf.String())
		}
	}
}
