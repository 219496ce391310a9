package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"latlab/internal/experiments"
)

// metric names one reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of latlab waits on, measured with
// tracing off. BENCHMARK.json gives their directions and bounds.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics of a traced pass, named after
// the module that does the work. A layer a workload does not exercise
// reads 0 there.
var layerMetrics = []metric{
	{"experiments.open_us_per_session", "us"},
	{"system.step_us_per_session", "us"},
	{"system.step_ns_per_sim_ms", "ns/sim_ms"},
	{"experiments.result_us_per_session", "us"},
	{"stats.fold_ns_per_event", "ns"},
	{"campaign.ledger_us_per_record", "us"},
	{"kernel.elided_cycles_per_session", "cycles"},
	{"kernel.sim_s_per_session", "sim_s"},
	{"kernel.busy_sim_s_per_session", "sim_s"},
	{"core.events_per_session", "count"},
	{"runner.worker_busy_frac", "ratio"},
	{"experiments.render_ms", "ms"},
	{"go.alloc_mb_per_pass", "MB"},
	{"go.gc_cycles_per_pass", "count"},
	{"trace.overhead_frac", "ratio"},
}

// perLayer returns every per-layer metric: layerMetrics plus each
// registered experiment's median wall time in the suite.
func perLayer() []metric {
	out := append([]metric(nil), layerMetrics...)
	for _, s := range experiments.All() {
		out = append(out, metric{experimentMetric(s.ID), "ms"})
	}
	return out
}

func experimentMetric(id string) string { return "experiments." + id + "_ms" }

// passResult is what one child process reports about its pass.
type passResult struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	SetupS   float64 `json:"setup_s"`
	PassS    float64 `json:"pass_s"`
	// Digests holds each operation's output digest, "" if it had none;
	// Failed indexes the operations the pass's own checks failed.
	Digests  []string           `json:"digests"`
	Failed   []int              `json:"failed"`
	Errors   []string           `json:"errors,omitempty"`
	AllocMB  float64            `json:"alloc_mb"`
	GCCycles float64            `json:"gc_cycles"`
	OpMs     map[string]float64 `json:"op_ms,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// Phases is each layer's self time in s, and Capacity the workers'
	// jobs × wall in s, on a traced pass.
	Phases   map[string]float64 `json:"phases,omitempty"`
	Capacity float64            `json:"capacity,omitempty"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
}

// row is one (workload, metric) summary over a run's passes.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	N        int     `json:"n"`
}

// report is a whole run: what -out writes and -compare reads.
type report struct {
	Seed      uint64 `json:"seed"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Rows      []row  `json:"rows"`
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method). A single value is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func newRow(w string, m metric, xs []float64) row {
	q1, med, q3 := quartiles(xs)
	return row{Workload: w, Metric: m.name, Unit: m.unit, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// summarize turns each workload's pass results into rows: the
// end-to-end metrics over its untraced passes and, when it has a traced
// pass, every per-layer metric.
func summarize(ws []workload, results map[string][]passResult) []row {
	var rows []row
	for _, w := range ws {
		var plain, traced []passResult
		for _, r := range results[w.name] {
			if r.Traced {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		if len(plain) == 0 {
			continue
		}
		of := func(f func(passResult) float64, rs []passResult) []float64 {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, f(r))
			}
			return xs
		}
		pass := of(func(r passResult) float64 { return r.PassS }, plain)
		rows = append(rows,
			newRow(w.name, endToEnd[0], of(func(r passResult) float64 { return r.SetupS }, plain)),
			newRow(w.name, endToEnd[1], pass),
			newRow(w.name, endToEnd[2], of(func(r passResult) float64 { return r.PeakRSSMB }, plain)))
		if len(traced) == 0 {
			continue
		}
		_, passMed, _ := quartiles(pass)
		expID := map[string]string{}
		for _, s := range experiments.All() {
			expID[experimentMetric(s.ID)] = s.ID
		}
		for _, m := range perLayer() {
			var xs []float64
			switch {
			case m.name == "go.alloc_mb_per_pass":
				xs = of(func(r passResult) float64 { return r.AllocMB }, plain)
			case m.name == "go.gc_cycles_per_pass":
				xs = of(func(r passResult) float64 { return r.GCCycles }, plain)
			case m.name == "trace.overhead_frac":
				xs = of(func(r passResult) float64 { return r.PassS/passMed - 1 }, traced)
			case expID[m.name] != "":
				xs = of(func(r passResult) float64 { return r.OpMs[expID[m.name]] }, plain)
			default:
				xs = of(func(r passResult) float64 { return r.Layers[m.name] }, traced)
			}
			rows = append(rows, newRow(w.name, m, xs))
		}
	}
	return rows
}

// tally counts attempted and failed operations over every pass. Beyond
// each pass's own checks, an operation fails when its output differs
// from the same operation in the workload's first pass: passes at any
// seed must be byte-identical to each other.
func tally(results map[string][]passResult) (attempted, failed int, errs []string) {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := results[name]
		first := rs[0].Digests
		for k, r := range rs {
			attempted += len(r.Digests)
			bad := map[int]bool{}
			for _, i := range r.Failed {
				bad[i] = true
			}
			for i, d := range r.Digests {
				if i >= len(first) || d != first[i] {
					if !bad[i] {
						errs = append(errs, fmt.Sprintf("%s pass %d: operation %d differs from the first pass", name, k+1, i))
					}
					bad[i] = true
				}
			}
			if len(r.Digests) != len(first) {
				errs = append(errs, fmt.Sprintf("%s pass %d: %d operations, first pass had %d", name, k+1, len(r.Digests), len(first)))
			}
			failed += len(bad)
			for _, e := range r.Errors {
				errs = append(errs, name+": "+e)
			}
		}
	}
	return attempted, failed, errs
}

// printRows writes the summary table.
func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-16s %-40s %-10s %13s %13s %13s %3s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-40s %-10s %13.6g %13.6g %13.6g %3d\n", r.Workload, r.Metric, r.Unit, r.Median, r.Q1, r.Q3, r.N)
	}
}

// printPhases writes each traced pass's self time per layer as a share
// of the workers' capacity (jobs × wall), largest first. runner.worker
// is the workers' time outside any operation.
func printPhases(w io.Writer, ws []workload, results map[string][]passResult) {
	for _, wl := range ws {
		for _, r := range results[wl.name] {
			if !r.Traced {
				continue
			}
			fmt.Fprintf(w, "\nphases of the traced %s pass (self time; share of jobs x wall = %.3f s):\n", wl.name, r.Capacity)
			names := make([]string, 0, len(r.Phases))
			total := 0.0
			for name, s := range r.Phases {
				names = append(names, name)
				total += s
			}
			sort.Slice(names, func(i, j int) bool { return r.Phases[names[i]] > r.Phases[names[j]] })
			for _, name := range names {
				fmt.Fprintf(w, "  %-22s %10.1f ms %6.1f%%\n", name, r.Phases[name]*1e3, 100*r.Phases[name]/r.Capacity)
			}
			fmt.Fprintf(w, "  %-22s %10.1f ms %6.1f%%\n", "total", total*1e3, 100*total/r.Capacity)
		}
	}
}

// printResult writes the one-line JSON result for a single-workload
// run: its end-to-end metrics, or with traced its per-layer metrics.
func printResult(w io.Writer, workload string, rows []row, traced bool, attempted, failed int) error {
	want := endToEnd
	if traced {
		want = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range want {
		for _, r := range rows {
			if r.Workload == workload && r.Metric == m.name {
				metrics[m.name] = value{r.Median, r.Unit}
			}
		}
		if _, ok := metrics[m.name]; !ok {
			return fmt.Errorf("no value for metric %s", m.name)
		}
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints, per (workload, metric), both runs' medians and
// quartiles and B's change relative to A, and flags each end-to-end
// row where B is worse than A by more than the metric's bound in
// BENCHMARK.json. It returns the number of flagged rows.
func compare(w io.Writer, bench benchmarkFile, a, b report) int {
	defs := map[string]metricDef{}
	for _, d := range append(bench.EndToEnd, bench.PerLayer...) {
		defs[d.Name] = d
	}
	bRows := map[[2]string]row{}
	for _, r := range b.Rows {
		bRows[[2]string{r.Workload, r.Metric}] = r
	}
	flagged := 0
	fmt.Fprintf(w, "%-16s %-40s %-10s %27s %27s %9s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change")
	for _, ra := range a.Rows {
		rb, ok := bRows[[2]string{ra.Workload, ra.Metric}]
		if !ok {
			continue
		}
		change, flag := "", ""
		if ra.Median != 0 {
			rel := rb.Median/ra.Median - 1
			change = fmt.Sprintf("%+.1f%%", 100*rel)
			d := defs[ra.Metric]
			worse := rel
			if d.Better == "higher" {
				worse = -rel
			}
			if d.Bound > 0 && worse > d.Bound {
				flag = fmt.Sprintf("  WORSE than bound %.0f%%", 100*d.Bound)
				flagged++
			}
		}
		fmt.Fprintf(w, "%-16s %-40s %-10s %27s %27s %9s%s\n", ra.Workload, ra.Metric, ra.Unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", ra.Median, ra.Q1, ra.Q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", rb.Median, rb.Q1, rb.Q3), change, flag)
	}
	return flagged
}
