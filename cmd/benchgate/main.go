// Command benchgate records and enforces benchmark baselines. It reads
// `go test -bench -benchmem` output on stdin and either writes a JSON
// baseline (-record) or compares the results against the newest
// committed baseline and exits non-zero on regression (-check).
//
// Usage:
//
//	go test -bench ... -benchmem | benchgate -record BENCH_2026-08-05.json
//	go test -bench ... -benchmem | benchgate -check [-dir .] [-ns-tol 0.10] [-alloc-tol 0.10]
//
// ns/op is wall-clock and inherently noisy; allocs/op and B/op are
// deterministic for a benchmark that does the same work every op. Every
// gate applies a fractional tolerance on the means (default 10%,
// overridable per run; B/op shares the allocs/op tolerance) as the
// practical-effect floor. Repeated lines of the same benchmark (a
// `-count > 1` run) fold into a mean plus a sample standard
// deviation, and the variance adds a statistical filter on top of the
// floor: an exceedance only fails if it is also
// significant at 95% one-sided confidence — a Welch t test when both
// runs are multi-sample, the baseline's prediction interval when the
// current run is a single sample — so run-to-run noise wider than the
// tolerance band does not fail the build. Zero-variance folds
// (identical repeats, e.g. allocs/op) keep the plain tolerance rule,
// since a zero-width interval would flag any epsilon.
//
// ns/op is only comparable on the host that recorded the baseline, so
// -check refuses a baseline whose `cpu` string differs from the
// current run's (exit 2); -allow-cpu-mismatch overrides, typically
// together with -skip-ns to keep only the allocation gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measured costs. With `-count > 1` the
// metrics are means over the repeated runs, Samples records how many
// lines were folded, and NsStd/AllocStd/BytesStd carry the sample
// standard deviations the confidence-interval gate runs on.
type Result struct {
	Pkg         string  `json:"pkg,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	// Samples is the number of benchmark lines folded into this result
	// (1 for a plain -count=1 run; absent in pre-Samples baselines).
	Samples int `json:"samples,omitempty"`
	// NsStd, AllocStd and BytesStd are the sample standard deviations
	// across the folded lines; present only when Samples > 1.
	NsStd    float64 `json:"ns_std,omitempty"`
	AllocStd float64 `json:"alloc_std,omitempty"`
	BytesStd float64 `json:"bytes_std,omitempty"`
	// Welford M2 accumulators, live only while parsing.
	nsM2, allocM2, bytesM2 float64
}

// Baseline is the recorded state of the benchmark suite.
type Baseline struct {
	Generated  string            `json:"generated"`
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "", "write a baseline JSON to this path")
	check := fs.Bool("check", false, "compare stdin results against the newest baseline")
	dir := fs.String("dir", ".", "directory searched for BENCH_*.json baselines")
	baselinePath := fs.String("baseline", "", "explicit baseline file (overrides -dir discovery)")
	nsTol := fs.Float64("ns-tol", 0.10, "allowed fractional ns/op regression")
	allocTol := fs.Float64("alloc-tol", 0.10, "allowed fractional allocs/op and B/op regression")
	skipNs := fs.Bool("skip-ns", false, "skip the ns/op gate (cross-machine checks)")
	allowCPU := fs.Bool("allow-cpu-mismatch", false, "check against a baseline recorded on a different cpu")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*record == "") == !*check {
		fmt.Fprintln(stderr, "benchgate: exactly one of -record or -check is required")
		return 2
	}

	cur, err := parseBenchOutput(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchgate: no benchmark results on stdin")
		return 2
	}

	if *record != "" {
		cur.Generated = time.Now().UTC().Format(time.RFC3339)
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*record, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchgate: recorded %d benchmarks to %s\n", len(cur.Benchmarks), *record)
		return 0
	}

	path := *baselinePath
	if path == "" {
		if path, err = newestBaseline(*dir); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "benchgate: %s: %v\n", path, err)
		return 2
	}
	// An empty (or wrong-schema) baseline would gate nothing and pass
	// vacuously; fail loudly instead of comparing against zero values.
	if len(base.Benchmarks) == 0 {
		fmt.Fprintf(stderr, "benchgate: no baseline benchmark results found in %s (re-record with `make bench-baseline`)\n", path)
		return 2
	}
	// ns/op only means something on the host that recorded it: refuse a
	// cross-machine comparison unless explicitly overridden.
	if !*allowCPU && base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		fmt.Fprintf(stderr, "benchgate: baseline %s was recorded on cpu %q but this run is on %q; "+
			"re-record with `make bench-baseline`, or pass -allow-cpu-mismatch (usually with -skip-ns) to compare anyway\n",
			path, base.CPU, cur.CPU)
		return 2
	}

	failures := compare(&base, cur, *nsTol, *allocTol, *skipNs)
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cur.Benchmarks[name]
		if b, ok := base.Benchmarks[name]; ok {
			fmt.Fprintf(stdout, "benchgate: %-32s ns/op %12.0f → %12.0f (%+.1f%%)  allocs/op %7.0f → %7.0f (%+.1f%%)  B/op %+.1f%%\n",
				name, b.NsPerOp, c.NsPerOp, pct(b.NsPerOp, c.NsPerOp),
				b.AllocsPerOp, c.AllocsPerOp, pct(b.AllocsPerOp, c.AllocsPerOp),
				pct(b.BytesPerOp, c.BytesPerOp))
		} else {
			fmt.Fprintf(stdout, "benchgate: %-32s not in baseline (new benchmark)\n", name)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(stderr, "benchgate: FAIL %s\n", f)
		}
		fmt.Fprintf(stderr, "benchgate: %d regression(s) vs %s\n", len(failures), path)
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: OK vs %s\n", path)
	return 0
}

// pct returns the percent change from base to cur (0 when base is 0).
func pct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// compare returns one message per gated regression of cur vs base.
func compare(base, cur *Baseline, nsTol, allocTol float64, skipNs bool) []string {
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in current run", name))
			continue
		}
		if !skipNs {
			if fail, why := regressed(b.NsPerOp, b.NsStd, b.Samples, c.NsPerOp, c.NsStd, c.Samples, nsTol); fail {
				failures = append(failures, fmt.Sprintf("%s: ns/op %.0f vs baseline %.0f: %s",
					name, c.NsPerOp, b.NsPerOp, why))
			}
		}
		if fail, why := regressed(b.AllocsPerOp, b.AllocStd, b.Samples, c.AllocsPerOp, c.AllocStd, c.Samples, allocTol); fail {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f vs baseline %.0f: %s",
				name, c.AllocsPerOp, b.AllocsPerOp, why))
		}
		if fail, why := regressed(b.BytesPerOp, b.BytesStd, b.Samples, c.BytesPerOp, c.BytesStd, c.Samples, allocTol); fail {
			failures = append(failures, fmt.Sprintf("%s: B/op %.0f vs baseline %.0f: %s",
				name, c.BytesPerOp, b.BytesPerOp, why))
		}
	}
	return failures
}

// regressed gates one metric of cur against base. The fractional
// tolerance on means is always the practical-effect floor: a change
// inside it never fails. Beyond the floor, multi-sample variance data
// makes the gate statistical as well — the exceedance must also be
// significant at 95% one-sided (a Welch t test when both runs are
// multi-sample, the baseline's prediction interval when the current
// run is a single sample), so run-to-run noise wider than the
// tolerance band does not fail the build. Single-sample or
// zero-variance data keeps the plain tolerance rule. The returned
// string explains a failure.
func regressed(bMean, bStd float64, bN int, cMean, cStd float64, cN int, tol float64) (bool, string) {
	if cMean <= bMean*(1+tol) {
		return false, ""
	}
	if bN > 1 && bStd > 0 {
		if cN > 1 {
			se := math.Sqrt(bStd*bStd/float64(bN) + cStd*cStd/float64(cN))
			t := (cMean - bMean) / se
			df := welchDF(bStd, bN, cStd, cN)
			crit := tCrit(df)
			if t <= crit {
				return false, ""
			}
			return true, fmt.Sprintf("exceeds by more than %.0f%% and is significant (Welch t %.2f > %.2f at 95%% one-sided, df %.1f, n %d vs %d)",
				tol*100, t, crit, df, bN, cN)
		}
		bound := bMean + tCrit(float64(bN-1))*bStd*math.Sqrt(1+1/float64(bN))
		if cMean <= bound {
			return false, ""
		}
		return true, fmt.Sprintf("exceeds by more than %.0f%% and the 95%% prediction bound %.0f (baseline n=%d)",
			tol*100, bound, bN)
	}
	return true, fmt.Sprintf("exceeds by more than %.0f%%", tol*100)
}

// welchDF is the Welch–Satterthwaite effective degrees of freedom for
// two samples with standard deviations s1, s2 and sizes n1, n2 > 1.
func welchDF(s1 float64, n1 int, s2 float64, n2 int) float64 {
	v1 := s1 * s1 / float64(n1)
	v2 := s2 * s2 / float64(n2)
	den := v1*v1/float64(n1-1) + v2*v2/float64(n2-1)
	if den == 0 {
		return float64(n1 + n2 - 2)
	}
	return (v1 + v2) * (v1 + v2) / den
}

// tCrit is the one-sided 95% Student-t critical value for df degrees of
// freedom, from a step table. Rounding is conservative: a df between
// entries gates at the next-lower tabulated df's larger value, and only
// an effectively-normal df reaches the 1.645 limit.
func tCrit(df float64) float64 {
	table := []struct{ df, t float64 }{
		{1, 6.314}, {2, 2.920}, {3, 2.353}, {4, 2.132}, {5, 2.015},
		{6, 1.943}, {7, 1.895}, {8, 1.860}, {9, 1.833}, {10, 1.812},
		{12, 1.782}, {15, 1.753}, {20, 1.725}, {30, 1.697},
		{60, 1.671}, {120, 1.658},
	}
	if df >= 1000 {
		return 1.645
	}
	t := table[0].t
	for _, e := range table {
		if df < e.df {
			break
		}
		t = e.t
	}
	return t
}

// newestBaseline returns the lexically greatest BENCH_*.json in dir —
// the newest, since the naming convention embeds an ISO date.
func newestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baseline in %s (run `make bench-baseline` first)", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// parseBenchOutput extracts benchmark lines and environment headers from
// `go test -bench -benchmem` output.
func parseBenchOutput(r io.Reader) (*Baseline, error) {
	out := &Baseline{Benchmarks: make(map[string]Result)}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			name, res, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			if prev, dup := out.Benchmarks[name]; dup {
				// Repeats of the same benchmark in the same package are a
				// -count>1 run: fold them into a running mean. The same name
				// in two packages is still ambiguous and still an error.
				if prev.Pkg != pkg {
					return nil, fmt.Errorf("duplicate benchmark %s (pkgs %s, %s): use unique names", name, prev.Pkg, pkg)
				}
				out.Benchmarks[name] = fold(prev, res)
				break
			}
			res.Pkg = pkg
			res.Samples = 1
			out.Benchmarks[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Finalize the Welford accumulators into sample standard deviations.
	for name, res := range out.Benchmarks {
		if res.Samples > 1 {
			res.NsStd = math.Sqrt(res.nsM2 / float64(res.Samples-1))
			res.AllocStd = math.Sqrt(res.allocM2 / float64(res.Samples-1))
			res.BytesStd = math.Sqrt(res.bytesM2 / float64(res.Samples-1))
			out.Benchmarks[name] = res
		}
	}
	return out, nil
}

// fold merges a repeated benchmark line into the accumulated result:
// metrics become running means over the samples (with Welford M2
// accumulation for the gated metrics' variance), iterations sum.
func fold(acc, next Result) Result {
	n := float64(acc.Samples)
	nsDelta := next.NsPerOp - acc.NsPerOp
	allocDelta := next.AllocsPerOp - acc.AllocsPerOp
	bytesDelta := next.BytesPerOp - acc.BytesPerOp
	acc.NsPerOp = (acc.NsPerOp*n + next.NsPerOp) / (n + 1)
	acc.BytesPerOp = (acc.BytesPerOp*n + next.BytesPerOp) / (n + 1)
	acc.AllocsPerOp = (acc.AllocsPerOp*n + next.AllocsPerOp) / (n + 1)
	acc.nsM2 += nsDelta * (next.NsPerOp - acc.NsPerOp)
	acc.allocM2 += allocDelta * (next.AllocsPerOp - acc.AllocsPerOp)
	acc.bytesM2 += bytesDelta * (next.BytesPerOp - acc.BytesPerOp)
	acc.Iterations += next.Iterations
	acc.Samples++
	return acc
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkExtraction-8  8325  138403 ns/op  85984 B/op  14 allocs/op
func parseBenchLine(line string) (string, Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Result{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so baselines are stable across -cpu.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var res Result
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	res.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, fmt.Errorf("bad value in %q: %w", line, err)
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	if res.NsPerOp == 0 && res.AllocsPerOp == 0 && res.BytesPerOp == 0 {
		return "", Result{}, fmt.Errorf("no recognized metrics in %q (did you pass -benchmem?)", line)
	}
	return name, res, nil
}
