package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: latlab
cpu: Test CPU @ 3.0GHz
BenchmarkSimulatorThroughput-8   	     142	   8454210 ns/op	 1039617 B/op	     110 allocs/op
BenchmarkExtraction-8            	    8325	    138403 ns/op	   85984 B/op	      14 allocs/op
PASS
ok  	latlab	12.3s
pkg: latlab/internal/eventq
BenchmarkSchedulePop-8           	12345678	        95.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	latlab/internal/eventq	1.5s
`

func TestParseBenchOutput(t *testing.T) {
	base, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if base.GoOS != "linux" || base.CPU != "Test CPU @ 3.0GHz" {
		t.Fatalf("env headers wrong: %+v", base)
	}
	if len(base.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(base.Benchmarks))
	}
	th := base.Benchmarks["BenchmarkSimulatorThroughput"]
	if th.NsPerOp != 8454210 || th.AllocsPerOp != 110 || th.BytesPerOp != 1039617 || th.Pkg != "latlab" {
		t.Fatalf("throughput parsed wrong: %+v", th)
	}
	sp := base.Benchmarks["BenchmarkSchedulePop"]
	if sp.NsPerOp != 95.5 || sp.Pkg != "latlab/internal/eventq" {
		t.Fatalf("GOMAXPROCS suffix or pkg handling wrong: %+v", sp)
	}
}

func TestParseBenchOutputFoldsRepeats(t *testing.T) {
	// A -count=3 style run: the same benchmark three times in one
	// package folds into a mean with Samples=3.
	repeated := `pkg: latlab
BenchmarkX-8	100	1000 ns/op	64 B/op	4 allocs/op
BenchmarkX-8	200	2000 ns/op	64 B/op	6 allocs/op
BenchmarkX-8	300	3000 ns/op	64 B/op	8 allocs/op
`
	base, err := parseBenchOutput(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	r := base.Benchmarks["BenchmarkX"]
	if r.Samples != 3 || r.NsPerOp != 2000 || r.AllocsPerOp != 6 || r.Iterations != 600 {
		t.Fatalf("folded result wrong: %+v", r)
	}
	// Single-sample results record Samples=1.
	single, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if s := single.Benchmarks["BenchmarkExtraction"].Samples; s != 1 {
		t.Fatalf("single run has Samples=%d, want 1", s)
	}
	// The same name across two packages is still ambiguous.
	crossPkg := `pkg: latlab
BenchmarkX-8	100	1000 ns/op	64 B/op	4 allocs/op
pkg: latlab/internal/eventq
BenchmarkX-8	100	1000 ns/op	64 B/op	4 allocs/op
`
	if _, err := parseBenchOutput(strings.NewReader(crossPkg)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("cross-package duplicate must error, got %v", err)
	}
}

func TestParseBenchLineErrors(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8",
		"BenchmarkX-8 notanumber 5 ns/op",
		"BenchmarkX-8 10 bogus ns/op",
		"BenchmarkX-8 10 5 furlongs/op",
	} {
		if _, _, err := parseBenchLine(line); err == nil {
			t.Fatalf("line should not parse: %q", line)
		}
	}
}

func TestCompareGates(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkC": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1 << 20},
	}}
	ok := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1050, AllocsPerOp: 100, BytesPerOp: 4300}, // +5%: within tolerance
		"BenchmarkB": {NsPerOp: 900, AllocsPerOp: 0},
		"BenchmarkC": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1 << 19},
	}}
	if f := compare(base, ok, 0.10, 0.10, false); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
	bad := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1200, AllocsPerOp: 150, BytesPerOp: 4096}, // ns and allocs gates blown
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 1},                     // any alloc vs 0 baseline fails
		// The same allocation count moving four times the bytes — a
		// buffer allocated per iteration instead of once — fails on B/op
		// alone, under the allocs/op tolerance.
		"BenchmarkC": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 4 << 20},
	}}
	f := compare(base, bad, 0.10, 0.10, false)
	if len(f) != 4 {
		t.Fatalf("want 4 failures, got %v", f)
	}
	if !strings.Contains(f[3], "BenchmarkC: B/op") {
		t.Fatalf("B/op regression not reported: %v", f)
	}
	// -skip-ns keeps the allocation gates only.
	if f := compare(base, bad, 0.10, 0.10, true); len(f) != 3 {
		t.Fatalf("want 3 failures with -skip-ns, got %v", f)
	}
	// A benchmark vanishing from the run is itself a failure.
	missing := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096},
		"BenchmarkC": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1 << 20},
	}}
	if f := compare(base, missing, 0.10, 0.10, false); len(f) != 1 {
		t.Fatalf("want 1 failure for missing benchmark, got %v", f)
	}
}

func TestParseBenchOutputRecordsStddev(t *testing.T) {
	repeated := `pkg: latlab
BenchmarkX-8	100	1000 ns/op	64 B/op	4 allocs/op
BenchmarkX-8	200	2000 ns/op	96 B/op	4 allocs/op
BenchmarkX-8	300	3000 ns/op	128 B/op	4 allocs/op
`
	base, err := parseBenchOutput(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	r := base.Benchmarks["BenchmarkX"]
	// Sample stddev of {1000, 2000, 3000} is exactly 1000 and of
	// {64, 96, 128} exactly 32; the identical allocs fold to zero
	// variance.
	if r.NsStd != 1000 || r.BytesStd != 32 || r.AllocStd != 0 {
		t.Fatalf("stddev wrong: %+v", r)
	}
	// Single samples carry no stddev at all.
	single, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if s := single.Benchmarks["BenchmarkExtraction"]; s.NsStd != 0 || s.AllocStd != 0 || s.BytesStd != 0 {
		t.Fatalf("single sample grew a stddev: %+v", s)
	}
}

func TestCompareConfidenceGate(t *testing.T) {
	// Baseline: mean 1000 ns, sd 50 over 5 samples. The 10% tolerance is
	// the practical-effect floor; beyond it the exceedance must also be
	// statistically significant, so wide run-to-run noise cannot fail the
	// build the way it would under the plain 10% rule.
	base := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, NsStd: 50, AllocsPerOp: 100, Samples: 5},
	}}
	within := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1030, NsStd: 50, AllocsPerOp: 100, Samples: 5},
	}}
	if f := compare(base, within, 0.10, 0.10, false); len(f) != 0 {
		t.Fatalf("mean inside the tolerance band must pass: %v", f)
	}
	// +15% but the current run's own variance is huge: beyond the floor
	// yet insignificant (t ≈ 1.1), so it passes where the old rule would
	// have failed the build on noise.
	noisy := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1150, NsStd: 300, AllocsPerOp: 100, Samples: 5},
	}}
	if f := compare(base, noisy, 0.10, 0.10, false); len(f) != 0 {
		t.Fatalf("insignificant exceedance must pass the t filter: %v", f)
	}
	// +15% with tight variance on both sides (t ≈ 4.7) is a real
	// regression: beyond the floor and significant.
	bad := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1150, NsStd: 50, AllocsPerOp: 100, Samples: 5},
	}}
	f := compare(base, bad, 0.10, 0.10, false)
	if len(f) != 1 || !strings.Contains(f[0], "Welch t") {
		t.Fatalf("significant exceedance must fail the t gate: %v", f)
	}
	// A multi-sample baseline checked by a single-sample run gates on the
	// baseline's 95% prediction interval (here ≈ 1117): +11% is beyond
	// the floor but inside the interval, so it passes.
	single := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1110, AllocsPerOp: 100, Samples: 1},
	}}
	if f := compare(base, single, 0.10, 0.10, false); len(f) != 0 {
		t.Fatalf("single sample inside the prediction interval must pass: %v", f)
	}
	singleBad := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1200, AllocsPerOp: 100, Samples: 1},
	}}
	f = compare(base, singleBad, 0.10, 0.10, false)
	if len(f) != 1 || !strings.Contains(f[0], "prediction bound") {
		t.Fatalf("single sample outside the prediction interval must fail: %v", f)
	}
	// Zero-variance metrics (deterministic allocs) keep the exact
	// tolerance rule even on multi-sample data.
	allocBad := &Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, NsStd: 50, AllocsPerOp: 150, Samples: 5},
	}}
	f = compare(base, allocBad, 0.10, 0.10, false)
	if len(f) != 1 || !strings.Contains(f[0], "allocs/op") {
		t.Fatalf("zero-variance alloc regression must fail the tolerance rule: %v", f)
	}
}

func TestTCritTable(t *testing.T) {
	// Spot-check the step table: exact entries, conservative rounding
	// down between them, and the normal limit for huge df.
	for _, tc := range []struct{ df, want float64 }{
		{1, 6.314}, {4, 2.132}, {4.5, 2.132}, {10, 1.812}, {11, 1.812}, {1000, 1.645},
	} {
		if got := tCrit(tc.df); got != tc.want {
			t.Errorf("tCrit(%v) = %v, want %v", tc.df, got, tc.want)
		}
	}
}

func TestCheckRefusesCPUMismatch(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	if code := run([]string{"-record", filepath.Join(dir, "BENCH_2026-08-05.json")},
		strings.NewReader(sampleOutput), &out, &errOut); code != 0 {
		t.Fatalf("record exited %d: %s", code, errOut.String())
	}
	otherCPU := strings.Replace(sampleOutput, "Test CPU @ 3.0GHz", "Other CPU @ 2.0GHz", 1)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-check", "-dir", dir}, strings.NewReader(otherCPU), &out, &errOut); code != 2 {
		t.Fatalf("cpu mismatch exited %d, want 2: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "cpu") || !strings.Contains(errOut.String(), "-allow-cpu-mismatch") {
		t.Fatalf("mismatch error should name the cpus and the override: %s", errOut.String())
	}
	// The override (with -skip-ns, the usual cross-machine pairing) lets
	// the allocation gate run.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-check", "-dir", dir, "-allow-cpu-mismatch", "-skip-ns"},
		strings.NewReader(otherCPU), &out, &errOut); code != 0 {
		t.Fatalf("override exited %d: %s", code, errOut.String())
	}
	// A baseline without a cpu header (pre-guard recordings) still checks.
	noCPU := strings.Replace(sampleOutput, "cpu: Test CPU @ 3.0GHz\n", "", 1)
	dir2 := t.TempDir()
	if code := run([]string{"-record", filepath.Join(dir2, "BENCH_2026-08-05.json")},
		strings.NewReader(noCPU), &out, &errOut); code != 0 {
		t.Fatalf("record exited %d: %s", code, errOut.String())
	}
	if code := run([]string{"-check", "-dir", dir2}, strings.NewReader(sampleOutput), &out, &errOut); code != 0 {
		t.Fatalf("headerless baseline check exited %d: %s", code, errOut.String())
	}
}

func TestRecordThenCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-08-05.json")
	var out, errOut strings.Builder
	if code := run([]string{"-record", path}, strings.NewReader(sampleOutput), &out, &errOut); code != 0 {
		t.Fatalf("record exited %d: %s", code, errOut.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if code := run([]string{"-check", "-dir", dir}, strings.NewReader(sampleOutput), &out, &errOut); code != 0 {
		t.Fatalf("check of identical results exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "benchgate: OK") {
		t.Fatalf("missing OK line: %s", out.String())
	}

	regressed := strings.Replace(sampleOutput, "110 allocs/op", "500 allocs/op", 1)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-check", "-dir", dir}, strings.NewReader(regressed), &out, &errOut); code != 1 {
		t.Fatalf("regressed check exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "allocs/op") {
		t.Fatalf("failure should name the blown gate: %s", errOut.String())
	}
}

func TestNewestBaselinePicksLatestDate(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2026-07-01.json", "BENCH_2026-08-05.json", "BENCH_2025-12-31.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_2026-08-05.json" {
		t.Fatalf("newest = %s", got)
	}
	if _, err := newestBaseline(t.TempDir()); err == nil {
		t.Fatalf("empty dir should error")
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("no mode should exit 2, got %d", code)
	}
	if code := run([]string{"-record", "x", "-check"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("both modes should exit 2, got %d", code)
	}
	if code := run([]string{"-check"}, strings.NewReader("PASS\n"), &out, &errOut); code != 2 {
		t.Fatalf("empty input should exit 2, got %d", code)
	}
}

func TestCheckAgainstEmptyBaselineFailsLoudly(t *testing.T) {
	// A baseline file with no benchmarks (wrong schema, truncated record)
	// must be a hard error, not a vacuous pass against zero values.
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-08-05.json")
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-check", "-dir", dir}, strings.NewReader(sampleOutput), &out, &errOut); code != 2 {
		t.Fatalf("empty baseline should exit 2, got %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "no baseline benchmark results found in") {
		t.Fatalf("error should explain the empty baseline: %s", errOut.String())
	}
}
