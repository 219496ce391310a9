// Command bench is latlab's end-to-end benchmark. It measures what
// latlab's users wait for — campaign passes and the `latbench -quick`
// developer loop — and checks every output byte against a pinned
// reference. With -trace 1 it adds one traced pass per workload whose
// spans, taken around the public calls into each layer, break the pass
// down by layer. README.md defines the workloads and metrics.
//
// Every pass runs in a child process of its own, so set-up time counts
// process start and each pass gets a fresh heap. Children cycle
// round-robin through the chosen workloads until each has used its
// -seconds, so a drift in host speed hits every workload alike.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-spans DIR] [-out FILE]
//	bash bench/run.sh -compare A.json B.json
//
// It prints one row per (workload, metric), and for a single workload
// a last line of JSON with the result. It exits 1 if any operation
// failed its check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one child process; a pass takes seconds.
const childTimeout = 150 * time.Second

// workDir holds each pass's scratch ledger, under the build directory
// bench/run.sh uses.
const workDir = ".bench_build/work"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to measure, or all of them round-robin")
		seed     = fs.Uint64("seed", 0, "input seed: shifts every campaign's seeds.start and the suite seed 1996 by N")
		seconds  = fs.Float64("seconds", 15, "measuring time per workload")
		traceArg = fs.Int("trace", 0, "1 adds a traced pass per workload and reports the per-layer metrics")
		spansDir = fs.String("spans", "", "write each traced pass's spans to DIR/<workload>.json")
		outPath  = fs.String("out", "", "also write the rows as JSON to this file (input to -compare)")
		cmp      = fs.Bool("compare", false, "compare two -out files given as arguments")
		child    = fs.Bool("child", false, "run one pass in this process (used by the parent)")
		t0       = fs.Int64("t0", 0, "Unix ns at which the parent started this child (with -child)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *traceArg != 0 && *traceArg != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *traceArg)
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fmt.Fprintf(stderr, "bench: unknown workload %q (valid: all, %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		ws = []workload{w}
	}
	ctx := context.Background()
	if *child {
		if len(ws) != 1 {
			fmt.Fprintln(stderr, "bench: -child needs one -workload")
			return 2
		}
		if err := runChild(ctx, ws[0], *seed, time.Unix(0, *t0), *traceArg == 1, *spansDir, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", ws[0].name, err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if *spansDir != "" {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	results, err := measure(ctx, ws, *seed, *seconds, *traceArg == 1, *spansDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rows := summarize(ws, results)
	attempted, failed, errs := tally(results)
	for _, e := range errs {
		fmt.Fprintln(stderr, "bench:", e)
	}
	printRows(stdout, rows)
	printPhases(stdout, ws, results)
	fmt.Fprintf(stdout, "\n%d operations attempted, %d failed\n", attempted, failed)
	if *outPath != "" {
		data, err := json.MarshalIndent(report{Seed: *seed, Attempted: attempted, Failed: failed, Rows: rows}, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(ws) == 1 {
		if err := printResult(stdout, ws[0].name, rows, *traceArg == 1, attempted, failed); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs child passes round-robin over ws: each round starts one
// pass of every workload whose passes so far, plus one more as long as
// its last, fit in seconds (every workload gets at least one). With
// traced set, one traced pass per workload follows.
func measure(ctx context.Context, ws []workload, seed uint64, seconds float64, traced bool, spansDir string, stderr io.Writer) (map[string][]passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	results := map[string][]passResult{}
	spent := map[string]time.Duration{}
	last := map[string]time.Duration{}
	for more := true; more; {
		more = false
		for _, w := range ws {
			if len(results[w.name]) > 0 && spent[w.name]+last[w.name] > budget {
				continue
			}
			start := time.Now()
			r, err := spawn(ctx, exe, w, seed, false, "", stderr)
			if err != nil {
				return nil, err
			}
			last[w.name] = time.Since(start)
			spent[w.name] += last[w.name]
			results[w.name] = append(results[w.name], r)
			more = true
		}
	}
	if traced {
		for _, w := range ws {
			r, err := spawn(ctx, exe, w, seed, true, spansDir, stderr)
			if err != nil {
				return nil, err
			}
			results[w.name] = append(results[w.name], r)
		}
	}
	return results, nil
}

// spawn runs one pass of w in a child process and returns its result,
// with the child's peak RSS from its rusage.
func spawn(ctx context.Context, exe string, w workload, seed uint64, traced bool, spansDir string, stderr io.Writer) (passResult, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
		if spansDir != "" {
			args = append(args, "-spans", spansDir)
		}
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(t0.UnixNano(), 10))...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s pass: %w", w.name, err)
	}
	var r passResult
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return passResult{}, fmt.Errorf("%s pass: reading its result: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// runChild sets one workload up, runs one pass of it, checks the
// outputs, and prints the result as one JSON line. setup_s runs from
// t0, when the parent started the process, to the start of the pass.
func runChild(ctx context.Context, w workload, seed uint64, t0 time.Time, traced bool, spansDir string, stdout io.Writer) error {
	p, err := newPass(ctx, w, seed, true)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	setup := time.Since(t0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := p.run(ctx, dir, traced)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	r := passResult{
		Workload: w.name,
		Traced:   traced,
		SetupS:   setup.Seconds(),
		PassS:    o.wall.Seconds(),
		Digests:  o.digests,
		Failed:   o.failed,
		Errors:   o.errs,
		AllocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GCCycles: float64(after.NumGC - before.NumGC),
		OpMs:     o.opMs,
		Layers:   o.layers,
	}
	if traced {
		r.Phases = map[string]float64{}
		for name, d := range o.trace.selfTimes() {
			r.Phases[name] = d.Seconds()
		}
		r.Capacity = float64(o.trace.jobs) * o.trace.wall().Seconds()
		if spansDir != "" {
			if err := o.trace.write(filepath.Join(spansDir, w.name+".json"), w.name); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(stdout).Encode(r)
}

// runCompare implements -compare A.json B.json.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare needs two -out files: bench -compare A.json B.json")
		return 2
	}
	var bench benchmarkFile
	var a, b report
	for _, f := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &bench}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if n := compare(stdout, bench, a, b); n > 0 {
		fmt.Fprintf(stdout, "\n%d rows worse than their bound\n", n)
		return 1
	}
	return 0
}
