// Command scenfuzz searches the scenario space for latency cliffs: it
// generates one declarative scenario document per seed
// (scenario.Generate), compiles each onto the experiment machinery
// (experiments.FromScenario), runs it, and scores the run by its cliff
// ratio — worst event latency over mean event latency. Scenarios whose
// ratio clears -threshold are outliers; the top -keep of them are
// written as JSON documents ready to commit into the corpus that
// `latbench -run corpus` replays.
//
// Every document pins its generating seed, so a cliff found here
// reproduces bit-for-bit from the committed file regardless of the
// replaying run's -seed.
//
// Usage:
//
//	scenfuzz [-start N] [-n N] [-threshold R] [-keep K]
//	         [-kinds typing,browse] [-jobs N] [-out testdata/scenarios]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"latlab/internal/experiments"
	"latlab/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outlier is one scored scenario run.
type outlier struct {
	seed   uint64
	doc    scenario.Doc
	events int
	maxMs  float64
	meanMs float64
	ratio  float64
	err    error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		start     = fs.Uint64("start", 1, "first seed of the search range")
		n         = fs.Int("n", 64, "number of consecutive seeds to search")
		threshold = fs.Float64("threshold", 3, "minimum max/mean latency ratio to count as an outlier")
		keep      = fs.Int("keep", 5, "write at most this many top outliers")
		kinds     = fs.String("kinds", "", "comma-separated workload kinds to restrict to (default all)")
		jobs      = fs.Int("jobs", runtime.NumCPU(), "run up to N scenarios concurrently")
		outDir    = fs.String("out", "", "write outlier documents to this directory as <id>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var cons scenario.Constraints
	if *kinds != "" {
		for _, k := range strings.Split(*kinds, ",") {
			cons.Kinds = append(cons.Kinds, strings.TrimSpace(k))
		}
	}

	results := make([]outlier, *n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, *jobs))
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = score(*start+uint64(i), cons)
		}(i)
	}
	wg.Wait()

	var failed int
	var hits []outlier
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(stderr, "scenfuzz: seed %d: %v\n", r.seed, r.err)
			failed++
			continue
		}
		if r.ratio >= *threshold {
			hits = append(hits, r)
		}
	}
	// Rank by ratio, tie-break by seed so the report and the kept set
	// are deterministic for a given search range.
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].ratio != hits[j].ratio {
			return hits[i].ratio > hits[j].ratio
		}
		return hits[i].seed < hits[j].seed
	})
	if len(hits) > *keep {
		hits = hits[:*keep]
	}

	fmt.Fprintf(stdout, "searched seeds %d..%d: %d outliers at ratio >= %.1f (kept %d)\n\n",
		*start, *start+uint64(*n)-1, len(hits), *threshold, len(hits))
	fmt.Fprintf(stdout, "%-20s %-6s %-10s %-5s %-8s %7s %9s %9s %7s\n",
		"id", "seed", "kind", "pers", "machine", "events", "max", "mean", "ratio")
	for _, h := range hits {
		mach := h.doc.Machine
		if mach == "" {
			mach = "(run)"
		}
		fmt.Fprintf(stdout, "%-20s %-6d %-10s %-5s %-8s %7d %7.1fms %7.2fms %6.1fx\n",
			h.doc.ID, h.seed, h.doc.Workload.Kind, h.doc.Persona, mach,
			h.events, h.maxMs, h.meanMs, h.ratio)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "scenfuzz: %v\n", err)
			return 1
		}
		for _, h := range hits {
			data, err := scenario.Marshal(h.doc)
			if err != nil {
				fmt.Fprintf(stderr, "scenfuzz: %v\n", err)
				return 1
			}
			path := filepath.Join(*outDir, h.doc.ID+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fmt.Fprintf(stderr, "scenfuzz: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "scenfuzz: %d of %d seeds failed\n", failed, *n)
		return 1
	}
	return 0
}

// score generates, compiles, and runs the scenario for one seed.
func score(seed uint64, cons scenario.Constraints) outlier {
	o := outlier{seed: seed, doc: scenario.Generate(seed, cons)}
	spec, err := experiments.FromScenario(o.doc)
	if err != nil {
		o.err = err
		return o
	}
	res, err := spec.Run(context.Background(), experiments.Config{Seed: seed})
	if err != nil {
		o.err = err
		return o
	}
	sr, ok := res.(*experiments.ScenarioResult)
	if !ok {
		o.err = fmt.Errorf("unexpected result type %T", res)
		return o
	}
	o.events = len(sr.Row.Report.Events)
	o.maxMs, o.meanMs, o.ratio = sr.Cliff()
	return o
}
