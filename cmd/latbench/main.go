// Command latbench runs latlab's reproduction of the paper's evaluation:
// every table and figure, rendered in the paper's format.
//
// Experiments are scheduled on a worker pool (-jobs, default NumCPU) and
// rendered in paper order whatever the completion order, so the text
// output is byte-identical for any job count. A panicking or timed-out
// experiment becomes a failed run record (and exit code 1) instead of
// aborting the suite; -json writes one RunRecord per experiment. Each
// experiment runs once, at -seed, so its output is a function of the
// seed: a failure is reported, never re-run under another seed.
//
// Usage:
//
//	latbench -list
//	latbench [-quick] [-seed N] [-run fig7,table1] [-machine p200]
//	         [-out results.txt] [-jobs N] [-timeout 5m]
//	         [-json manifest.json] [-csv-dir dir] [-svg-dir dir]
//	         [-trace trace.json] [-attrib attrib.csv]
//	         [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	latbench -scenario doc.json [-force]
//	latbench -run corpus [-corpus dir]
//
// -scenario compiles and runs a single declarative scenario document
// (see README "Scenarios"); -run corpus replays every document in the
// committed corpus directory. A scenario that pins its own machine
// conflicts with an explicit -machine: latbench refuses unless -force
// is given, in which case the scenario wins.
//
// -trace records latency-attribution spans on every simulated machine
// and writes them as Chrome trace-event JSON (load the file in Perfetto
// or chrome://tracing); -attrib reduces the same spans to a per-episode
// "where did the time go" CSV (render it with traceview -attrib).
//
// -cpuprofile and -memprofile profile latbench itself, the host
// process, for `go tool pprof`: a CPU profile of the whole run and an
// allocation profile at its end. They leave every other output
// untouched.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"latlab/internal/experiments"
	"latlab/internal/hostprof"
	"latlab/internal/machine"
	"latlab/internal/runner"
	"latlab/internal/scenario"
	"latlab/internal/spans"
	"latlab/internal/trace"
	"latlab/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("latbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list available experiments and exit")
		quick     = fs.Bool("quick", false, "trim workload sizes (for smoke runs)")
		seed      = fs.Uint64("seed", 1996, "seed for stochastic models")
		runArg    = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		outPath   = fs.String("out", "", "write results to this file instead of stdout")
		csvDir    = fs.String("csv-dir", "", "also export raw per-event CSVs for experiments that have them")
		svgDir    = fs.String("svg-dir", "", "also export SVG figures for experiments that have them")
		machineID = fs.String("machine", "p100", "hardware profile to run on (see -list)")
		jobs      = fs.Int("jobs", runtime.NumCPU(), "run up to N experiments concurrently")
		timeout   = fs.Duration("timeout", 0, "per-experiment timeout (0 = none)")
		jsonPath  = fs.String("json", "", "write a JSON run manifest to this file")
		tracePath = fs.String("trace", "", "write a Chrome trace-event JSON of every machine's spans (Perfetto-loadable)")
		attrPath  = fs.String("attrib", "", "write a per-episode latency-attribution CSV of every machine's spans")
		scenPath  = fs.String("scenario", "", "compile and run the scenario document at this path")
		corpusDir = fs.String("corpus", "testdata/scenarios", "scenario corpus directory replayed by -run corpus")
		force     = fs.Bool("force", false, "let a scenario's pinned machine silently override an explicit -machine")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of this run (pprof format) to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile at the end of this run (pprof format) to this file")
	)
	fs.Usage = func() { groupedUsage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := hostprof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	userSet := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { userSet[f.Name] = true })

	if *list {
		groups := []struct {
			title string
			match func(id string) bool
		}{
			{"paper figures", func(id string) bool { return strings.HasPrefix(id, "fig") }},
			{"paper tables & sections", func(id string) bool { return !strings.HasPrefix(id, "ext-") }},
			{"extensions (beyond the paper)", func(id string) bool { return true }},
		}
		claimed := map[string]bool{}
		for i, g := range groups {
			first := true
			for _, s := range experiments.All() {
				if claimed[s.ID] || !g.match(s.ID) {
					continue
				}
				claimed[s.ID] = true
				if first {
					if i > 0 {
						fmt.Fprintln(stdout)
					}
					fmt.Fprintf(stdout, "%s:\n", g.title)
					first = false
				}
				fmt.Fprintf(stdout, "  %-14s %-55s %s\n", s.ID, s.Title, s.Paper)
			}
		}
		fmt.Fprintf(stdout, "\nmachine profiles (-machine):\n")
		fmt.Fprintf(stdout, "%-11s %-33s %-5s %8s %9s %7s %6s  %s\n",
			"id", "name", "era", "clock", "itlb/dtlb", "l2", "tagged", "description")
		for _, m := range machine.All() {
			l2 := fmt.Sprintf("%dK", m.L2Bytes>>10)
			if m.L2Bytes == 0 {
				l2 = "none"
			}
			fmt.Fprintf(stdout, "%-11s %-33s %-5s %5dMHz %5d/%-4d %6s %6v  %s\n",
				m.Short, m.Name, m.Era, int64(m.ClockHz)/1_000_000,
				m.ITLBEntries, m.DTLBEntries, l2, m.TaggedTLB, m.Desc)
		}
		return 0
	}

	prof, ok := machine.ByShort(*machineID)
	if !ok {
		fmt.Fprintf(stderr, "latbench: unknown machine %q (valid: %s)\n",
			*machineID, strings.Join(machine.Shorts(), ", "))
		return 1
	}

	w := stdout
	var outFile *atomicFile
	if *outPath != "" {
		af, err := newAtomicFile(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			return 1
		}
		// A mid-suite failure discards the temp file instead of leaving a
		// truncated results file at -out.
		defer af.abort()
		outFile = af
		w = af
	}

	var specs []experiments.Spec
	switch {
	case *scenPath != "":
		if userSet["run"] {
			fmt.Fprintf(stderr, "latbench: -scenario and -run select different work; use one\n")
			return 1
		}
		doc, err := scenario.ParseFile(*scenPath)
		if err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			return 1
		}
		// Compiled, not registered: a file may deliberately reuse a
		// registered id (the testdata twins do).
		spec, err := experiments.FromScenario(doc)
		if err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			return 1
		}
		specs = []experiments.Spec{spec}
	case *runArg == "corpus":
		var err error
		specs, err = corpusSpecs(*corpusDir)
		if err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			return 1
		}
	case *runArg == "all":
		specs = experiments.All()
	default:
		for _, id := range strings.Split(*runArg, ",") {
			s, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				var ids []string
				for _, sp := range experiments.All() {
					ids = append(ids, sp.ID)
				}
				fmt.Fprintf(stderr, "latbench: unknown experiment %q (valid: %s)\n",
					id, strings.Join(ids, ", "))
				return 1
			}
			specs = append(specs, s)
		}
	}

	// An explicit -machine and a scenario that pins its own machine are
	// contradictory orders; the scenario would win silently (its pinned
	// machine is part of its reproducibility contract), so demand -force.
	if userSet["machine"] && !*force {
		for _, s := range specs {
			if s.Scenario != nil && s.Scenario.Machine != "" && s.Scenario.Machine != *machineID {
				fmt.Fprintf(stderr, "latbench: -machine %s conflicts with scenario %s, which pins machine %s (the scenario wins; pass -force to accept that)\n",
					*machineID, s.ID, s.Scenario.Machine)
				return 1
			}
		}
	}

	rendered := 0
	emit := func(out runner.Outcome) error {
		if out.Record.Failed() {
			kind := "failed"
			switch {
			case out.Record.TimedOut:
				kind = "timed out"
			case out.Record.Panicked:
				kind = "panicked"
			}
			fmt.Fprintf(stderr, "latbench: %s %s: %s\n", out.Spec.ID, kind, firstLine(out.Record.Error))
			return nil
		}
		if rendered > 0 {
			fmt.Fprintln(w, strings.Repeat("=", 90))
		}
		rendered++
		if err := out.Result.Render(w); err != nil {
			return fmt.Errorf("rendering %s: %w", out.Spec.ID, err)
		}
		fmt.Fprintf(w, "\n[%s: %s — reproduces %s]\n", out.Spec.ID, out.Spec.Title, out.Spec.Paper)
		return exportArtifacts(*csvDir, *svgDir, out.Spec.ID, out.Result)
	}

	var col *spans.Collector
	if *tracePath != "" || *attrPath != "" {
		col = &spans.Collector{}
	}
	opt := runner.Options{
		Jobs:    *jobs,
		Timeout: *timeout,
		Config:  experiments.Config{Seed: *seed, Quick: *quick, Machine: prof, Trace: col},
	}
	man, err := runner.Run(context.Background(), specs, opt, emit)
	if err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 1
	}

	if *tracePath != "" {
		if err := writeAtomic(*tracePath, func(w io.Writer) error {
			return spans.WriteChrome(w, col.Tracks())
		}); err != nil {
			fmt.Fprintf(stderr, "latbench: writing trace: %v\n", err)
			return 1
		}
	}
	if *attrPath != "" {
		if err := writeAtomic(*attrPath, func(w io.Writer) error {
			return trace.WriteAttribCSV(w, attribRecords(col.Tracks()))
		}); err != nil {
			fmt.Fprintf(stderr, "latbench: writing attribution: %v\n", err)
			return 1
		}
	}

	if *jsonPath != "" {
		jf, err := newAtomicFile(*jsonPath)
		if err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			return 1
		}
		defer jf.abort()
		if err := man.WriteJSON(jf); err != nil {
			fmt.Fprintf(stderr, "latbench: writing manifest: %v\n", err)
			return 1
		}
		if err := jf.commit(); err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			return 1
		}
	}

	if outFile != nil {
		if err := outFile.commit(); err != nil {
			fmt.Fprintf(stderr, "latbench: %v\n", err)
			return 1
		}
	}
	if man.Failed() > 0 {
		fmt.Fprintf(stderr, "latbench: %d of %d experiments failed\n", man.Failed(), len(man.Records))
		return 1
	}
	return 0
}

// corpusSpecs compiles every scenario document in dir, in path order,
// so a corpus replay is a deterministic suite.
func corpusSpecs(dir string) ([]experiments.Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenario documents (*.json) in %s", dir)
	}
	sort.Strings(paths)
	var specs []experiments.Spec
	for _, p := range paths {
		doc, err := scenario.ParseFile(p)
		if err != nil {
			return nil, err
		}
		spec, err := experiments.FromScenario(doc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// groupedUsage prints -h output with the flags grouped by what they
// control instead of flag's flat alphabetical list.
func groupedUsage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "Usage: latbench [flags]\n")
	groups := []struct {
		title string
		names []string
	}{
		{"run selection", []string{"list", "run", "quick", "seed", "jobs", "timeout"}},
		{"output", []string{"out", "json", "csv-dir", "svg-dir", "trace", "attrib"}},
		{"machine & scenario", []string{"machine", "scenario", "corpus", "force"}},
		{"host profiling", []string{"cpuprofile", "memprofile"}},
	}
	for _, g := range groups {
		fmt.Fprintf(w, "\n%s:\n", g.title)
		for _, name := range g.names {
			f := fs.Lookup(name)
			if f == nil {
				continue
			}
			typ, usage := flag.UnquoteUsage(f)
			line := "  -" + f.Name
			if typ != "" {
				line += " " + typ
			}
			fmt.Fprintf(w, "%s\n    \t%s", line, usage)
			switch f.DefValue {
			case "", "false", "0", "0s":
				// zero default: not worth printing
			default:
				fmt.Fprintf(w, " (default %s)", f.DefValue)
			}
			fmt.Fprintln(w)
		}
	}
}

// attribRecords reduces collected span tracks to per-episode
// attribution records: one row per interactive event, labelled
// "track: message", with its wall time decomposed by cause.
func attribRecords(tracks []spans.Track) []trace.AttribRecord {
	var recs []trace.AttribRecord
	for _, tr := range tracks {
		eps, _ := spans.Episodes(tr.Spans)
		for _, ep := range eps {
			recs = append(recs, trace.AttribRecord{
				Label:  tr.Name + ": " + ep.Label,
				Start:  ep.Start,
				End:    ep.End,
				Causes: ep.A.CauseDurations(),
			})
		}
	}
	return recs
}

// writeAtomic renders through an atomicFile so a failed export never
// leaves a truncated file at path.
func writeAtomic(path string, render func(w io.Writer) error) error {
	af, err := newAtomicFile(path)
	if err != nil {
		return err
	}
	defer af.abort()
	if err := render(af); err != nil {
		return err
	}
	return af.commit()
}

// firstLine trims a multi-line error (panic messages carry stacks) for
// the console; the full text is preserved in the JSON manifest.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// atomicFile is a buffered file written under a temporary name and
// renamed into place only on commit, so failures never leave a truncated
// results file behind.
type atomicFile struct {
	path string
	f    *os.File
	bw   *bufio.Writer
	done bool
}

// newAtomicFile opens a hidden temp file with a random name beside path.
// Like os.Create, and unlike os.CreateTemp's owner-only 0600, it asks
// for mode 0666 and leaves the rest to the umask, so the committed file
// has the mode a direct write would have given it.
func newAtomicFile(path string) (*atomicFile, error) {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp"+strconv.FormatUint(rand.Uint64(), 36))
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, err
	}
	return &atomicFile{path: path, f: f, bw: bufio.NewWriter(f)}, nil
}

func (a *atomicFile) Write(p []byte) (int, error) { return a.bw.Write(p) }

// commit flushes the buffer and renames the temp file to the final path.
func (a *atomicFile) commit() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.bw.Flush(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return os.Rename(a.f.Name(), a.path)
}

// abort discards the temp file; it is a no-op after commit.
func (a *atomicFile) abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

// exportArtifacts writes every artifact the result carries: events as
// CSV (when -csv-dir is set) and events/profiles/reports as SVGs (when
// -svg-dir is set). Artifacts are exported in the order the result
// declares them, so export is deterministic.
func exportArtifacts(csvDir, svgDir, id string, res experiments.Result) error {
	ap, ok := res.(experiments.ArtifactProvider)
	if !ok {
		return nil
	}
	for _, a := range ap.Artifacts() {
		if csvDir != "" && a.Kind == experiments.ArtifactEvents {
			if err := writeCSV(csvDir, id, a.Name, a); err != nil {
				return fmt.Errorf("exporting %s: %w", id, err)
			}
		}
		if svgDir != "" {
			if err := writeSVGs(svgDir, id, a); err != nil {
				return fmt.Errorf("exporting %s: %w", id, err)
			}
		}
	}
	return nil
}

func slug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "-"))
}

func writeCSV(dir, id, name string, a experiments.Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/%s-%s.csv", dir, id, slug(name)))
	if err != nil {
		return err
	}
	if err := viz.EventsCSV(f, a.Events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSVGs renders one artifact's browser-viewable figures: a time
// series per event set, histogram + cumulative curve per report, and a
// utilization plot per profile.
func writeSVGs(dir, id string, a experiments.Artifact) error {
	writeSVG := func(name string, render func(w io.Writer) error) error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(fmt.Sprintf("%s/%s-%s.svg", dir, id, slug(name)))
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	switch a.Kind {
	case experiments.ArtifactEvents:
		return writeSVG(a.Name+"-events", func(w io.Writer) error {
			return viz.TimeSeriesSVG(w, fmt.Sprintf("%s — %s", id, a.Name), a.Events, 100)
		})
	case experiments.ArtifactProfile:
		return writeSVG(a.Name+"-profile", func(w io.Writer) error {
			return viz.ProfileSVG(w, fmt.Sprintf("%s — %s", id, a.Name), a.Profile)
		})
	case experiments.ArtifactReport:
		rep := a.Report
		lats := rep.Latencies()
		hi := 1.0
		for _, l := range lats {
			if l > hi {
				hi = l
			}
		}
		if err := writeSVG(a.Name+"-histogram", func(w io.Writer) error {
			return viz.HistogramSVG(w, fmt.Sprintf("%s — %s", id, a.Name),
				rep.Histogram(0, hi*1.01, 24))
		}); err != nil {
			return err
		}
		return writeSVG(a.Name+"-cumulative", func(w io.Writer) error {
			return viz.CumulativeSVG(w, fmt.Sprintf("%s — %s", id, a.Name),
				rep.CumulativeCurve())
		})
	}
	return nil
}
