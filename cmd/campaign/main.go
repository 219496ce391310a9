// Command campaign runs population-scale latency campaigns and
// analyzes their ledgers, surviving everything short of disk loss.
//
// A campaign spec (see README "Campaigns") sweeps personas × machines ×
// scenarios over a seed range; `campaign run` expands the cube into
// cells, shards them across a worker pool, folds every session's event
// latencies into streaming sketches, and appends one record per cell to
// a JSONL ledger. The ledger — and everything derived from it — is
// byte-identical for any -jobs value.
//
// Crash safety: a cell whose sessions fail is quarantined in a sidecar
// (<ledger minus .jsonl>.quarantine.jsonl) while the run completes the
// remaining cells; SIGINT/SIGTERM drains in-flight cells, flushes and
// fsyncs every completed record, and exits 3 (resumable) — a second
// signal aborts immediately. `campaign resume` set-differences the
// spec's cells against the ledger and runs only the remainder, in
// canonical order, retrying quarantined cells with the same seeds under
// a bounded backoff budget: an interrupted run plus a resume produces a
// ledger byte-identical to an uninterrupted run. `campaign repair`
// salvages the one legal corruption shape — a torn final append — by
// truncating to the last valid record; it refuses anything else.
//
// `campaign analyze` replays a ledger: it ranks configurations by tail
// latency and jitter, renders a KPI table, suggests refined follow-up
// cells, and with -emit-spec writes those suggestions as a runnable
// follow-up spec.
//
// Crash injection (testing): the LATLAB_CAMPAIGN_INJECT environment
// variable accepts comma-separated directives — `sleep=50ms` delays
// every cell attempt, `fail=SUBSTR` fails every attempt of cells whose
// id contains SUBSTR, `fail=SUBSTR@N` fails only while the cell's
// global attempt number is ≤ N — so CI can fault or slow specific
// cells deterministically through the real binary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"latlab/internal/campaign"
)

// Exit codes, so agents and CI can branch on outcome without parsing
// stderr (documented in -h).
const (
	exitOK          = 0 // success
	exitUsage       = 1 // usage or configuration error
	exitQuarantined = 2 // run completed but cells failed and were quarantined
	exitInterrupted = 3 // interrupted; ledger is a clean resumable prefix
	exitCorrupt     = 4 // ledger (or quarantine sidecar) corruption
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand; it is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return exitUsage
	}
	switch args[0] {
	case "run":
		return runCampaign(args[1:], stdout, stderr, false)
	case "resume":
		return runCampaign(args[1:], stdout, stderr, true)
	case "analyze":
		return runAnalyze(args[1:], stdout, stderr)
	case "repair":
		return runRepair(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return exitOK
	default:
		fmt.Fprintf(stderr, "campaign: unknown subcommand %q\n", args[0])
		usage(stderr)
		return exitUsage
	}
}

// usage prints the top-level help.
func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  campaign run     -spec spec.json -ledger out.jsonl [-quick] [-jobs N] [-timeout D]
  campaign resume  -spec spec.json -ledger out.jsonl [-quick] [-jobs N] [-timeout D]
                   [-retry-budget N] [-backoff D]
  campaign analyze -ledger out.jsonl [-out report.txt]
                   [-emit-spec next.json -spec spec.json]
  campaign repair  -ledger out.jsonl

run expands a campaign spec (personas x machines x scenarios x seeds)
into cells, executes every seeded session, and appends one sketch
record per cell to the JSONL ledger. The ledger is byte-identical for
any -jobs value. A failing cell is quarantined (recorded in
<ledger>.quarantine.jsonl) while the rest of the campaign completes;
SIGINT/SIGTERM drains in-flight cells, fsyncs the ledger, and leaves a
resumable prefix.

resume runs only the cells the ledger does not already hold, appending
in canonical order — an interrupted run plus a resume reproduces the
uninterrupted ledger byte for byte. Quarantined cells are retried with
the same seeds, with exponential -backoff between attempts, until each
cell's total attempts reach -retry-budget.

analyze replays a ledger: merges each configuration's cells, ranks
configurations by p95 (ties: p50, jitter), renders a KPI table, and
suggests refined follow-up cells; -emit-spec writes the suggestions as
a runnable campaign spec (needs -spec to resolve scenario paths).

repair salvages a ledger whose final append was torn (e.g. by a crash
mid-write): it truncates to the last valid record and reports exactly
what was dropped. Any other corruption is refused.

exit codes:
  0  success
  1  usage or configuration error
  2  completed, but some cells failed and were quarantined; retry them
     with 'campaign resume'
  3  interrupted — the ledger is a clean, resumable prefix; continue
     with 'campaign resume'
  4  ledger corruption — a torn final append is fixable with
     'campaign repair', anything else is not
`)
}

// planErr marks ledger-scan failures that are semantic mismatches
// (wrong campaign, duplicate cell, changed spec) rather than file
// corruption, so they exit 1 instead of 4.
type planErr struct{ err error }

// Error implements error.
func (e planErr) Error() string { return e.err.Error() }

// runCampaign implements `campaign run` (resume=false) and `campaign
// resume` (resume=true); the two share everything but cell selection
// and the retry budget.
func runCampaign(args []string, stdout, stderr io.Writer, resume bool) int {
	name := "campaign run"
	if resume {
		name = "campaign resume"
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath   = fs.String("spec", "", "campaign spec file (required)")
		ledgerPath = fs.String("ledger", "", "JSONL ledger to append to (required)")
		quick      = fs.Bool("quick", false, "trim workload sizes (for smoke runs)")
		jobs       = fs.Int("jobs", runtime.NumCPU(), "run up to N cells concurrently")
		timeout    = fs.Duration("timeout", 0, "per-cell timeout, retries included (0 = none)")
	)
	budget, backoff := new(int), new(time.Duration)
	if resume {
		budget = fs.Int("retry-budget", 3, "max total attempts per quarantined cell")
		backoff = fs.Duration("backoff", time.Second, "base delay between retry attempts (doubles per attempt)")
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *specPath == "" || *ledgerPath == "" {
		fmt.Fprintf(stderr, "%s: -spec and -ledger are required\n", name)
		return exitUsage
	}
	c, err := campaign.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	inject, err := injectFromEnv()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}

	// Refuse to extend a ledger we could not replay: append-only is only
	// safe if what is already there is intact. The scan streams — the
	// ledger is never held in memory — and resume feeds the same pass
	// into its planner instead of re-reading the file.
	plan := campaign.NewResume(c, *quick, campaign.Options{}.SketchAlpha())
	existing := 0
	if lf, err := os.Open(*ledgerPath); err == nil {
		scanErr := campaign.ScanLedger(lf, func(rec campaign.Record) error {
			existing++
			if resume {
				if err := plan.Observe(rec); err != nil {
					return planErr{err}
				}
			}
			return nil
		})
		lf.Close()
		if scanErr != nil {
			fmt.Fprintf(stderr, "%s: existing ledger %s: %v\n", name, *ledgerPath, scanErr)
			if errors.As(scanErr, &planErr{}) {
				return exitUsage
			}
			fmt.Fprintf(stderr, "%s: if the final append was torn, `campaign repair -ledger %s` can salvage it\n", name, *ledgerPath)
			return exitCorrupt
		}
	} else if !os.IsNotExist(err) {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}

	// Quarantine sidecar: resume consults it for retry budgets; both
	// modes append newly failed cells to it as they happen.
	qPath := campaign.QuarantinePath(*ledgerPath)
	prior := map[string]campaign.Quarantine{}
	if entries, err := campaign.LoadQuarantine(qPath); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return exitCorrupt
	} else {
		for _, q := range entries {
			if q.Campaign != c.Spec.ID {
				fmt.Fprintf(stderr, "%s: quarantine file %s holds campaign %q, not %q\n", name, qPath, q.Campaign, c.Spec.ID)
				return exitUsage
			}
		}
		prior = campaign.LatestQuarantine(entries)
	}

	// Cell selection: run executes the full expansion (appending), resume
	// only the set-difference, skipping quarantined cells that are out of
	// retry budget.
	cells := campaign.Cells(c)
	var skipped []campaign.Quarantine
	priorAttempts := map[string]int{}
	if resume {
		cells, skipped = plan.Missing(prior, *budget)
		for id, q := range prior {
			priorAttempts[id] = q.Attempts
		}
		if len(cells) == 0 && len(skipped) == 0 {
			fmt.Fprintf(stdout, "campaign %s: ledger already complete (%d cells); nothing to resume\n", c.Spec.ID, existing)
			return exitOK
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops feeding new
	// cells and lets in-flight ones drain through the reorder buffer; a
	// second aborts in place. Either way the appended records stay a
	// clean prefix and the exit code says "resumable".
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drain := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigc:
		case <-done:
			return
		}
		fmt.Fprintln(stderr, "campaign: interrupted — draining in-flight cells (interrupt again to abort)")
		close(drain)
		select {
		case <-sigc:
		case <-done:
			return
		}
		fmt.Fprintln(stderr, "campaign: aborting")
		cancel()
	}()

	lf, err := os.OpenFile(*ledgerPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	var qf *os.File // opened on first quarantined cell
	closeAll := func() {
		lf.Close()
		if qf != nil {
			qf.Close()
		}
	}

	sum, runErr := campaign.RunCells(ctx, c, cells,
		campaign.Options{
			Jobs:          *jobs,
			Quick:         *quick,
			Timeout:       *timeout,
			RetryBudget:   *budget,
			Backoff:       *backoff,
			PriorAttempts: priorAttempts,
			Drain:         drain,
			Inject:        inject,
			OnQuarantine: func(q campaign.Quarantine) error {
				if qf == nil {
					var err error
					qf, err = os.OpenFile(qPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
					if err != nil {
						return err
					}
				}
				if err := campaign.AppendQuarantine(qf, q); err != nil {
					return err
				}
				return qf.Sync()
			},
		},
		// One write syscall per record, synced at the end (and on
		// interruption): a crash can tear at most the final append, which
		// `campaign repair` salvages.
		func(r campaign.Record) error { return campaign.AppendRecord(lf, r) })
	if err := lf.Sync(); err != nil && runErr == nil {
		runErr = err
	}

	interrupted := sum.Interrupted || errors.Is(runErr, context.Canceled)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		closeAll()
		fmt.Fprintln(stderr, runErr)
		return exitUsage
	}

	// Compact the quarantine sidecar once the outcome is settled: the
	// still-quarantined set is the out-of-budget skips plus this run's
	// failures, in expansion order. An interrupted run skips compaction —
	// its append-only entries keep the attempt counts crash-safe.
	quarantined := len(sum.Quarantined) + len(skipped)
	if !interrupted {
		byCell := map[string]campaign.Quarantine{}
		for _, q := range skipped {
			byCell[q.Cell()] = q
		}
		for _, q := range sum.Quarantined {
			byCell[q.Cell()] = q
		}
		var final []campaign.Quarantine
		for _, cell := range campaign.Cells(c) {
			if q, ok := byCell[cell.ID()]; ok {
				final = append(final, q)
			}
		}
		if err := campaign.WriteQuarantine(qPath, final); err != nil {
			closeAll()
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
	}
	closeAll()

	verb := "run"
	if resume {
		verb = "resume"
		fmt.Fprintf(stdout, "campaign %s: resuming %d of %d cells (%d already in ledger, %d out of retry budget)\n",
			c.Spec.ID, len(cells), len(campaign.Cells(c)), existing, len(skipped))
	}
	fmt.Fprintf(stdout, "campaign %s: %d cells, %d sessions, %d events -> %s\n",
		c.Spec.ID, sum.Cells, sum.Sessions, sum.Events, *ledgerPath)
	if interrupted {
		fmt.Fprintf(stderr, "campaign %s: interrupted after %d of %d cells; ledger is a clean prefix — continue with `campaign resume`\n",
			c.Spec.ID, sum.Cells, sum.Planned)
		return exitInterrupted
	}
	if quarantined > 0 {
		fmt.Fprintf(stderr, "campaign %s: %s completed with %d cells quarantined (%s); retry with `campaign resume`\n",
			c.Spec.ID, verb, quarantined, qPath)
		return exitQuarantined
	}
	return exitOK
}

// runAnalyze implements `campaign analyze`.
func runAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ledgerPath = fs.String("ledger", "", "JSONL ledger to analyze (required)")
		outPath    = fs.String("out", "", "write the report to this file instead of stdout")
		emitSpec   = fs.String("emit-spec", "", "write suggested_next as a runnable campaign spec to this file")
		specPath   = fs.String("spec", "", "original campaign spec (required by -emit-spec, to resolve scenario paths)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *ledgerPath == "" {
		fmt.Fprintln(stderr, "campaign analyze: -ledger is required")
		return exitUsage
	}
	if *emitSpec != "" && *specPath == "" {
		fmt.Fprintln(stderr, "campaign analyze: -emit-spec needs -spec to resolve scenario paths")
		return exitUsage
	}
	f, err := os.Open(*ledgerPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	// Stream the ledger line-at-a-time; only the parsed records are
	// retained, never the file bytes.
	var records []campaign.Record
	scanErr := campaign.ScanLedger(f, func(r campaign.Record) error {
		records = append(records, r)
		return nil
	})
	f.Close()
	if scanErr != nil {
		fmt.Fprintln(stderr, scanErr)
		fmt.Fprintf(stderr, "campaign analyze: if the final append was torn, `campaign repair -ledger %s` can salvage it\n", *ledgerPath)
		return exitCorrupt
	}
	a, err := campaign.Analyze(records)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	w := io.Writer(stdout)
	var out *os.File
	if *outPath != "" {
		out, err = os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
		w = out
	}
	renderErr := a.Render(w)
	if out != nil {
		if err := out.Close(); err != nil && renderErr == nil {
			renderErr = err
		}
	}
	if renderErr != nil {
		fmt.Fprintln(stderr, renderErr)
		return exitUsage
	}
	if *emitSpec != "" {
		if err := writeNextSpec(a, *specPath, *emitSpec); err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
		fmt.Fprintf(stdout, "suggested spec (%d cells) -> %s\n", len(a.SuggestedNext), *emitSpec)
	}
	return exitOK
}

// writeNextSpec renders the analysis's suggested cells as a runnable
// spec at outPath, resolving each scenario id to a path relative to
// the emitted file via the original spec.
func writeNextSpec(a *campaign.Analysis, specPath, outPath string) error {
	c, err := campaign.LoadSpec(specPath)
	if err != nil {
		return err
	}
	outDir, err := filepath.Abs(filepath.Dir(outPath))
	if err != nil {
		return err
	}
	specDir, err := filepath.Abs(filepath.Dir(specPath))
	if err != nil {
		return err
	}
	paths := map[string]string{}
	for i, doc := range c.Docs {
		rel, err := filepath.Rel(outDir, filepath.Join(specDir, c.Spec.Scenarios[i]))
		if err != nil {
			return err
		}
		paths[doc.ID] = filepath.ToSlash(rel)
	}
	next, err := a.NextSpec(paths)
	if err != nil {
		return err
	}
	data, err := campaign.MarshalSpec(next)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

// runRepair implements `campaign repair`: salvage a torn final append
// by truncating the ledger to its last valid record.
func runRepair(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign repair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("ledger", "", "JSONL ledger to repair (required)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *ledgerPath == "" {
		fmt.Fprintln(stderr, "campaign repair: -ledger is required")
		return exitUsage
	}
	f, err := os.OpenFile(*ledgerPath, os.O_RDWR, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	defer f.Close()
	s, err := campaign.SalvageLedger(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		fmt.Fprintln(stderr, "campaign repair: this is not a torn final append; refusing to touch the ledger")
		return exitCorrupt
	}
	if s.Tail == nil {
		fmt.Fprintf(stdout, "campaign repair: %s is intact (%d records); nothing to do\n", *ledgerPath, s.Records)
		return exitOK
	}
	if err := f.Truncate(s.ValidBytes); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	if err := f.Sync(); err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "campaign repair: %s: dropped a torn final append (%d bytes, %s) after %d valid records; resume with `campaign resume`\n",
		*ledgerPath, len(s.Tail), peek(s.Tail), s.Records)
	return exitOK
}

// peek renders the head of a torn tail for the repair report.
func peek(b []byte) string {
	const n = 40
	if len(b) <= n {
		return strconv.Quote(string(b))
	}
	return strconv.Quote(string(b[:n])) + "…"
}

// injectFromEnv builds the crash-injection hook from
// LATLAB_CAMPAIGN_INJECT (see the package comment for the grammar);
// an empty variable means no hook.
func injectFromEnv() (func(context.Context, campaign.Cell, int) error, error) {
	val := os.Getenv("LATLAB_CAMPAIGN_INJECT")
	if val == "" {
		return nil, nil
	}
	var sleep time.Duration
	var failSub string
	failUntil := -1 // -1: always fail matching cells
	for _, dir := range strings.Split(val, ",") {
		key, arg, ok := strings.Cut(dir, "=")
		if !ok {
			return nil, fmt.Errorf("campaign: LATLAB_CAMPAIGN_INJECT directive %q is not key=value", dir)
		}
		switch key {
		case "sleep":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("campaign: LATLAB_CAMPAIGN_INJECT sleep: %w", err)
			}
			sleep = d
		case "fail":
			failSub = arg
			if sub, n, ok := strings.Cut(arg, "@"); ok {
				cnt, err := strconv.Atoi(n)
				if err != nil {
					return nil, fmt.Errorf("campaign: LATLAB_CAMPAIGN_INJECT fail@: %w", err)
				}
				failSub, failUntil = sub, cnt
			}
		default:
			return nil, fmt.Errorf("campaign: LATLAB_CAMPAIGN_INJECT: unknown directive %q (want sleep= or fail=)", key)
		}
	}
	return func(ctx context.Context, cell campaign.Cell, attempt int) error {
		if sleep > 0 {
			t := time.NewTimer(sleep)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if failSub != "" && strings.Contains(cell.ID(), failSub) {
			if failUntil < 0 || attempt <= failUntil {
				return fmt.Errorf("injected failure (LATLAB_CAMPAIGN_INJECT, attempt %d)", attempt)
			}
		}
		return nil
	}, nil
}
