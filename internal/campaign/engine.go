package campaign

import (
	"context"
	"fmt"
	"io"
	"time"

	"latlab/internal/core"
	"latlab/internal/experiments"
	"latlab/internal/kernel"
	"latlab/internal/perception"
	"latlab/internal/runner"
	"latlab/internal/scenario"
	"latlab/internal/stats"
)

// Options tunes a campaign run.
type Options struct {
	// Jobs is the worker-pool size handed to the runner; <=0 means one
	// worker per CPU. The ledger bytes are identical for every value.
	Jobs int
	// Quick selects the quick workload parameter set for every session,
	// exactly like latbench -quick.
	Quick bool
	// Timeout bounds each cell's wall time — the whole retry loop,
	// backoff included; 0 means no limit. A timed-out cell is
	// quarantined, not fatal.
	Timeout time.Duration
	// RetryBudget caps the total attempts a quarantined cell may consume
	// across the original run and every resume. Cells without a prior
	// quarantine entry always get exactly one attempt (failures are
	// quarantined for resume to retry, keeping the first pass fast);
	// a cell with prior failures gets RetryBudget - prior attempts here.
	// <= 0 means 1.
	RetryBudget int
	// Backoff is the base delay between retry attempts of one cell. The
	// delay before global attempt n (2nd, 3rd, …) is Backoff << (n-2),
	// a deterministic exponential schedule — unlike the runner's
	// seed-perturbing retry, the seeds never change. Zero disables
	// waiting.
	Backoff time.Duration
	// PriorAttempts maps cell ids to failed attempts recorded in the
	// quarantine sidecar, so the retry budget spans runs.
	PriorAttempts map[string]int
	// Drain, when closed, stops feeding new cells while in-flight cells
	// run to completion and flush through the reorder buffer — graceful
	// shutdown. The completed set stays a prefix of expansion order, so
	// the ledger remains byte-identical resumable.
	Drain <-chan struct{}
	// Inject is the crash-injection seam: when non-nil it runs before
	// every cell attempt (attempt is the global 1-based attempt number,
	// prior failures included) and a non-nil return fails the attempt
	// without running any session. Tests and the
	// LATLAB_CAMPAIGN_INJECT env hook use it to fault or delay specific
	// cells deterministically.
	Inject func(ctx context.Context, cell Cell, attempt int) error
	// OnQuarantine, when non-nil, receives each quarantined cell in
	// expansion order as soon as its failure is known — the hook the CLI
	// uses to append the sidecar crash-safely while the run continues. A
	// returned error stops the run like an emit error.
	OnQuarantine func(Quarantine) error
	// Engine is ignored: every session runs the one engine.
	//
	// Deprecated: kept only because the benchmark module (bench/) still
	// sets it.
	Engine kernel.Engine
	// Batch is ignored: a cell drives one session at a time.
	//
	// Deprecated: kept only because the benchmark module (bench/) still
	// sets it.
	Batch int
}

// SketchAlpha returns the sketch accuracy every campaign runs with,
// stats.DefaultSketchAlpha — the value resume planning must match
// against existing records.
func (o Options) SketchAlpha() float64 { return stats.DefaultSketchAlpha }

// attemptsFor returns how many attempts the cell may consume this run.
func (o Options) attemptsFor(id string) (prior, allowed int) {
	prior = o.PriorAttempts[id]
	if prior == 0 {
		return 0, 1
	}
	budget := o.RetryBudget
	if budget < 1 {
		budget = 1
	}
	allowed = budget - prior
	if allowed < 1 {
		allowed = 1
	}
	return prior, allowed
}

// Cell is one unit of campaign work: a single configuration swept over
// a contiguous seed subrange. Cells are what the runner shards, so
// every float inside a cell folds on one goroutine, in seed order.
type Cell struct {
	// Index is the cell's position in expansion order (ledger order).
	Index int
	// Doc is the scenario template, already re-pointed at the cell's
	// persona and machine, with Seed cleared so the per-session seed
	// flows from the run config.
	Doc scenario.Doc
	// Scenario, Persona, Machine name the configuration.
	Scenario string
	Persona  string
	Machine  string
	// Faults is the fault-plan variant applied to the template ("" =
	// the template's own block; see Spec.Faults).
	Faults string
	// SeedStart and SeedCount delimit the seed subrange.
	SeedStart uint64
	SeedCount int
	// Perception carries the spec's perception flag: fold per-class
	// stats into the cell's record.
	Perception bool
}

// ID returns the cell id used in ledger records and error messages.
func (c Cell) ID() string {
	return fmt.Sprintf("%s/%d+%d", configKey(c.Scenario, c.Persona, c.Machine, c.Faults), c.SeedStart, c.SeedCount)
}

// Cells expands the campaign into cells in canonical order. For a cube
// spec that is scenario-major, then persona, then machine, then fault
// variant, then ascending seed chunks — the order records appear in
// the ledger. For an explicit cell-list spec it is simply the listed
// order, one engine cell per CellRef.
func Cells(c *Campaign) []Cell {
	var out []Cell
	if len(c.Spec.Cells) > 0 {
		docByID := map[string]int{}
		for i, doc := range c.Docs {
			docByID[doc.ID] = i
		}
		for i, ref := range c.Spec.Cells {
			d := c.Docs[docByID[ref.Scenario]]
			d.Persona = ref.Persona
			d.Machine = ref.Machine
			d.Seed = 0
			applyFaultVariant(&d, ref.Faults)
			out = append(out, Cell{
				Index:      i,
				Doc:        d,
				Scenario:   ref.Scenario,
				Persona:    ref.Persona,
				Machine:    ref.Machine,
				Faults:     ref.Faults,
				SeedStart:  ref.SeedStart,
				SeedCount:  ref.SeedCount,
				Perception: c.Spec.Perception,
			})
		}
		return out
	}
	// An absent faults axis expands as the single variant "": keep the
	// template's fault block, and omit the faults segment from cell ids
	// so pre-axis ledgers stay byte-identical.
	variants := c.Spec.Faults
	if len(variants) == 0 {
		variants = []string{""}
	}
	for si, doc := range c.Docs {
		for _, p := range c.Spec.Personas {
			for _, m := range c.Spec.Machines {
				for _, f := range variants {
					start := c.Spec.Seeds.Start
					remaining := c.Spec.Seeds.Count
					for remaining > 0 {
						n := c.Spec.Seeds.PerCell
						if n > remaining {
							n = remaining
						}
						d := c.Docs[si]
						d.Persona = p
						d.Machine = m
						d.Seed = 0
						applyFaultVariant(&d, f)
						out = append(out, Cell{
							Index:      len(out),
							Doc:        d,
							Scenario:   doc.ID,
							Persona:    p,
							Machine:    m,
							Faults:     f,
							SeedStart:  start,
							SeedCount:  n,
							Perception: c.Spec.Perception,
						})
						start += uint64(n)
						remaining -= n
					}
				}
			}
		}
	}
	return out
}

// Default fault span for derived variants when the scenario template
// pins none: windows are placed inside the first 10 simulated seconds
// (2 in -quick mode), matching the spans the committed fault scenarios
// use.
const (
	DefaultFaultSpanS      = 10.0
	DefaultQuickFaultSpanS = 2.0
)

// applyFaultVariant rewrites the cell's scenario document for one
// fault-axis variant: "" keeps the template's block, FaultNone strips
// it, and a kind name replaces it with a seed-derived plan of that
// kind — spanned like the template's own derived block when it has
// one, else over the package default span.
func applyFaultVariant(d *scenario.Doc, variant string) {
	switch variant {
	case "":
	case FaultNone:
		d.Faults = nil
	default:
		span, quickSpan := DefaultFaultSpanS, DefaultQuickFaultSpanS
		if f := d.Faults; f != nil && f.SpanS > 0 {
			span = f.SpanS
			if f.QuickSpanS > 0 {
				quickSpan = f.QuickSpanS
			}
		}
		d.Faults = &scenario.FaultSpec{
			Kinds:      []string{variant},
			SpanS:      span,
			QuickSpanS: quickSpan,
		}
	}
}

// Summary totals a completed campaign run.
type Summary struct {
	// Planned is the number of cells the run set out to execute.
	Planned int
	// Cells is the number of ledger records emitted.
	Cells int
	// Sessions is the number of seeded sessions executed.
	Sessions int
	// Events is the number of event latencies folded into sketches.
	Events uint64
	// Quarantined lists the cells that failed (error, panic, timeout)
	// after their attempts, in expansion order. The run completed the
	// remaining cells instead of aborting; `campaign resume` retries
	// these with the same seeds.
	Quarantined []Quarantine
	// Interrupted reports that the run stopped early — a drained or
	// cancelled context — and the ledger holds a resumable prefix
	// instead of every planned cell.
	Interrupted bool
}

// cellResult carries a finished cell's outcome through the runner's
// reorder buffer. It is the experiments.Result of the synthetic
// per-cell spec; exactly one of rec/fail is meaningful, so a failed
// cell flows through the same ordered path as a completed one instead
// of aborting the suite.
type cellResult struct {
	id   string
	rec  Record
	fail *Quarantine
}

// Render implements experiments.Result with the cell's headline.
func (r *cellResult) Render(w io.Writer) error {
	if r.fail != nil {
		_, err := fmt.Fprintf(w, "cell %s: quarantined after %d attempts: %s\n",
			r.id, r.fail.Attempts, r.fail.Error)
		return err
	}
	_, err := fmt.Fprintf(w, "cell %s: %d sessions, %d events, p99 %.2fms\n",
		r.id, r.rec.Sessions, r.rec.Events, r.rec.P99Ms)
	return err
}

// Run executes the whole campaign: every cell of the expanded cube, in
// expansion order. See RunCells for the execution contract.
func Run(ctx context.Context, c *Campaign, opt Options, emit func(Record) error) (Summary, error) {
	return RunCells(ctx, c, Cells(c), opt, emit)
}

// RunCells executes the given cells (any subset of the campaign's
// expansion, in expansion order — Run passes all of them, resume the
// set-difference): cells shard across the runner's worker pool, each
// cell folds its sessions sequentially in seed order into a fresh
// sketch, and emit receives one Record per completed cell in cell
// order (the runner's reorder buffer restores it whatever the worker
// count). Sessions store no idle samples (their instrument folds each
// into busy spans as it records it), so a cell keeps nothing per
// session beyond its events and shares nothing with other cells.
//
// A cell whose sessions error, panic, or time out is quarantined — the
// run continues — and lands in Summary.Quarantined (and
// opt.OnQuarantine), never in the ledger. Cancellation and draining
// instead mark the run Interrupted, and record appends stop at the
// first not-completed cell so the emitted records always form a prefix
// of cells: an interrupted ledger plus a resume reconverges to the
// byte-identical uninterrupted ledger. If emit or OnQuarantine returns
// an error the run stops and that error is returned.
func RunCells(ctx context.Context, c *Campaign, cells []Cell, opt Options, emit func(Record) error) (Summary, error) {
	alpha := opt.SketchAlpha()
	specs := make([]experiments.Spec, len(cells))
	for i, cell := range cells {
		specs[i] = cellSpec(c.Spec.ID, cell, alpha, opt)
	}
	sum := Summary{Planned: len(cells)}
	next := 0
	_, err := runner.Run(ctx, specs,
		runner.Options{
			Jobs:    opt.Jobs,
			Timeout: opt.Timeout,
			// Retries must stay 0: the runner's retry perturbs the seed, and
			// a perturbed seed breaks the ledger's determinism contract. The
			// deterministic same-seed retry lives in cellSpec instead.
			Retries: 0,
			Drain:   opt.Drain,
			Config:  experiments.Config{Quick: opt.Quick},
		},
		func(out runner.Outcome) error {
			cell := cells[next]
			next++
			// Interruption — a drained suffix or a cell cut down by
			// cancellation — is not failure: the cell is simply not run, and
			// everything from the first such gap on is left for resume so
			// the appended records stay a prefix of expansion order.
			if out.Record.Cancelled || out.Record.Error == context.Canceled.Error() {
				sum.Interrupted = true
				return nil
			}
			if out.Record.Failed() {
				// Panics and timeouts bypass the in-spec retry loop (the
				// runner caught them at the spec boundary), so the attempt
				// accounting is the prior count plus this one attempt.
				prior, _ := opt.attemptsFor(cell.ID())
				return quarantine(&sum, opt, cellQuarantine(c.Spec.ID, cell, opt.Quick, prior+1, out.Record.Error))
			}
			res := out.Result.(*cellResult)
			if res.fail != nil {
				return quarantine(&sum, opt, *res.fail)
			}
			if sum.Interrupted {
				// A completed cell after an interruption gap would land out
				// of order; drop it and let resume re-run it.
				return nil
			}
			sum.Cells++
			sum.Sessions += res.rec.Sessions
			sum.Events += res.rec.Events
			return emit(res.rec)
		})
	// Cells the collector never saw — the feed stopped on a drain or
	// cancellation — are interruption too, even though the runner's
	// synthetic records for them bypass the emit path.
	if next < len(cells) {
		sum.Interrupted = true
	}
	if err != nil && ctx.Err() != nil {
		sum.Interrupted = true
	}
	return sum, err
}

// quarantine records one failed cell and forwards it to the hook.
func quarantine(sum *Summary, opt Options, q Quarantine) error {
	sum.Quarantined = append(sum.Quarantined, q)
	if opt.OnQuarantine != nil {
		return opt.OnQuarantine(q)
	}
	return nil
}

// cellQuarantine builds the quarantine entry for a failed cell.
func cellQuarantine(campaignID string, cell Cell, quick bool, attempts int, errMsg string) Quarantine {
	return Quarantine{
		Schema:    QuarantineSchemaVersion,
		Campaign:  campaignID,
		Scenario:  cell.Scenario,
		Persona:   cell.Persona,
		Machine:   cell.Machine,
		Faults:    cell.Faults,
		SeedStart: cell.SeedStart,
		SeedCount: cell.SeedCount,
		Quick:     quick,
		Attempts:  attempts,
		Error:     errMsg,
	}
}

// cellSpec wraps one cell as a synthetic experiments.Spec so the
// runner can schedule it like any other experiment. The spec's Run
// holds the deterministic retry loop: up to the cell's allowed
// attempts with the *same* seeds, exponential backoff between them,
// and a cellResult carrying either the record or the quarantine entry
// — it only returns an error for cancellation, so a failing cell never
// aborts the suite.
func cellSpec(campaignID string, cell Cell, alpha float64, opt Options) experiments.Spec {
	return experiments.Spec{
		ID:    cell.ID(),
		Title: fmt.Sprintf("campaign %s cell %s", campaignID, cell.ID()),
		Run: func(ctx context.Context, _ experiments.Config) (experiments.Result, error) {
			prior, allowed := opt.attemptsFor(cell.ID())
			var lastErr error
			for a := 0; a < allowed; a++ {
				attempt := prior + a + 1
				if a > 0 && opt.Backoff > 0 {
					if err := sleepCtx(ctx, opt.Backoff<<(attempt-2)); err != nil {
						return nil, err
					}
				}
				var rec Record
				var err error
				if opt.Inject != nil {
					err = opt.Inject(ctx, cell, attempt)
				}
				if err == nil {
					rec, err = runCell(ctx, campaignID, cell, alpha, opt)
				}
				if err == nil {
					return &cellResult{id: cell.ID(), rec: rec}, nil
				}
				if ctx.Err() != nil {
					// Cancellation, not failure: surface the bare context
					// error so the collector files the cell under
					// "interrupted", never "quarantined".
					return nil, ctx.Err()
				}
				lastErr = err
			}
			q := cellQuarantine(campaignID, cell, opt.Quick, prior+allowed, lastErr.Error())
			return &cellResult{id: cell.ID(), fail: &q}, nil
		},
	}
}

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runCell executes a cell's sessions in seed order, folding every
// event latency into one sketch and returning the finished ledger
// record. Each session is opened, driven, read and closed before the
// next opens, and its events are discarded after folding, so memory
// stays flat at any population size.
func runCell(ctx context.Context, campaignID string, cell Cell, alpha float64, opt Options) (Record, error) {
	sk := stats.NewSketch(alpha)
	sessions := 0
	// The perception fold walks the same events in the same order as the
	// headline sketch, adding the identical float, so turning the block on
	// never perturbs the headline distribution.
	var per *PerceptionStats
	model := perception.Default()
	if cell.Perception {
		per = &PerceptionStats{}
	}
	fold := func(events []core.Event) {
		for _, ev := range events {
			ms := ev.Latency.Milliseconds()
			sk.Add(ms)
			if per == nil {
				continue
			}
			ec := perception.ClassOfKind(ev.Kind)
			switch model.Classify(ec, ms) {
			case perception.Imperceptible:
				per.Imperceptible++
			case perception.Perceptible:
				per.Perceptible++
			case perception.Annoying:
				per.Annoying++
			default:
				per.Unusable++
			}
			dst := &per.Command
			switch ec {
			case perception.Typing:
				dst = &per.Typing
			case perception.Pointing:
				dst = &per.Pointing
			}
			if *dst == nil {
				*dst = stats.NewSketch(alpha)
			}
			(*dst).Add(ms)
		}
		sessions++
	}
	if err := cell.Doc.Validate(); err != nil {
		return Record{}, err
	}
	for i := 0; i < cell.SeedCount; i++ {
		if err := ctx.Err(); err != nil {
			return Record{}, err
		}
		seed := cell.SeedStart + uint64(i)
		events, err := sessionEvents(cell.Doc, seed, opt.Quick)
		if err != nil {
			return Record{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		fold(events)
	}
	return Record{
		Schema:     RecordSchemaVersion,
		Campaign:   campaignID,
		Scenario:   cell.Scenario,
		Persona:    cell.Persona,
		Machine:    cell.Machine,
		Faults:     cell.Faults,
		SeedStart:  cell.SeedStart,
		SeedCount:  cell.SeedCount,
		Quick:      opt.Quick,
		Sessions:   sessions,
		Events:     sk.Count(),
		P50Ms:      sk.Quantile(0.50),
		P95Ms:      sk.Quantile(0.95),
		P99Ms:      sk.Quantile(0.99),
		MaxMs:      sk.Max(),
		MeanMs:     sk.Mean(),
		JitterMs:   sk.StdDev(),
		Sketch:     sk,
		Perception: per,
	}, nil
}

// sessionEvents opens doc's session at seed, drives it and reads its
// events — all a ledger record needs. The deferred Close releases the
// machine when Drive panics; Events closes it otherwise.
func sessionEvents(doc scenario.Doc, seed uint64, quick bool) ([]core.Event, error) {
	s, err := experiments.OpenScenarioSession(experiments.Config{Seed: seed, Quick: quick}, doc)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.Drive()
	return s.Events(), nil
}
