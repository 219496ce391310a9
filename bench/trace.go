package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"latlab/internal/campaign"
	"latlab/internal/experiments"
	"latlab/internal/perception"
	"latlab/internal/runner"
	"latlab/internal/stats"
	"latlab/internal/system"
)

// span is one timed call into a layer, in ns since the traced pass
// started. Spans of one cell or experiment share its id.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. Span 0 is the whole pass; spans 1 to
// jobs are the runner's worker lanes, each covering the whole pass, so
// the self times of every span below the root add up to jobs × wall
// plus whatever the collector goroutine does (ledger appends,
// rendering) while the workers run.
type tracer struct {
	start time.Time
	jobs  int
	// lanes holds the free worker lanes; sized to jobs, so a worker never
	// waits on it (the runner runs at most jobs specs at once).
	lanes chan int

	mu    sync.Mutex
	spans []span
}

func newTracer(jobs int) *tracer {
	t := &tracer{start: time.Now(), jobs: jobs, lanes: make(chan int, jobs)}
	root := t.begin("pass", "", -1)
	for i := 0; i < jobs; i++ {
		t.lanes <- t.begin("runner.worker", strconv.Itoa(i), root)
	}
	return t
}

// begin opens a span and returns its index.
func (t *tracer) begin(name, id string, parent int) int {
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// finish closes the root, the lanes, and any span a panic left open.
func (t *tracer) finish() {
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if i <= t.jobs || t.spans[i].End < 0 {
			t.spans[i].End = now
		}
	}
}

// wall is the traced pass's duration.
func (t *tracer) wall() time.Duration { return time.Duration(t.spans[0].End) }

// inLane runs fn on a free worker lane, inside a span named name whose
// parent is the lane, and passes fn that span's index.
func (t *tracer) inLane(name, id string, fn func(sp int)) {
	lane := <-t.lanes
	defer func() { t.lanes <- lane }()
	sp := t.begin(name, id, lane)
	defer t.end(sp)
	fn(sp)
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover. The root pass span is left out.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans[1:] {
		out[s.Name] += time.Duration(self[i+1])
	}
	return out
}

// busyFrac is the share of the workers' capacity (jobs × wall) spent
// inside operation spans of the given name.
func (t *tracer) busyFrac(op string) float64 {
	var busy int64
	for _, s := range t.spans {
		if s.Name == op {
			busy += s.End - s.Start
		}
	}
	return float64(busy) / float64(int64(t.jobs)*t.spans[0].End)
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Jobs     int    `json:"jobs"`
		Spans    []span `json:"spans"`
	}{workload, t.jobs, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wrapSpecs wraps every experiment's Run in an experiments.run span on
// a worker lane.
func (t *tracer) wrapSpecs(specs []experiments.Spec) []experiments.Spec {
	out := make([]experiments.Spec, len(specs))
	for i, s := range specs {
		s := s
		inner := s.Run
		s.Run = func(ctx context.Context, cfg experiments.Config) (res experiments.Result, err error) {
			t.inLane("experiments.run", s.ID, func(int) { res, err = inner(ctx, cfg) })
			return res, err
		}
		out[i] = s
	}
	return out
}

// counts tallies the simulated work of a traced campaign pass.
type counts struct {
	sessions, records int
	events            uint64
	elided            int64
	simS, busySimS    float64
}

func (c *counts) add(o counts) {
	c.sessions += o.sessions
	c.records += o.records
	c.events += o.events
	c.elided += o.elided
	c.simS += o.simS
	c.busySimS += o.busySimS
}

// cellRecord is a traced cell's result as it flows through the runner.
type cellRecord struct {
	id  string
	rec campaign.Record
	n   counts
}

// ExperimentID implements experiments.Result.
func (r cellRecord) ExperimentID() string { return r.id }

// Render implements experiments.Result; a cell is never rendered.
func (r cellRecord) Render(w io.Writer) error { return nil }

// replica drives the pass's cells through runner.Run at the same jobs,
// one synthetic spec per cell as campaign.RunCells does, with every
// public call wrapped in a span, and appends the records to lf. Its
// ledger must equal the untraced pass's byte for byte.
func (p *campaignPass) replica(ctx context.Context, t *tracer, lf *os.File) (counts, []string, error) {
	alpha := p.opt.SketchAlpha()
	specs := make([]experiments.Spec, len(p.cells))
	for i, cell := range p.cells {
		cell := cell
		specs[i] = experiments.Spec{
			ID:    cell.ID(),
			Title: "campaign " + p.c.Spec.ID + " cell " + cell.ID(),
			Run: func(ctx context.Context, _ experiments.Config) (res experiments.Result, err error) {
				t.inLane("campaign.cell", cell.ID(), func(sp int) { res, err = p.tracedCell(ctx, t, sp, cell, alpha) })
				return res, err
			},
		}
	}
	var n counts
	var errs []string
	_, err := runner.Run(ctx, specs, runner.Options{Jobs: p.opt.Jobs, Config: experiments.Config{Quick: p.opt.Quick}},
		func(out runner.Outcome) error {
			if out.Record.Failed() {
				errs = append(errs, out.Spec.ID+": "+firstLine(out.Record.Error))
				return nil
			}
			cr := out.Result.(cellRecord)
			n.add(cr.n)
			n.records++
			sp := t.begin("campaign.ledger", cr.id, 0)
			defer t.end(sp)
			return campaign.AppendRecord(lf, cr.rec)
		})
	return n, errs, err
}

// tracedCell is campaign's batched cell path, step for step: waves of
// batch sessions are opened in seed order, stepped as one system.Batch,
// closed, then extracted and folded in seed order.
func (p *campaignPass) tracedCell(ctx context.Context, t *tracer, parent int, cell campaign.Cell, alpha float64) (cellRecord, error) {
	id := cell.ID()
	out := cellRecord{id: id}
	if err := cell.Doc.Validate(); err != nil {
		return out, err
	}
	sk := stats.NewSketch(alpha)
	var per *campaign.PerceptionStats
	model := perception.Default()
	if cell.Perception {
		per = &campaign.PerceptionStats{}
	}
	b := system.NewBatch(batch)
	open := make([]*experiments.ScenarioSession, batch)
	for base := 0; base < cell.SeedCount; base += batch {
		k := min(batch, cell.SeedCount-base)
		err := func() error {
			// Shutdown belongs to the result layer, as in Result's own path.
			defer func() {
				sp := t.begin("experiments.result", id, parent)
				for _, s := range open {
					if s != nil {
						s.Close()
					}
				}
				t.end(sp)
			}()
			for i := 0; i < k; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				seed := cell.SeedStart + uint64(base+i)
				sp := t.begin("experiments.open", id, parent)
				s, err := experiments.OpenScenarioSession(experiments.Config{
					Seed: seed, Quick: p.opt.Quick, Engine: p.opt.Engine, IdleArena: b.Arena(i),
				}, cell.Doc)
				t.end(sp)
				if err != nil {
					return fmt.Errorf("seed %d: %w", seed, err)
				}
				open[i] = s
				b.Open(i, s)
			}
			sp := t.begin("system.step", id, parent)
			b.Run()
			t.end(sp)
			for _, s := range open[:k] {
				kern := s.Sys().K
				out.n.elided += kern.BulkElided()
				out.n.simS += kern.Now().Seconds()
				out.n.busySimS += kern.NonIdleBusyTime().Seconds()
			}
			return nil
		}()
		if err != nil {
			return out, err
		}
		for i := 0; i < k; i++ {
			sp := t.begin("experiments.result", id, parent)
			sr := open[i].Result()
			t.end(sp)
			open[i] = nil
			sp = t.begin("stats.fold", id, parent)
			for _, ev := range sr.Row.Report.Events {
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
			t.end(sp)
			out.n.sessions++
		}
		b.Reset()
	}
	out.n.events = sk.Count()
	out.rec = campaign.Record{
		Schema:     campaign.RecordSchemaVersion,
		Campaign:   p.c.Spec.ID,
		Scenario:   cell.Scenario,
		Persona:    cell.Persona,
		Machine:    cell.Machine,
		Faults:     cell.Faults,
		SeedStart:  cell.SeedStart,
		SeedCount:  cell.SeedCount,
		Quick:      p.opt.Quick,
		Sessions:   out.n.sessions,
		Events:     sk.Count(),
		P50Ms:      sk.Quantile(0.50),
		P95Ms:      sk.Quantile(0.95),
		P99Ms:      sk.Quantile(0.99),
		MaxMs:      sk.Max(),
		MeanMs:     sk.Mean(),
		JitterMs:   sk.StdDev(),
		Sketch:     sk,
		Perception: per,
	}
	return out, nil
}

// ratio divides, reading 0 when nothing was counted.
func ratio(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// campaignLayers derives the per-layer metrics of a traced campaign
// pass. Layers the campaign does not exercise read 0.
func campaignLayers(t *tracer, n counts) map[string]float64 {
	self := t.selfTimes()
	us := func(name string) float64 { return float64(self[name].Nanoseconds()) / 1e3 }
	s := float64(n.sessions)
	return map[string]float64{
		"experiments.open_us_per_session":   ratio(us("experiments.open"), s),
		"system.step_us_per_session":        ratio(us("system.step"), s),
		"system.step_ns_per_sim_ms":         ratio(us("system.step")*1e3, n.simS*1e3),
		"experiments.result_us_per_session": ratio(us("experiments.result"), s),
		"stats.fold_ns_per_event":           ratio(us("stats.fold")*1e3, float64(n.events)),
		"campaign.ledger_us_per_record":     ratio(us("campaign.ledger"), float64(n.records)),
		"kernel.elided_cycles_per_session":  ratio(float64(n.elided), s),
		"kernel.sim_s_per_session":          ratio(n.simS, s),
		"kernel.busy_sim_s_per_session":     ratio(n.busySimS, s),
		"core.events_per_session":           ratio(float64(n.events), s),
		"runner.worker_busy_frac":           t.busyFrac("campaign.cell"),
		"experiments.render_ms":             0,
	}
}

// suiteLayers derives the per-layer metrics of a traced suite pass; the
// campaign layers read 0.
func suiteLayers(t *tracer) map[string]float64 {
	m := campaignLayers(t, counts{})
	m["runner.worker_busy_frac"] = t.busyFrac("experiments.run")
	m["experiments.render_ms"] = float64(t.selfTimes()["experiments.render"].Nanoseconds()) / 1e6
	return m
}
