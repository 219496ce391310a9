package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"latlab/internal/core"
	"latlab/internal/faults"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/viz"
)

// pptRun is the outcome of one PowerPoint task run (§5.2): the full
// event list plus labels for the long-latency command events.
type pptRun struct {
	events  []core.Event
	labeled []labeledEvent
	elapsed simtime.Duration
}

type labeledEvent struct {
	label string
	ev    core.Event
}

// pptMemo caches untraced task runs so fig8, table1 and fig12 don't
// re-simulate. A run depends on the persona, the machine, the workload
// size and the seed, and the key holds all four (the whole machine
// profile, not just its name). The runner schedules
// those experiments concurrently, so the cache is a lock-protected
// singleflight: the first caller for a key simulates, any concurrent
// caller for the same key waits for that run instead of duplicating it.
// A cached *pptRun is immutable once published.
var pptMemo = struct {
	mu sync.Mutex
	m  map[string]*pptMemoEntry
}{m: map[string]*pptMemoEntry{}}

type pptMemoEntry struct {
	once sync.Once
	run  *pptRun
}

// pptTask drives the paper's PowerPoint scenario on persona p: cold
// boot, start PowerPoint, open the 46-page deck, page through it
// (rendering the three embedded graphs), start an OLE edit session on
// each object with a few modification keystrokes, then save. Pacing is
// completion-based with ≥150 ms think times, matching the Test script.
//
// A traced run bypasses the memo: its rig must deposit its spans in
// this run's collector, which a run simulated for another caller never
// saw. It is named after the calling experiment (cfg.TraceTag), so the
// tracks fig8, table1 and fig12 each deposit keep distinct names at any
// job count.
func pptTask(p persona.P, cfg Config) *pptRun {
	if cfg.Trace != nil {
		return pptSimulate(p, cfg)
	}
	key := fmt.Sprintf("%s/%+v/%v/%d", p.Short, cfg.MachineProfile(), cfg.Quick, cfg.Seed)
	pptMemo.mu.Lock()
	e, ok := pptMemo.m[key]
	if !ok {
		e = &pptMemoEntry{}
		pptMemo.m[key] = e
	}
	pptMemo.mu.Unlock()
	e.once.Do(func() { e.run = pptSimulate(p, cfg) })
	return e.run
}

// pptSimulate performs the actual simulated task run behind pptTask:
// the ext-faults-disk PowerPoint session with no faults, bounded by a
// 200 s deadline.
func pptSimulate(p persona.P, cfg Config) *pptRun {
	prm := pptTaskWorkload().Resolve(cfg.Quick)
	prm.DeadlineS = 200
	s := openPPT("", cfg, scRun{p: p, prm: prm}, faults.Plan{})
	defer s.Close()
	s.drive()
	events := s.r.extract(s.thread, true)

	run := &pptRun{events: events, elapsed: simtime.Duration(*s.chainDone)}
	// Label the command events in issue order.
	labels := []string{"Start Powerpoint", "Open document"}
	for i := range prm.PageDowns {
		labels = append(labels, fmt.Sprintf("Start OLE edit session (object %d)", i+1), "End OLE edit")
	}
	labels = append(labels, "Save document")
	li := 0
	for _, e := range events {
		if e.Kind == kernel.WMCommand && li < len(labels) {
			run.labeled = append(run.labeled, labeledEvent{label: labels[li], ev: e})
			li++
		}
	}
	return run
}

// Fig8Persona is one NT system's PowerPoint latency summary.
type Fig8Persona struct {
	Persona string
	Report  *core.Report
}

// Fig8Result is the PowerPoint event-latency summary of paper Fig. 8:
// events below 50 ms are pre-filtered, and most of the total time is in
// the long-latency events.
type Fig8Result struct {
	Systems []Fig8Persona
}

// Render implements Result.
func (r *Fig8Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 8 — Powerpoint event latency summary (events <50ms excluded, NT only)\n\n")
	for _, s := range r.Systems {
		rep := s.Report
		if err := viz.Histogram(w,
			fmt.Sprintf("%s — %d events ≥50ms, cumulative latency %.1fs (log count)",
				s.Persona, len(rep.Events), rep.TotalLatency().Seconds()),
			rep.Histogram(0, 10_000, 20), 40); err != nil {
			return err
		}
		if err := viz.CumulativeCurve(w, "  cumulative latency", rep.CumulativeCurve(),
			rep.Elapsed, 70, 8); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *Fig8Result) Artifacts() []Artifact {
	var out []Artifact
	for _, s := range r.Systems {
		out = append(out, EventsArtifact(s.Persona, s.Report.Events),
			ReportArtifact(s.Persona, s.Report))
	}
	return out
}

func runFig8(ctx context.Context, cfg Config) (Result, error) {
	res := &Fig8Result{}
	for _, p := range persona.NTs() { // W95 excluded, as in the paper (§5.2)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run := pptTask(p, cfg)
		filtered := core.FilterLatencyAbove(run.events, 50*simtime.Millisecond)
		res.Systems = append(res.Systems, Fig8Persona{
			Persona: p.Name,
			Report:  core.NewReport(filtered, run.elapsed),
		})
	}
	return res, nil
}

// Table1Row is one long-latency event across the two NT systems.
type Table1Row struct {
	Event    string
	NT351Sec float64
	NT40Sec  float64
}

// Table1Result reproduces paper Table 1: PowerPoint events with latency
// over one second.
type Table1Result struct {
	Rows []Table1Row
}

// Render implements Result.
func (r *Table1Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Table 1 — Powerpoint events with latency over one second\n\n")
	fmt.Fprintf(w, "  %-38s %9s %9s\n", "latency (in seconds)", "NT 3.51", "NT 4.0")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-38s %9.3f %9.3f\n", row.Event, row.NT351Sec, row.NT40Sec)
	}
	return nil
}

func runTable1(ctx context.Context, cfg Config) (Result, error) {
	runs := map[string]*pptRun{}
	for _, p := range persona.NTs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runs[p.Short] = pptTask(p, cfg)
	}
	byLabel := func(run *pptRun) map[string]float64 {
		m := map[string]float64{}
		for _, le := range run.labeled {
			m[le.label] = le.ev.Latency.Seconds()
		}
		return m
	}
	l351, l40 := byLabel(runs["nt351"]), byLabel(runs["nt40"])
	res := &Table1Result{}
	for label := range l351 {
		if l351[label] >= 1 || l40[label] >= 1 {
			res.Rows = append(res.Rows, Table1Row{Event: label, NT351Sec: l351[label], NT40Sec: l40[label]})
		}
	}
	// Tie-break on the label so the rendered table (and therefore the
	// whole suite output) is byte-stable across runs and job counts.
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].NT351Sec != res.Rows[j].NT351Sec {
			return res.Rows[i].NT351Sec > res.Rows[j].NT351Sec
		}
		return res.Rows[i].Event < res.Rows[j].Event
	})
	return res, nil
}

// Fig12Result is the time series of long-latency PowerPoint events
// (paper Fig. 12): both NTs show the same command-driven periodicity,
// with NT 4.0's interarrivals slightly shorter to match its shorter
// latencies (completion-paced input).
type Fig12Result struct {
	Systems []struct {
		Persona            string
		Events             []core.Event
		MeanInterarrivalMs float64
	}
}

// Render implements Result.
func (r *Fig12Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 12 — Time series of long-latency (>50ms) Powerpoint events\n\n")
	for _, s := range r.Systems {
		if err := viz.TimeSeries(w,
			fmt.Sprintf("%s (mean interarrival %.1fs)", s.Persona, s.MeanInterarrivalMs/1000),
			s.Events, 50, 110, 10); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *Fig12Result) Artifacts() []Artifact {
	var out []Artifact
	for _, s := range r.Systems {
		out = append(out, EventsArtifact(s.Persona, s.Events))
	}
	return out
}

func runFig12(ctx context.Context, cfg Config) (Result, error) {
	res := &Fig12Result{}
	for _, p := range persona.NTs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run := pptTask(p, cfg)
		long := core.FilterLatencyAbove(run.events, 50*simtime.Millisecond)
		ia := core.NewReport(long, run.elapsed).Interarrival(50)
		res.Systems = append(res.Systems, struct {
			Persona            string
			Events             []core.Event
			MeanInterarrivalMs float64
		}{Persona: p.Name, Events: long, MeanInterarrivalMs: ia.MeanSec * 1000})
	}
	return res, nil
}

func init() {
	Register(Spec{ID: "fig8", Title: "Powerpoint event latency summary",
		Paper: "Fig. 8, §5.2", Run: runFig8})
	Register(Spec{ID: "table1", Title: "Powerpoint events with latency over one second",
		Paper: "Table 1, §5.2", Run: runTable1})
	Register(Spec{ID: "fig12", Title: "Time series of long-latency Powerpoint events",
		Paper: "Fig. 12, §6", Run: runFig12})
}
