package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/core"
	"latlab/internal/persona"
	"latlab/internal/stats"
	"latlab/internal/viz"
)

// Fig11Persona is one NT system's Word summary.
type Fig11Persona struct {
	Persona string
	Report  *core.Report
	Summary stats.Summary
}

// Fig11Result is the Microsoft Word event latency summary of paper
// Fig. 11 (Test-driven, NT only: under Windows 95 the system never goes
// idle after Word events, §5.4).
type Fig11Result struct {
	Systems []Fig11Persona
}

// Render implements Result.
func (r *Fig11Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 11 — Microsoft Word event latency summary (Test input, NT only)\n\n")
	for _, s := range r.Systems {
		rep := s.Report
		if err := viz.Histogram(w,
			fmt.Sprintf("%s — %d events, mean %.1fms std %.1fms (log count)",
				s.Persona, len(rep.Events), s.Summary.Mean, s.Summary.StdDev),
			rep.Histogram(0, 200, 20), 40); err != nil {
			return err
		}
		if err := viz.CumulativeCurve(w, "  cumulative latency", rep.CumulativeCurve(),
			rep.Elapsed, 70, 8); err != nil {
			return err
		}
		if err := viz.CumulativeByEvents(w, "  cumulative latency by event count",
			rep.CumulativeCurve(), 70, 6); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  (Windows 95 omitted: the system does not become idle after Word")
	fmt.Fprintln(w, "  events, making all latencies appear seconds long — paper §5.1/§5.4.)")
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *Fig11Result) Artifacts() []Artifact {
	var out []Artifact
	for _, s := range r.Systems {
		out = append(out, EventsArtifact(s.Persona, s.Report.Events),
			ReportArtifact(s.Persona, s.Report))
	}
	return out
}

func runFig11(ctx context.Context, cfg Config) (Result, error) {
	chars := 1000
	if cfg.Quick {
		chars = 120
	}
	res := &Fig11Result{}
	for _, p := range persona.NTs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		events, elapsed, _ := wordTrace(cfg, p, cfg.Seed, chars, true)
		rep := core.NewReport(events, elapsed)
		res.Systems = append(res.Systems, Fig11Persona{
			Persona: p.Name,
			Report:  rep,
			Summary: rep.Summary(),
		})
	}
	return res, nil
}

// Table2Row is one threshold's interarrival summary.
type Table2Row struct {
	ThresholdMs float64
	Count       int
	MeanSec     float64
	StdDevSec   float64
}

// Table2Result reproduces paper Table 2: interarrival distributions of
// above-threshold events in the Word benchmark on Windows NT 3.51.
type Table2Result struct {
	TotalEvents int
	Rows        []Table2Row
}

// Render implements Result.
func (r *Table2Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Table 2 — Interarrival of long-latency events, Word on NT 3.51 (%d events)\n\n", r.TotalEvents)
	fmt.Fprintf(w, "  %-12s %8s %12s %12s\n", "threshold", "events", "mean (s)", "std dev (s)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %9.0fms %8d %12.1f %12.1f\n",
			row.ThresholdMs, row.Count, row.MeanSec, row.StdDevSec)
	}
	return nil
}

func runTable2(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	chars := 1000
	if cfg.Quick {
		chars = 150
	}
	events, elapsed, _ := wordTrace(cfg, persona.NT351(), cfg.Seed, chars, true)
	rep := core.NewReport(events, elapsed)
	res := &Table2Result{TotalEvents: len(events)}
	for _, th := range []float64{100, 110, 120} {
		ia := rep.Interarrival(th)
		res.Rows = append(res.Rows, Table2Row{
			ThresholdMs: th, Count: ia.Count, MeanSec: ia.MeanSec, StdDevSec: ia.StdDevSec,
		})
	}
	return res, nil
}

func init() {
	Register(Spec{ID: "fig11", Title: "Microsoft Word event latency summary",
		Paper: "Fig. 11, §5.4", Run: runFig11})
	Register(Spec{ID: "table2", Title: "Interarrival distributions for the Word benchmark",
		Paper: "Table 2, §6", Run: runTable2})
}
