package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/input"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/viz"
)

// Fig7Persona holds one system's Notepad benchmark summary.
type Fig7Persona struct {
	Persona string
	Report  *core.Report
	// FractionUnder10ms is the share of cumulative latency from events
	// below 10 ms (paper: "over 80%").
	FractionUnder10ms float64
	// ElapsedBusy is cumulative non-idle time over the run, which
	// includes the WM_QUEUESYNC processing removed from event latencies
	// — the source of the paper's Fig. 7 anomaly.
	ElapsedBusy simtime.Duration
}

// Fig7Result is the Notepad event-latency summary of paper Fig. 7.
type Fig7Result struct {
	Systems []Fig7Persona
}

// Render implements Result.
func (r *Fig7Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 7 — Notepad event latency summary (Test input, WM_QUEUESYNC stripped)\n\n")
	for _, s := range r.Systems {
		rep := s.Report
		if err := viz.Histogram(w,
			fmt.Sprintf("%s — %d events, cumulative latency %.0fms, busy elapsed %.1fs (log count)",
				s.Persona, len(rep.Events), rep.TotalLatency().Milliseconds(), s.ElapsedBusy.Seconds()),
			rep.Histogram(0, 40, 20), 40); err != nil {
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
		fmt.Fprintf(w, "  latency from events <10ms: %.0f%%\n\n", 100*s.FractionUnder10ms)
	}
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *Fig7Result) Artifacts() []Artifact {
	var out []Artifact
	for _, s := range r.Systems {
		out = append(out, EventsArtifact(s.Persona, s.Report.Events),
			ReportArtifact(s.Persona, s.Report))
	}
	return out
}

// notepadScript builds the §5.1 editing session: `chars` characters at
// ~100 wpm with paragraph newlines, cursor movement, and page movement.
func notepadScript(chars int) *input.Script {
	raw := input.SampleText(chars)
	var text []rune
	for i, c := range raw {
		if i > 0 && i%130 == 0 {
			text = append(text, '\n')
		}
		text = append(text, c)
	}
	evs := input.TypeText(simtime.Time(500*simtime.Millisecond), string(text), 120*simtime.Millisecond)
	at := evs[len(evs)-1].At.Add(500 * simtime.Millisecond)
	// Cursor movement and page movement.
	evs = append(evs, input.KeyDowns(at, input.VKDown, 8, 150*simtime.Millisecond)...)
	at = at.Add(8*150*simtime.Millisecond + 500*simtime.Millisecond)
	evs = append(evs, input.KeyDowns(at, input.VKPageDown, 4, 400*simtime.Millisecond)...)
	return &input.Script{Events: evs, QueueSync: true}
}

func runFig7(ctx context.Context, cfg Config) (Result, error) {
	chars := 1300 // paper: "text entry of 1300 characters at ~100 wpm"
	if cfg.Quick {
		chars = 150
	}
	res := &Fig7Result{}
	for _, p := range persona.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		script := notepadScript(chars)
		r := newRig(cfg, p)
		n := apps.NewNotepad(r.sys, 250_000)
		script.Install(r.sys)
		end := script.End().Add(2 * simtime.Second)
		r.sys.K.Run(end)

		events := r.extract(n.Thread(), true) // Test overhead removed, §5.1
		rep := core.NewReport(events, simtime.Duration(end))
		res.Systems = append(res.Systems, Fig7Persona{
			Persona:           p.Name,
			Report:            rep,
			FractionUnder10ms: rep.FractionBelow(10),
			ElapsedBusy:       r.sys.K.NonIdleBusyTime(),
		})
		r.shutdown()
	}
	return res, nil
}

func init() {
	Register(Spec{
		ID:    "fig7",
		Title: "Notepad event latency summary",
		Paper: "Fig. 7, §5.1",
		Run:   runFig7,
	})
}
