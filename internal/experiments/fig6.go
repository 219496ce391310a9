package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/stats"
)

// Fig6Persona holds one system's simple-event latencies.
type Fig6Persona struct {
	Persona string
	// Keystroke summarizes unbound-keystroke latency (ms) over the
	// manual trials.
	Keystroke stats.Summary
	// Click summarizes background-mouse-click latency (ms).
	Click stats.Summary
	// ClickIsPressDuration flags the Windows 95 anomaly: the measured
	// "latency" is the duration of the user's press (busy-wait).
	ClickIsPressDuration bool
}

// Fig6Result is the simple-interactive-event comparison of paper Fig. 6.
type Fig6Result struct {
	Systems []Fig6Persona
	// MeanHoldMs is the mean simulated press duration, for reference
	// against the W95 click numbers.
	MeanHoldMs float64
}

// Render implements Result.
func (r *Fig6Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 6 — Latency of simple interactive events (manual input, mean of trials)\n\n")
	fmt.Fprintf(w, "  %-18s %14s %8s %14s %8s\n", "system", "keystroke", "std", "mouse click", "std")
	for _, s := range r.Systems {
		note := ""
		if s.ClickIsPressDuration {
			note = "  <- off the scale: busy-waits for the press duration"
		}
		fmt.Fprintf(w, "  %-18s %14s %7.1f%% %14s %7.1f%%%s\n",
			s.Persona, fmtMs(s.Keystroke.Mean), 100*s.Keystroke.RelStdDev(),
			fmtMs(s.Click.Mean), 100*s.Click.RelStdDev(), note)
	}
	fmt.Fprintf(w, "\n  (mean press duration %s)\n", fmtMs(r.MeanHoldMs))
	return nil
}

func runFig6(ctx context.Context, cfg Config) (Result, error) {
	trials := 35 // paper: "the mean of 30-40 trials, ignoring cold cache cases"
	if cfg.Quick {
		trials = 8
	}
	res := &Fig6Result{}
	var holdSum float64
	var holdCount int
	for _, p := range persona.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rnd := rng.New(cfg.Seed + uint64(len(p.Short)))

		// Unbound keystroke: the focused app passes it to DefWindowProc.
		kr := newRig(cfg, p)
		app := kr.sys.SpawnApp("bench", func(tc *kernel.TC) {
			for {
				m := tc.GetMessage()
				switch m.Kind {
				case kernel.WMQuit:
					return
				case kernel.WMKeyDown:
					kr.sys.Win.KeyTranslate(tc)
					kr.sys.Win.DefWindowProc(tc)
				case kernel.WMMouseDown, kernel.WMMouseUp:
					kr.sys.Win.MouseEvent(tc)
					kr.sys.Win.DefWindowProc(tc)
				}
			}
		})
		kr.sys.Win.BindApp([]uint64{345, 346, 347})

		at := simtime.Time(300 * simtime.Millisecond)
		for i := 0; i <= trials; i++ { // one extra: cold trial dropped below
			at = at.Add(simtime.Duration(rnd.Uniform(0.35, 0.6) * float64(simtime.Second)))
			t := at
			kr.sys.K.At(t, func(simtime.Time) { kr.sys.Inject(kernel.WMKeyDown, 'a', false) })
		}
		keyEnd := at.Add(simtime.Second)

		// Background mouse clicks with human-ish hold times.
		clickStart := keyEnd.Add(simtime.Second)
		at = clickStart
		var holds []float64
		for i := 0; i <= trials; i++ {
			hold := rnd.Uniform(0.085, 0.13) // 85-130 ms press
			holds = append(holds, hold*1000)
			for _, e := range input.Click(at, simtime.FromSeconds(hold)) {
				e := e
				kr.sys.K.At(e.At, func(simtime.Time) { kr.sys.Inject(e.Kind, e.Param, false) })
			}
			at = at.Add(simtime.Duration(rnd.Uniform(0.4, 0.65) * float64(simtime.Second)))
		}
		kr.sys.K.Run(at.Add(simtime.Second))

		events := kr.extract(app, false)
		var keyMs, clickMs []float64
		for _, e := range events {
			switch {
			case e.Kind == kernel.WMKeyDown:
				keyMs = append(keyMs, e.Latency.Milliseconds())
			case e.Kind == kernel.WMMouseDown:
				clickMs = append(clickMs, e.Latency.Milliseconds())
			}
		}
		// Ignore the cold-cache first trial of each class, as the paper
		// does.
		if len(keyMs) > 1 {
			keyMs = keyMs[1:]
		}
		if len(clickMs) > 1 {
			clickMs = clickMs[1:]
		}
		res.Systems = append(res.Systems, Fig6Persona{
			Persona:              p.Name,
			Keystroke:            stats.Summarize(keyMs),
			Click:                stats.Summarize(clickMs),
			ClickIsPressDuration: p.MouseBusyWait,
		})
		for _, h := range holds {
			holdSum += h
			holdCount++
		}
		kr.shutdown()
	}
	res.MeanHoldMs = holdSum / float64(holdCount)
	return res, nil
}

func init() {
	Register(Spec{
		ID:    "fig6",
		Title: "Simple interactive events: unbound keystroke and mouse click",
		Paper: "Fig. 6, §4",
		Run:   runFig6,
	})
}
