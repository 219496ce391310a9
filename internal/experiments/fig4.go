package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/core"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/viz"
)

// Fig4Result is the window-maximize animation profile of paper Fig. 4:
// an initial processing burst, tick-aligned animation spikes growing with
// the outline, and a long redraw burst — shown at full 1 ms resolution
// (4a) and averaged over 10 ms buckets (4b).
type Fig4Result struct {
	Full     []core.ProfilePoint
	Averaged []core.ProfilePoint
	// Event is the extracted (merged, gapped) maximize event.
	Event core.Event
	// AnimationSpikes are the start times of the animation bursts; the
	// paper observes them aligned on 10 ms clock boundaries.
	AnimationSpikes []simtime.Time
	// InitialBurst and RedrawBurst are the bracketing 100%-CPU phases.
	InitialBurst simtime.Duration
	RedrawBurst  simtime.Duration
}

// Render implements Result.
func (r *Fig4Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 4 — Window maximize under Windows NT 4.0\n\n")
	if err := viz.Profile(w, "4a: full 1 ms resolution", r.Full, 110, 10); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := viz.Profile(w, "4b: averaged over 10 ms intervals", r.Averaged, 110, 10); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  merged maximize event: latency %v (busy %v, %d animation spikes)\n",
		r.Event.Latency, r.Event.Busy, len(r.AnimationSpikes))
	fmt.Fprintf(w, "  initial burst ≈%v, redraw burst ≈%v\n", r.InitialBurst, r.RedrawBurst)
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *Fig4Result) Artifacts() []Artifact {
	return []Artifact{
		ProfileArtifact("full-1ms", r.Full),
		ProfileArtifact("averaged-10ms", r.Averaged),
	}
}

func runFig4(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := persona.NT40()
	r := newRig(cfg, p, 10)
	defer r.shutdown()

	steps, redraw := 22, 105
	if cfg.Quick {
		steps, redraw = 10, 40
	}
	shell := r.sys.SpawnApp("shell", func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == kernel.WMQuit {
				return
			}
			if m.Kind == kernel.WMSysCommand {
				r.sys.Win.MaximizeAnimation(tc, steps, redraw)
			}
		}
	})
	r.sys.Win.BindApp([]uint64{340, 341, 342})
	r.sys.K.At(simtime.Time(100*simtime.Millisecond), func(simtime.Time) {
		r.sys.Inject(kernel.WMSysCommand, 1, false)
	})
	r.sys.K.Run(simtime.Time(2 * simtime.Second))

	samples := r.il.Samples()
	res := &Fig4Result{
		Full:     core.Profile(samples),
		Averaged: core.AveragedProfile(samples, 10*simtime.Millisecond),
	}
	if events := r.extract(shell, false); len(events) > 0 {
		res.Event = events[0]
	}
	spans := core.BusySpans(samples, core.DefaultBusyThreshold)
	for i, bs := range spans {
		switch {
		case i == 0:
			res.InitialBurst = bs.Stolen
		case i == len(spans)-1:
			res.RedrawBurst = bs.Stolen
		default:
			res.AnimationSpikes = append(res.AnimationSpikes, bs.Start)
		}
	}
	return res, nil
}

func init() {
	Register(Spec{
		ID:    "fig4",
		Title: "CPU usage profile of a window-maximize animation",
		Paper: "Fig. 4, §2.6",
		Run:   runFig4,
	})
}
