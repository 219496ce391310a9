package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/apps"
	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/stats"
	"latlab/internal/system"
)

// Fig1Result validates the idle-loop methodology against conventional
// in-application timestamps (paper Fig. 1 and §2.3): the idle loop sees
// the interrupt-handling and rescheduling time that a getchar()-style
// measurement misses.
type Fig1Result struct {
	// IdleLoop and Conventional summarize per-keystroke latency (ms).
	IdleLoop     stats.Summary
	Conventional stats.Summary
	// DiscrepancyMs is the mean missed system time.
	DiscrepancyMs float64
	// SampleElapsedMs lists the idle-sample durations around the first
	// keystroke (the A-E samples of Fig. 1).
	SampleElapsedMs []float64
}

// Render implements Result.
func (r *Fig1Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 1 — Validation of the idle-loop methodology (echo microbenchmark)\n\n")
	fmt.Fprintf(w, "  idle-loop latency:     %s  (std %.1f%%)\n",
		fmtMs(r.IdleLoop.Mean), 100*r.IdleLoop.RelStdDev())
	fmt.Fprintf(w, "  conventional latency:  %s  (timestamps inside the application)\n",
		fmtMs(r.Conventional.Mean))
	fmt.Fprintf(w, "  discrepancy:           %s  — interrupt handling + rescheduling\n",
		fmtMs(r.DiscrepancyMs))
	fmt.Fprintf(w, "\n  idle samples around the first keystroke (ms):")
	for _, s := range r.SampleElapsedMs {
		fmt.Fprintf(w, " %.2f", s)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func runFig1(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := persona.NT40()
	r := newRig(cfg, p, 20)
	defer r.shutdown()

	// The paper's test program is console-style: keystrokes travel
	// through KERNEL32 and a console server before the benchmark thread
	// is rescheduled — the system time the conventional measurement
	// misses. Route input through a console-server thread.
	consoleSeg := cpu.Segment{Name: "console-server", BaseCycles: 200_000,
		Instructions: 120_000, DataRefs: 50_000,
		CodePages: []uint64{600, 601, 602, 603}, DataPages: []uint64{620, 621}}
	echo := apps.NewEcho(r.sys, 560_000) // ≈5.6 ms of "some computation"
	app := echo.Thread()
	console := r.sys.K.Spawn("console", kernel.KernelProc, system.RouterPrio,
		func(tc *kernel.TC) {
			for {
				m := tc.GetMessage()
				tc.Compute(consoleSeg)
				tc.Forward(app, m)
			}
		})
	r.sys.SetFocus(console)

	trials := 10
	if cfg.Quick {
		trials = 4
	}
	for i := 0; i < trials; i++ {
		at := simtime.Time(500+int64(i)*400) * simtime.Time(simtime.Millisecond)
		r.sys.K.At(at, func(simtime.Time) { r.sys.Inject(kernel.WMChar, 'x', false) })
	}
	r.sys.K.Run(simtime.Time(500+int64(trials)*400+500) * simtime.Time(simtime.Millisecond))

	events := r.extract(app, false)
	res := &Fig1Result{}
	var idleMs, convMs []float64
	for i, e := range events {
		idleMs = append(idleMs, e.Latency.Milliseconds())
		if i < len(echo.Conventional) {
			convMs = append(convMs, echo.Conventional[i].Milliseconds())
		}
	}
	res.IdleLoop = stats.Summarize(idleMs)
	res.Conventional = stats.Summarize(convMs)
	res.DiscrepancyMs = res.IdleLoop.Mean - res.Conventional.Mean

	// Samples around the first keystroke: two before, through two after
	// the elongated one.
	if len(events) > 0 {
		first := events[0]
		samples := r.il.Samples()
		for i, s := range samples {
			if s.Done >= first.Enqueued {
				lo := i - 2
				if lo < 0 {
					lo = 0
				}
				hi := i + 3
				if hi > len(samples) {
					hi = len(samples)
				}
				for _, ss := range samples[lo:hi] {
					res.SampleElapsedMs = append(res.SampleElapsedMs, ss.Elapsed.Milliseconds())
				}
				break
			}
		}
	}
	return res, nil
}

func init() {
	Register(Spec{
		ID:    "fig1",
		Title: "Idle-loop methodology validation (echo microbenchmark)",
		Paper: "Fig. 1, §2.3",
		Run:   runFig1,
	})
}
