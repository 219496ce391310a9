package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/core"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/stats"
)

// S54Result reproduces the paper's §5.4 Test-versus-hand comparison on
// Windows NT 3.51: Microsoft Test's WM_QUEUESYNC after every keystroke
// forces Word to flush its background coroutine work synchronously, so
// Test-measured keystrokes are far slower than hand-typed ones, while
// hand-typed runs show more background activity and longer carriage
// returns.
type S54Result struct {
	TestTypical stats.Summary
	HandTypical stats.Summary
	TestMaxMs   float64
	HandMaxMs   float64
	// HandBackgroundBursts counts the timer-driven spell chunks in the
	// hand run ("a higher level of background activity").
	HandBackgroundBursts int
	TestBackgroundBursts int
}

// Render implements Result.
func (r *S54Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "§5.4 — Word under Microsoft Test vs hand-generated input (NT 3.51)\n\n")
	fmt.Fprintf(w, "  %-24s %12s %12s\n", "", "Test", "hand")
	fmt.Fprintf(w, "  %-24s %11.1fms %11.1fms\n", "typical keystroke", r.TestTypical.Mean, r.HandTypical.Mean)
	fmt.Fprintf(w, "  %-24s %11.1fms %11.1fms\n", "longest event", r.TestMaxMs, r.HandMaxMs)
	fmt.Fprintf(w, "  %-24s %12d %12d\n", "background bursts", r.TestBackgroundBursts, r.HandBackgroundBursts)
	fmt.Fprintf(w, "\n  Hypothesis (paper): the WM_QUEUESYNC message Test posts after every\n")
	fmt.Fprintf(w, "  keystroke forces synchronous processing of Word's deferred work.\n")
	return nil
}

func runS54(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	chars := 600
	if cfg.Quick {
		chars = 120
	}
	res := &S54Result{}

	typical := func(events []core.Event) stats.Summary {
		var ms []float64
		for _, e := range events {
			if e.Kind == kernel.WMChar && e.Latency < simtime.FromMillis(190) {
				ms = append(ms, e.Latency.Milliseconds())
			}
		}
		return stats.Summarize(ms)
	}
	maxMs := func(events []core.Event) float64 {
		m := 0.0
		for _, e := range events {
			if v := e.Latency.Milliseconds(); v > m {
				m = v
			}
		}
		return m
	}

	testEvents, _, wTest := wordTrace(cfg, persona.NT351(), cfg.Seed, chars, true)
	res.TestTypical = typical(testEvents)
	res.TestMaxMs = maxMs(testEvents)
	res.TestBackgroundBursts = wTest.BackgroundBursts

	handEvents, _, wHand := wordTrace(cfg, persona.NT351(), cfg.Seed+1, chars, false)
	res.HandTypical = typical(handEvents)
	res.HandMaxMs = maxMs(handEvents)
	res.HandBackgroundBursts = wHand.BackgroundBursts
	return res, nil
}

func init() {
	Register(Spec{ID: "s54", Title: "Word: Microsoft Test vs hand-generated input",
		Paper: "§5.4", Run: runS54})
}
