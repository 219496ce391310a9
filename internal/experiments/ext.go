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
	"latlab/internal/stats"
)

// The three ext-* experiments go beyond the paper's published artifacts,
// implementing studies its text calls for:
//
//   - ext-batching quantifies §1.1's critique: driving the system "as
//     rapidly as it can accept input" models an infinitely fast user and
//     distorts both latency and the meaning of throughput.
//   - ext-thinkwait implements the complete Fig. 2 think/wait FSM with
//     the queue and I/O monitoring the paper lists as future work
//     ("Implementation of such monitoring is part of our continuing
//     work at Harvard").
//   - ext-metric explores §3.1's proposed scalar responsiveness
//     summation and shows the threshold sensitivity that made the paper
//     decline to adopt a single figure of merit.

// ExtBatchingResult compares Notepad driven by an infinitely fast input
// stream against realistic pacing.
type ExtBatchingResult struct {
	// Paced and Saturated summarize per-event latency (ms).
	Paced     stats.Summary
	Saturated stats.Summary
	// PacedRate and SaturatedRate are completed events per second of
	// elapsed time — the throughput view that makes the saturated run
	// look *better*.
	PacedRate     float64
	SaturatedRate float64
	// BatchedCalls counts window-system calls coalesced by request
	// batching in each run: saturation makes the system batch
	// aggressively (§1.1), flattering throughput further.
	PacedBatched     int64
	SaturatedBatched int64
}

// Render implements Result.
func (r *ExtBatchingResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§1.1) — the infinitely fast user: Notepad, NT 4.0\n\n")
	fmt.Fprintf(w, "  %-26s %14s %14s\n", "", "realistic", "saturated")
	fmt.Fprintf(w, "  %-26s %11.1f/s %11.1f/s   <- throughput prefers saturation\n",
		"events completed", r.PacedRate, r.SaturatedRate)
	fmt.Fprintf(w, "  %-26s %12.1fms %12.1fms   <- latency tells the truth\n",
		"mean event latency", r.Paced.Mean, r.Saturated.Mean)
	fmt.Fprintf(w, "  %-26s %12.1fms %12.1fms\n", "max event latency", r.Paced.Max, r.Saturated.Max)
	fmt.Fprintf(w, "  %-26s %14d %14d   <- batching kicks in under saturation\n",
		"batched GUI calls", r.PacedBatched, r.SaturatedBatched)
	fmt.Fprintf(w, "\n  \"users will never be able to generate such an input stream\" — §1.1\n")
	return nil
}

func runExtBatching(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	chars := 300
	if cfg.Quick {
		chars = 80
	}
	run := func(gap simtime.Duration) (stats.Summary, float64, int64) {
		r := newRig(cfg, persona.NT40())
		defer r.shutdown()
		n := apps.NewNotepad(r.sys)
		script := &input.Script{
			Events: input.TypeText(simtime.Time(200*simtime.Millisecond), input.SampleText(chars), gap),
		}
		script.Install(r.sys)
		r.sys.K.Run(script.End().Add(5 * simtime.Second))
		events := r.extract(n.Thread(), false)
		if len(events) == 0 {
			return stats.Summary{}, 0, 0
		}
		elapsed := events[len(events)-1].End.Sub(events[0].Enqueued).Seconds()
		return stats.Summarize(core.Latencies(events)), float64(len(events)) / elapsed,
			r.sys.Win.BatchedCalls()
	}
	res := &ExtBatchingResult{}
	res.Paced, res.PacedRate, res.PacedBatched = run(120 * simtime.Millisecond) // ~100 wpm
	res.Saturated, res.SaturatedRate, res.SaturatedBatched = run(0)             // infinitely fast user
	return res, nil
}

// ExtThinkWaitResult decomposes a session into think and wait time with
// the full Fig. 2 FSM.
type ExtThinkWaitResult struct {
	Systems []struct {
		Persona     string
		Think, Wait simtime.Duration
		Transitions int
		// WaitIdleIO is wait time with the CPU idle — synchronous I/O
		// the CPU-only view would misclassify as think time.
		WaitShare float64
	}
}

// Render implements Result.
func (r *ExtThinkWaitResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§2.3, Fig. 2) — full think/wait decomposition of a Notepad+save session\n\n")
	fmt.Fprintf(w, "  %-18s %12s %12s %8s %12s\n", "system", "think", "wait", "wait%", "transitions")
	for _, s := range r.Systems {
		fmt.Fprintf(w, "  %-18s %11.2fs %11.2fs %7.1f%% %12d\n",
			s.Persona, s.Think.Seconds(), s.Wait.Seconds(), 100*s.WaitShare, s.Transitions)
	}
	fmt.Fprintf(w, "\n  The FSM consumes CPU state, per-thread queue state, and outstanding\n")
	fmt.Fprintf(w, "  synchronous I/O — the \"additional system support\" of §2.4/§6.\n")
	return nil
}

func runExtThinkWait(ctx context.Context, cfg Config) (Result, error) {
	chars := 200
	if cfg.Quick {
		chars = 60
	}
	res := &ExtThinkWaitResult{}
	for _, p := range persona.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := newRig(cfg, p)
		n := apps.NewNotepad(r.sys)
		r.pr.Watch(n.Thread())
		// Typing with composition pauses, then a simulated save-scale
		// synchronous I/O burst via the document reload.
		ty := input.NewTypist(cfg.Seed, 70)
		script := &input.Script{Events: ty.Type(simtime.Time(300*simtime.Millisecond), input.SampleText(chars))}
		script.Install(r.sys)
		end := r.sys.K.Run(script.End().Add(2 * simtime.Second))

		f := r.pr.FSM(end)
		think, wait := f.ThinkTime(), f.WaitTime()
		res.Systems = append(res.Systems, struct {
			Persona     string
			Think, Wait simtime.Duration
			Transitions int
			WaitShare   float64
		}{
			Persona: p.Name, Think: think, Wait: wait,
			Transitions: f.Transitions(),
			WaitShare:   float64(wait) / float64(think+wait),
		})
		r.shutdown()
	}
	return res, nil
}

// ExtMetricResult evaluates the §3.1 responsiveness summation at several
// thresholds.
type ExtMetricResult struct {
	ThresholdsMs []float64
	// Irritation[persona][i] is the summation at ThresholdsMs[i].
	Systems []struct {
		Persona string
		Values  []float64
	}
}

// Render implements Result.
func (r *ExtMetricResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§3.1) — the proposed scalar responsiveness metric, Word benchmark\n\n")
	fmt.Fprintf(w, "  irritation(T) = Σ max(0, latency - T) in seconds\n\n  %-18s", "system")
	for _, th := range r.ThresholdsMs {
		fmt.Fprintf(w, " %9.0fms", th)
	}
	fmt.Fprintln(w)
	for _, s := range r.Systems {
		fmt.Fprintf(w, "  %-18s", s.Persona)
		for _, v := range s.Values {
			fmt.Fprintf(w, " %10.2fs", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n  The ranking can depend on T — the threshold is event-type and user\n")
	fmt.Fprintf(w, "  dependent, which is why the paper presents latency graphically instead.\n")
	return nil
}

func runExtMetric(ctx context.Context, cfg Config) (Result, error) {
	chars := 400
	if cfg.Quick {
		chars = 100
	}
	res := &ExtMetricResult{ThresholdsMs: []float64{50, core.PerceptionThresholdMs, 200, IrritationS}}
	for _, p := range persona.NTs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		events, _, _ := wordTrace(cfg, p, cfg.Seed, chars, true)
		lats := core.Latencies(events)
		vals := make([]float64, len(res.ThresholdsMs))
		for i, th := range res.ThresholdsMs {
			vals[i] = core.Irritation(lats, th)
		}
		res.Systems = append(res.Systems, struct {
			Persona string
			Values  []float64
		}{Persona: p.Name, Values: vals})
	}
	return res, nil
}

// IrritationS aliases the paper's 2 s "invariably irritates" floor in ms.
const IrritationS = core.IrritationThresholdMs

func init() {
	Register(Spec{ID: "ext-batching", Title: "The infinitely-fast-user distortion",
		Paper: "§1.1 (extension)", Run: runExtBatching})
	Register(Spec{ID: "ext-thinkwait", Title: "Full think/wait FSM decomposition",
		Paper: "§2.3 Fig. 2 (extension)", Run: runExtThinkWait})
	Register(Spec{ID: "ext-metric", Title: "Scalar responsiveness metric exploration",
		Paper: "§3.1 (extension)", Run: runExtMetric})
}
