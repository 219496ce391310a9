package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/viz"
)

// wordTrace runs the paper's Microsoft Word benchmark (§5.4 / Fig. 5
// trace) on persona p: roughly `chars` characters of text entry with
// arrow-key cursor movement and backspace corrections, varied pacing.
// testDriven selects Microsoft Test emulation (WM_QUEUESYNC after every
// input) versus hand-generated input.
func wordTrace(cfg Config, p persona.P, seed uint64, chars int, testDriven bool) (events []core.Event, elapsed simtime.Duration, w *apps.Word) {
	// Insert a newline roughly every 180 characters (paragraph breaks)
	// and corrections (backspace pairs) every ~60.
	raw := input.SampleText(chars)
	var text []rune
	for i, c := range raw {
		if i > 0 && i%180 == 0 {
			text = append(text, '\n')
		}
		if i > 0 && i%60 == 0 {
			text = append(text, 'x', '\b')
		}
		text = append(text, c)
	}

	r := newRig(cfg, p)
	defer r.shutdown()
	word := apps.NewWord(r.sys)

	// Composing pace, not copy-typing: the paper's script "varied [timing]
	// to simulate realistic pauses when composing a document".
	ty := input.NewTypist(seed, 65)
	evs := ty.Type(simtime.Time(500*simtime.Millisecond), string(text))
	// Sprinkle arrow-key cursor movement after sentence pauses.
	var withArrows []input.Event
	for i, e := range evs {
		withArrows = append(withArrows, e)
		if i > 0 && i%97 == 0 {
			withArrows = append(withArrows, input.Event{
				At: e.At.Add(150 * simtime.Millisecond), Kind: kernel.WMKeyDown, Param: input.VKLeft,
			})
		}
	}
	script := &input.Script{Events: withArrows, QueueSync: testDriven}
	script.Sort()
	script.Install(r.sys)
	end := script.End().Add(3 * simtime.Second)
	r.sys.K.Run(end)

	events = r.extract(word.Thread(), false)
	return events, simtime.Duration(end), word
}

// Fig5Result is the raw-data representation of paper Fig. 5: the full
// Word event trace and a two-second magnification.
type Fig5Result struct {
	Events []core.Event
	// Magnified is the slice of events within the magnification window.
	Magnified []core.Event
	WindowLo  simtime.Time
	WindowHi  simtime.Time
}

// Render implements Result.
func (r *Fig5Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 5 — Raw data representation (Word on Windows NT 3.51, %d events)\n\n", len(r.Events))
	if err := viz.TimeSeries(w, "5a: complete trace (0.1s perception threshold marked)",
		r.Events, core.PerceptionThresholdMs, 110, 12); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return viz.TimeSeries(w, fmt.Sprintf("5b: magnification %v .. %v", r.WindowLo, r.WindowHi),
		r.Magnified, core.PerceptionThresholdMs, 110, 12)
}

// Artifacts implements ArtifactProvider.
func (r *Fig5Result) Artifacts() []Artifact {
	return []Artifact{EventsArtifact("word-nt351", r.Events)}
}

func runFig5(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	chars := 1000
	if cfg.Quick {
		chars = 150
	}
	events, _, _ := wordTrace(cfg, persona.NT351(), cfg.Seed, chars, true)
	res := &Fig5Result{Events: events}
	// Magnify two seconds from the middle of the run.
	if len(events) > 0 {
		mid := events[len(events)/2].Enqueued
		res.WindowLo, res.WindowHi = mid, mid.Add(2*simtime.Second)
		for _, e := range events {
			if e.Enqueued >= res.WindowLo && e.Enqueued < res.WindowHi {
				res.Magnified = append(res.Magnified, e)
			}
		}
	}
	return res, nil
}

func init() {
	Register(Spec{
		ID:    "fig5",
		Title: "Raw event-latency trace of the Word benchmark",
		Paper: "Fig. 5, §3.2",
		Run:   runFig5,
	})
}
