// Package input generates user-input timelines and replays them through
// the simulated hardware path.
//
// Two generators mirror the paper's two input sources: Script is the
// Microsoft Visual Test analog — precisely timed events, each followed by
// a WM_QUEUESYNC message (the artifact §5.4 uncovers) — and Typist is a
// seeded human model with realistic inter-keystroke variation, used for
// the hand-generated comparisons.
package input

import (
	"sort"

	"latlab/internal/kernel"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// Virtual key codes for non-printable keys (Param of WMKeyDown events).
const (
	VKBack     int64 = 0x08
	VKPageDown int64 = 0x22
	VKLeft     int64 = 0x25
	VKUp       int64 = 0x26
	VKRight    int64 = 0x27
	VKDown     int64 = 0x28
)

// Event is one input event to inject at an absolute simulated time.
type Event struct {
	At    simtime.Time
	Kind  kernel.MsgKind
	Param int64
}

// Script is a replayable input timeline.
type Script struct {
	Events []Event
	// QueueSync posts WM_QUEUESYNC after every event, modelling the
	// Microsoft Test driver. Hand-generated input leaves it false.
	QueueSync bool
}

// Install schedules every event for injection on sys. Call before
// running the kernel.
func (s *Script) Install(sys *system.System) {
	for _, e := range s.Events {
		e := e
		sys.K.At(e.At, func(now simtime.Time) {
			sys.Inject(e.Kind, e.Param, s.QueueSync)
		})
	}
}

// End returns the time of the last event, or 0 for an empty script.
func (s *Script) End() simtime.Time {
	var end simtime.Time
	for _, e := range s.Events {
		if e.At > end {
			end = e.At
		}
	}
	return end
}

// Len returns the number of events.
func (s *Script) Len() int { return len(s.Events) }

// Sort orders events chronologically (stably).
func (s *Script) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
}

// charEvent converts a text character to an input event: printable
// characters and newline become WM_CHAR, backspace a WM_KEYDOWN.
func charEvent(at simtime.Time, c rune) Event {
	if c == '\b' {
		return Event{At: at, Kind: kernel.WMKeyDown, Param: VKBack}
	}
	return Event{At: at, Kind: kernel.WMChar, Param: int64(c)}
}

// TypeText generates fixed-pace keystrokes for text starting at start —
// the Test-script style: "Test scripts can specify the pauses between
// input events" (§3). At 100 words per minute use 120 ms.
func TypeText(start simtime.Time, text string, perKey simtime.Duration) []Event {
	evs := make([]Event, 0, len(text))
	at := start
	for _, c := range text {
		evs = append(evs, charEvent(at, c))
		at = at.Add(perKey)
	}
	return evs
}

// KeyDowns generates fixed-pace non-printable keystrokes.
func KeyDowns(start simtime.Time, vk int64, n int, perKey simtime.Duration) []Event {
	evs := make([]Event, 0, n)
	at := start
	for i := 0; i < n; i++ {
		evs = append(evs, Event{At: at, Kind: kernel.WMKeyDown, Param: vk})
		at = at.Add(perKey)
	}
	return evs
}

// Click generates a mouse press of the given hold duration.
func Click(at simtime.Time, hold simtime.Duration) []Event {
	return []Event{
		{At: at, Kind: kernel.WMMouseDown},
		{At: at.Add(hold), Kind: kernel.WMMouseUp},
	}
}

// Command generates a single application command (menu action).
func Command(at simtime.Time, cmd int64) Event {
	return Event{At: at, Kind: kernel.WMCommand, Param: cmd}
}

// Typist is the seeded human-typing model. The zero value is not useful;
// use NewTypist.
type Typist struct {
	// WPM is words per minute (a word is the conventional 5 characters).
	// Shneiderman's figure, cited in §2: even the best typists need
	// ~120 ms per keystroke.
	WPM float64

	rand *rng.Source
}

// The typist's human parameters: the relative std-dev of inter-key
// intervals, the mean extra gap after a space and after sentence-ending
// punctuation, and a composition pause of about typistThinkPause,
// taken with even odds once typistThinkEvery characters have gone by
// since the last.
const (
	typistJitterFrac    = 0.35
	typistWordPause     = 60 * simtime.Millisecond
	typistSentencePause = 350 * simtime.Millisecond
	typistThinkEvery    = 90
	typistThinkPause    = 1500 * simtime.Millisecond
)

// NewTypist returns a typist at wpm.
func NewTypist(seed uint64, wpm float64) *Typist {
	return &Typist{WPM: wpm, rand: rng.New(seed)}
}

// Type generates human-paced keystrokes for text starting at start.
func (ty *Typist) Type(start simtime.Time, text string) []Event {
	base := 60.0 / (ty.WPM * 5.0) // seconds per keystroke
	evs := make([]Event, 0, len(text))
	at := start
	sinceThink := 0
	for _, c := range text {
		evs = append(evs, charEvent(at, c))
		gap := ty.rand.Normal(base, base*typistJitterFrac)
		minGap := base * 0.4
		if gap < minGap {
			gap = minGap
		}
		d := simtime.FromSeconds(gap)
		switch c {
		case ' ':
			d += simtime.Duration(ty.rand.Exponential(float64(typistWordPause)))
		case '.', '!', '?':
			d += simtime.Duration(ty.rand.Exponential(float64(typistSentencePause)))
		}
		sinceThink++
		if sinceThink >= typistThinkEvery && ty.rand.Float64() < 0.5 {
			d += simtime.Duration(ty.rand.Uniform(0.8, 1.6) * float64(typistThinkPause))
			sinceThink = 0
		}
		at = at.Add(d)
	}
	return evs
}

// SampleText returns deterministic filler prose of at least n characters,
// used by the benchmarks (the paper types 1300 characters into Notepad
// and ~1000 into Word).
func SampleText(n int) string {
	const para = "The conventional methodology for system performance " +
		"measurement relies primarily on throughput sensitive benchmarks. " +
		"The most important performance criterion for interactive " +
		"applications is responsiveness as perceived by the user. " +
		"Latency not throughput is the key metric for interactive software. "
	out := make([]byte, 0, n+len(para))
	for len(out) < n {
		out = append(out, para...)
	}
	return string(out[:n])
}
