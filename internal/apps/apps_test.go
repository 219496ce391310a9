package apps

import (
	"testing"

	"latlab/internal/core"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// rig boots a persona with probe + idle-loop instrumentation.
type rig struct {
	sys *system.System
	pr  *core.Probe
	il  *core.IdleLoop
}

func newRig(p persona.P) *rig {
	sys := system.New(system.Config{Persona: p})
	pr := core.AttachProbe(sys.K)
	il := core.StartIdleLoop(sys.K)
	return &rig{sys: sys, pr: pr, il: il}
}

func (r *rig) extract(thread *kernel.Thread, strip bool) []core.Event {
	return r.il.Extract(r.pr.Msgs, core.ExtractOptions{
		Thread:         thread.ID(),
		StripQueueSync: strip,
	})
}

func secs(s float64) simtime.Time { return simtime.Time(simtime.FromSeconds(s)) }

func TestEchoConventionalVsIdleLoop(t *testing.T) {
	// Fig. 1: the conventional (in-application) measurement misses the
	// interrupt handling and rescheduling time; the idle-loop latency is
	// larger by that system time.
	r := newRig(persona.NT40())
	defer r.sys.Shutdown()
	e := NewEcho(r.sys, 900_000) // ≈9 ms of application work
	script := &input.Script{Events: input.TypeText(secs(0.2), "abcde", 200*simtime.Millisecond)}
	script.Install(r.sys)
	r.sys.K.Run(secs(2))

	events := r.extract(e.Thread(), false)
	if len(events) != 5 || len(e.Conventional) != 5 {
		t.Fatalf("events = %d, conventional = %d", len(events), len(e.Conventional))
	}
	for i, ev := range events {
		conv := e.Conventional[i]
		if ev.Latency <= conv {
			t.Fatalf("event %d: idle-loop %v should exceed conventional %v", i, ev.Latency, conv)
		}
		gap := ev.Latency - conv
		if gap < 10*simtime.Microsecond || gap > simtime.Millisecond {
			t.Fatalf("event %d: missed system time = %v, want tens of µs", i, gap)
		}
	}
}

func TestNotepadLatencyClasses(t *testing.T) {
	// §5.1: echo keystrokes < 10 ms; newline/page-down ≥ 28 ms.
	r := newRig(persona.NT40())
	defer r.sys.Shutdown()
	n := NewNotepad(r.sys)
	text := input.SampleText(60) + "\n" + input.SampleText(40)
	ev := input.TypeText(secs(0.5), text, 120*simtime.Millisecond)
	ev = append(ev, input.KeyDowns(secs(0.5).Add(simtime.Duration(len(text))*120*simtime.Millisecond+simtime.Second), input.VKPageDown, 2, 500*simtime.Millisecond)...)
	script := &input.Script{Events: ev, QueueSync: true}
	script.Install(r.sys)
	r.sys.K.Run(script.End().Add(2 * simtime.Second))

	events := r.extract(n.Thread(), true)
	if len(events) != len(ev) {
		t.Fatalf("events = %d, want %d", len(events), len(ev))
	}
	var chars, refreshes int
	for _, e := range events {
		ms := e.Latency.Milliseconds()
		switch {
		case ms < 10:
			chars++
		case ms >= 25:
			refreshes++
		default:
			t.Fatalf("event latency %vms in neither class", ms)
		}
	}
	if chars != 100 || refreshes != 3 {
		t.Fatalf("chars=%d refreshes=%d, want 100/3", chars, refreshes)
	}
	if n.Chars != 100 || n.Refreshes != 3 {
		t.Fatalf("app counters: %d/%d", n.Chars, n.Refreshes)
	}
}

func TestNotepadW95SmallestCumulativeLatencyLargestElapsed(t *testing.T) {
	// The Fig. 7 anomaly. Identical input on all three personas; compare
	// cumulative (stripped) latency and busy elapsed time.
	type res struct {
		cum  simtime.Duration
		busy simtime.Duration
	}
	results := map[string]res{}
	for _, p := range persona.All() {
		r := newRig(p)
		n := NewNotepad(r.sys)
		script := &input.Script{
			Events:    input.TypeText(secs(0.5), input.SampleText(120), 120*simtime.Millisecond),
			QueueSync: true,
		}
		script.Install(r.sys)
		r.sys.K.Run(script.End().Add(2 * simtime.Second))
		events := r.extract(n.Thread(), true)
		if len(events) != 120 {
			t.Fatalf("%s: events = %d", p.Short, len(events))
		}
		var cum simtime.Duration
		for _, e := range events {
			cum += e.Latency
		}
		results[p.Short] = res{cum: cum, busy: r.sys.K.NonIdleBusyTime()}
		r.sys.Shutdown()
	}
	w95, nt40, nt351 := results["w95"], results["nt40"], results["nt351"]
	if !(w95.cum < nt40.cum && nt40.cum < nt351.cum) {
		t.Fatalf("cumulative latency want w95 < nt40 < nt351, got %v / %v / %v",
			w95.cum, nt40.cum, nt351.cum)
	}
	// Elapsed (busy) time largest on W95: WM_QUEUESYNC processing.
	if !(w95.busy > nt40.busy && w95.busy > nt351.busy) {
		t.Fatalf("busy time want w95 largest, got w95=%v nt40=%v nt351=%v",
			w95.busy, nt40.busy, nt351.busy)
	}
}

func TestWordHandVsTest(t *testing.T) {
	// §5.4: Test-driven events ≈80-100 ms typical, ≤≈140 ms max; hand
	// input ≈32 ms typical with CRs >200 ms.
	text := input.SampleText(180) + "\n" + input.SampleText(60)

	// Test-driven: fixed pacing + WM_QUEUESYNC.
	rTest := newRig(persona.NT351())
	wTest := NewWord(rTest.sys)
	st := &input.Script{Events: input.TypeText(secs(0.5), text, 150*simtime.Millisecond), QueueSync: true}
	st.Install(rTest.sys)
	rTest.sys.K.Run(st.End().Add(3 * simtime.Second))
	testEvents := rTest.extract(wTest.Thread(), false)
	rTest.sys.Shutdown()

	// Hand-driven: typist pacing, no QUEUESYNC.
	rHand := newRig(persona.NT351())
	wHand := NewWord(rHand.sys)
	sh := &input.Script{Events: input.NewTypist(11, 100).Type(secs(0.5), text)}
	sh.Install(rHand.sys)
	rHand.sys.K.Run(sh.End().Add(3 * simtime.Second))
	handEvents := rHand.extract(wHand.Thread(), false)
	handBursts := wHand.BackgroundBursts
	rHand.sys.Shutdown()

	if len(testEvents) != len(text)+0 || len(handEvents) != len(text) {
		t.Fatalf("events: test=%d hand=%d, want %d", len(testEvents), len(handEvents), len(text))
	}

	typical := func(evs []core.Event) float64 {
		var chars []float64
		for _, e := range evs {
			if e.Kind == kernel.WMChar && e.Latency < simtime.FromMillis(190) {
				chars = append(chars, e.Latency.Milliseconds())
			}
		}
		var sum float64
		for _, c := range chars {
			sum += c
		}
		return sum / float64(len(chars))
	}
	testTypical, handTypical := typical(testEvents), typical(handEvents)
	if testTypical < 70 || testTypical > 110 {
		t.Fatalf("Test typical keystroke = %.1fms, want ≈80-100", testTypical)
	}
	if handTypical < 22 || handTypical > 45 {
		t.Fatalf("hand typical keystroke = %.1fms, want ≈32", handTypical)
	}

	maxOf := func(evs []core.Event) float64 {
		m := 0.0
		for _, e := range evs {
			if v := e.Latency.Milliseconds(); v > m {
				m = v
			}
		}
		return m
	}
	if m := maxOf(testEvents); m > 155 {
		t.Fatalf("Test max = %.1fms, want ≤≈140", m)
	}
	if m := maxOf(handEvents); m < 200 {
		t.Fatalf("hand max (CR) = %.1fms, want >200", m)
	}
	if handBursts == 0 {
		t.Fatalf("hand run should show background activity (timer bursts)")
	}
}

func TestWordW95NeverIdle(t *testing.T) {
	// §5.1/§5.4: under Windows 95 the system stays busy after each Word
	// event, making latencies appear seconds long — the paper could not
	// report W95 Word results.
	r := newRig(persona.W95())
	defer r.sys.Shutdown()
	w := NewWord(r.sys)
	script := &input.Script{Events: input.TypeText(secs(0.5), "abcdef", 150*simtime.Millisecond)}
	script.Install(r.sys)
	r.sys.K.Run(script.End().Add(5 * simtime.Second))
	events := r.extract(w.Thread(), false)
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	// Lingering keeps the CPU busy across keystrokes, so measured event
	// latencies are dominated by the housekeeping, and once input stops
	// the final event stretches to seconds.
	last := events[len(events)-1]
	if last.Latency < simtime.Second {
		t.Fatalf("final W95 Word event latency = %v, want seconds (lingering)", last.Latency)
	}
	for i, e := range events[:len(events)-1] {
		if e.Latency < 100*simtime.Millisecond {
			t.Fatalf("event %d latency = %v; lingering should dominate inter-key gaps", i, e.Latency)
		}
	}
}

func TestPowerpointTaskLongEvents(t *testing.T) {
	// The Table 1 events in task context: launch, open, OLE edits, save.
	r := newRig(persona.NT40())
	defer r.sys.Shutdown()
	ppt := NewPowerpoint(r.sys, DefaultPowerpointParams())

	var evs []input.Event
	evs = append(evs, input.Command(secs(1), CmdLaunch))
	evs = append(evs, input.Command(secs(9), CmdOpen))
	// Page down to slide 10 (object slide), edit it, then save.
	evs = append(evs, input.KeyDowns(secs(15), input.VKPageDown, 9, 400*simtime.Millisecond)...)
	evs = append(evs, input.Command(secs(20), CmdEditObject+0))
	evs = append(evs, input.TypeText(secs(28), "42", 200*simtime.Millisecond)...)
	evs = append(evs, input.Command(secs(29), CmdEndEdit))
	evs = append(evs, input.Command(secs(30), CmdSave))
	script := &input.Script{Events: evs, QueueSync: true}
	script.Install(r.sys)
	r.sys.K.Run(secs(55))

	events := r.extract(ppt.Thread(), true)
	if len(events) != len(evs) {
		t.Fatalf("events = %d, want %d", len(events), len(evs))
	}
	sec := func(e core.Event) float64 { return e.Latency.Seconds() }

	launch, open := events[0], events[1]
	if sec(launch) < 3.5 || sec(launch) > 8.5 {
		t.Fatalf("launch latency = %.2fs, want ≈5.8s (Table 1)", sec(launch))
	}
	if sec(open) < 2.5 || sec(open) > 6.0 {
		t.Fatalf("open latency = %.2fs, want ≈4.2s (Table 1)", sec(open))
	}
	oleEdit := events[2+9]
	if oleEdit.Kind != kernel.WMCommand {
		t.Fatalf("event 11 kind = %v", oleEdit.Kind)
	}
	if sec(oleEdit) < 3.5 || sec(oleEdit) > 8.5 {
		t.Fatalf("first OLE edit latency = %.2fs, want ≈5.8s", sec(oleEdit))
	}
	save := events[len(events)-1]
	if sec(save) < 6.0 || sec(save) > 13.0 {
		t.Fatalf("save latency = %.2fs, want ≈9.6s (Table 1)", sec(save))
	}
	// Page-downs are sub-second (Fig. 8).
	for i := 2; i < 11; i++ {
		if sec(events[i]) > 1.0 {
			t.Fatalf("page-down %d latency = %.2fs, want <1s", i-2, sec(events[i]))
		}
	}
	if ppt.Launches != 1 || ppt.Saves != 1 || ppt.PageDowns != 9 || ppt.Edits != 1 {
		t.Fatalf("counters: %d/%d/%d/%d", ppt.Launches, ppt.Saves, ppt.PageDowns, ppt.Edits)
	}
}
