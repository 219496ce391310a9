package spans

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"latlab/internal/simtime"
)

// testClock returns a settable simulated clock.
func testClock() (*simtime.Time, func() simtime.Time) {
	now := new(simtime.Time)
	return now, func() simtime.Time { return *now }
}

func TestCauseNames(t *testing.T) {
	seen := map[string]Cause{}
	for c := Cause(0); c < NumCauses; c++ {
		name := c.String()
		if name == "" || name == "cause-unknown" {
			t.Fatalf("cause %d has no name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("causes %v and %v share name %q", prev, c, name)
		}
		seen[name] = c
	}
	if NumCauses.String() != "cause-unknown" {
		t.Fatalf("out-of-range String = %q", NumCauses.String())
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	h := r.Begin(CauseExec, "x")
	r.End(h)
	r.BeginAt(CauseEpisode, "e", 5)
	r.EndAt(Handle{}, 9)
	r.Charge(CauseTLBFlush, "", 0, 3)
	r.ChargeSpan(CauseBase, "", 0, 10, 100, 0)
	r.Grow(64)
	r.Reset()
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestRecorderTree(t *testing.T) {
	now, clock := testClock()
	r := NewRecorder(clock)

	*now = 100
	ep := r.BeginAt(CauseEpisode, "WM_KEYDOWN", 50)
	*now = 120
	ex := r.Begin(CauseExec, "handler")
	r.Charge(CauseTLBFlush, "", 0, 40)
	*now = 200
	r.ChargeSpan(CauseBase, "handler", 120, 200, 8000, 0)
	r.End(ex)
	*now = 300
	r.End(ep)

	s := r.Spans()
	if len(s) != 4 {
		t.Fatalf("got %d spans, want 4", len(s))
	}
	if s[0].Parent != -1 || s[0].Start != 50 || s[0].End != 300 {
		t.Fatalf("episode span wrong: %+v", s[0])
	}
	if s[1].Parent != 0 || s[1].Start != 120 || s[1].End != 200 {
		t.Fatalf("exec span wrong: %+v", s[1])
	}
	if s[2].Parent != 1 || s[2].Count != 40 || s[2].Duration() != 0 {
		t.Fatalf("flush span wrong: %+v", s[2])
	}
	if s[3].Parent != 1 || s[3].Cycles != 8000 {
		t.Fatalf("base span wrong: %+v", s[3])
	}
}

// TestOutOfOrderEnd closes an outer handle while an inner one is still
// open — the overlapping-syscall shape — and checks the stack recovers.
func TestOutOfOrderEnd(t *testing.T) {
	now, clock := testClock()
	r := NewRecorder(clock)

	a := r.Begin(CauseSyscall, "read a")
	*now = 10
	b := r.Begin(CauseSyscall, "read b")
	*now = 20
	r.End(a) // a closes while b is open
	*now = 30
	// new spans parent under b, the innermost still-open span
	r.Charge(CauseBase, "", 1, 0)
	r.End(b)

	s := r.Spans()
	if s[0].End != 20 || s[1].End != 30 {
		t.Fatalf("ends wrong: a=%v b=%v", s[0].End, s[1].End)
	}
	if s[2].Parent != 1 {
		t.Fatalf("charge parented to %d, want 1", s[2].Parent)
	}
	// ending an already-removed handle is harmless
	r.End(a)
}

func TestAttributionSkipsContainersAndRemapsBase(t *testing.T) {
	now, clock := testClock()
	r := NewRecorder(clock)

	ep := r.BeginAt(CauseEpisode, "e", 0)
	r.ChargeSpan(CauseBase, "app", 0, 100, 1000, 0) // app compute stays base
	ir := r.BeginAt(CauseInterrupt, "timer", 100)
	r.ChargeSpan(CauseBase, "isr", 100, 140, 400, 0)   // -> interrupt
	r.ChargeSpan(CauseTLBMiss, "isr", 140, 150, 50, 2) // stays tlb-miss
	*now = 150
	r.End(ir)
	*now = 200
	r.End(ep)

	a := Attribution(r.Spans())
	if a.Dur[CauseEpisode] != 0 || a.Cycles[CauseInterrupt] != 400 {
		t.Fatalf("container skipped / base remap failed: %+v", a)
	}
	if a.Cycles[CauseBase] != 1000 {
		t.Fatalf("app base = %d, want 1000", a.Cycles[CauseBase])
	}
	if a.Cycles[CauseTLBMiss] != 50 || a.Count[CauseTLBMiss] != 2 {
		t.Fatalf("tlb miss kept identity: %+v", a)
	}
	if a.Total() != 100+40+10 {
		t.Fatalf("total = %v, want 150ns", a.Total())
	}
}

func TestEpisodes(t *testing.T) {
	now, clock := testClock()
	r := NewRecorder(clock)

	// background interrupt before any episode
	bg := r.BeginAt(CauseInterrupt, "timer", 0)
	r.ChargeSpan(CauseBase, "isr", 0, 30, 300, 0)
	*now = 30
	r.End(bg)

	e1 := r.BeginAt(CauseEpisode, "WM_KEYDOWN", 40)
	r.ChargeSpan(CauseTLBMiss, "h", 40, 50, 250, 10)
	*now = 90
	r.End(e1)

	e2 := r.BeginAt(CauseEpisode, "WM_CHAR", 100)
	r.ChargeSpan(CauseBase, "h", 100, 110, 1000, 0)
	*now = 130
	r.End(e2)

	eps, background := Episodes(r.Spans())
	if len(eps) != 2 {
		t.Fatalf("got %d episodes, want 2", len(eps))
	}
	if eps[0].Label != "WM_KEYDOWN" || eps[0].Duration() != 50 {
		t.Fatalf("episode 0 wrong: %+v", eps[0])
	}
	if eps[0].A.Cycles[CauseTLBMiss] != 250 {
		t.Fatalf("episode 0 attribution wrong: %+v", eps[0].A)
	}
	if eps[1].A.Cycles[CauseBase] != 1000 {
		t.Fatalf("episode 1 attribution wrong: %+v", eps[1].A)
	}
	if background.Cycles[CauseInterrupt] != 300 {
		t.Fatalf("background wrong: %+v", background)
	}
}

func TestCollector(t *testing.T) {
	var c *Collector
	c.Add("x", []Span{{}}) // nil collector is inert
	if c.Tracks() != nil {
		t.Fatal("nil collector returned tracks")
	}

	col := &Collector{}
	col.Add("empty", nil) // empty span sets are dropped
	col.Add("b", []Span{{Label: "1"}})
	col.Add("a", []Span{{Label: "2"}})
	col.Add("b", []Span{{Label: "3"}}) // duplicate name gets a suffix
	got := col.Tracks()
	if len(got) != 3 {
		t.Fatalf("got %d tracks, want 3", len(got))
	}
	if got[0].Name != "a" || got[1].Name != "b" || got[2].Name != "b#2" {
		t.Fatalf("track order/names wrong: %q %q %q", got[0].Name, got[1].Name, got[2].Name)
	}
}

func TestWriteChromeLoadableJSON(t *testing.T) {
	now, clock := testClock()
	r := NewRecorder(clock)
	ep := r.BeginAt(CauseEpisode, `key "q"`, 1500)
	r.Charge(CauseTLBFlush, "", 0, 96)
	r.ChargeSpan(CauseTLBMiss, "h", 1500, 4000, 250, 10)
	*now = 5250
	r.End(ep)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Track{{Name: "NT 3.51 @ p100", Spans: r.Spans()}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// metadata + 3 spans
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("first event not process metadata: %+v", doc.TraceEvents[0])
	}
	ev := doc.TraceEvents[1] // the episode complete event
	if ev.Ph != "X" || ev.Ts != 1.5 || ev.Dur != 3.75 {
		t.Fatalf("episode event wrong: %+v", ev)
	}
	if doc.TraceEvents[2].Ph != "i" {
		t.Fatalf("flush should be an instant event: %+v", doc.TraceEvents[2])
	}
	if !strings.Contains(buf.String(), `"key \"q\""`) {
		t.Fatal("label not JSON-escaped")
	}
}

func TestGrowKeepsContents(t *testing.T) {
	_, clock := testClock()
	r := NewRecorder(clock)
	r.Charge(CauseBase, "a", 1, 0)
	r.Grow(128)
	r.Grow(64) // no-op shrink request
	if r.Len() != 1 || r.Spans()[0].Label != "a" {
		t.Fatal("Grow lost contents")
	}
	if cap(r.Spans()) < 128 {
		t.Fatalf("cap = %d, want >= 128", cap(r.Spans()))
	}
}

// TestAllocs proves the budget the hot paths rely on: a nil recorder
// allocates nothing, and an enabled pre-grown recorder allocates nothing
// per span at steady state.
func TestAllocs(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(200, func() {
		h := nilRec.Begin(CauseExec, "seg")
		nilRec.Charge(CauseTLBMiss, "seg", 25, 1)
		nilRec.End(h)
	}); n != 0 {
		t.Fatalf("nil recorder allocs/op = %v, want 0", n)
	}

	_, clock := testClock()
	r := NewRecorder(clock)
	r.Grow(1 << 16)
	if n := testing.AllocsPerRun(200, func() {
		h := r.Begin(CauseExec, "seg")
		r.Charge(CauseTLBMiss, "seg", 25, 1)
		r.ChargeSpan(CauseBase, "seg", 0, 10, 100, 0)
		r.End(h)
	}); n != 0 {
		t.Fatalf("pre-grown recorder allocs/op = %v, want 0", n)
	}
}
