package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

func ms(f float64) simtime.Duration { return simtime.FromMillis(f) }
func at(f float64) simtime.Time     { return simtime.Time(simtime.FromMillis(f)) }

func TestFSMBasicTransitions(t *testing.T) {
	f := NewFSM()
	if f.Phase() != Think {
		t.Fatalf("initial phase = %v", f.Phase())
	}
	// Input arrives: queue non-empty → wait.
	f.SetQueue(1, at(100))
	if f.Phase() != Wait {
		t.Fatalf("queued input should mean wait")
	}
	// Dequeued, CPU handling it.
	f.SetQueue(0, at(101))
	f.SetCPU(true, at(101))
	if f.Phase() != Wait {
		t.Fatalf("busy CPU should mean wait")
	}
	// Handling done.
	f.SetCPU(false, at(110))
	if f.Phase() != Think {
		t.Fatalf("idle+empty+noio should mean think")
	}
	think, wait := f.Finish(at(200))
	if think != ms(100)+ms(90) {
		t.Fatalf("think = %v, want 190ms", think)
	}
	if wait != ms(10) {
		t.Fatalf("wait = %v, want 10ms", wait)
	}
	// Transition log: think→wait at 100, wait→think at 110.
	trs := f.Transitions()
	if len(trs) != 2 || trs[0].To != Wait || trs[0].At != at(100) || trs[1].To != Think || trs[1].At != at(110) {
		t.Fatalf("transitions = %+v", trs)
	}
}

func TestFSMSyncIOIsWait(t *testing.T) {
	// Paper §2.3: "synchronous I/O requests contribute to wait time, even
	// though the CPU can be idle during these operations."
	f := NewFSM()
	f.SetCPU(true, at(10))
	f.SetCPU(false, at(12))
	f.SetSyncIO(1, at(12)) // blocked on disk, CPU idle
	if f.Phase() != Wait {
		t.Fatalf("sync I/O with idle CPU must be wait")
	}
	f.SetSyncIO(0, at(30))
	_, wait := f.Finish(at(40))
	if wait != ms(20) {
		t.Fatalf("wait = %v, want 20ms (2 busy + 18 I/O)", wait)
	}
}

func TestFSMPhaseString(t *testing.T) {
	if Think.String() != "think" || Wait.String() != "wait" {
		t.Fatalf("phase names wrong")
	}
}

func TestFSMValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	f := NewFSM()
	f.SetCPU(true, at(10))
	mustPanic("time backwards", func() { f.SetCPU(false, at(5)) })
	mustPanic("negative queue", func() { NewFSM().SetQueue(-1, 0) })
	mustPanic("negative io", func() { NewFSM().SetSyncIO(-1, 0) })
}

// Property: think+wait always equals elapsed time, for any input script.
func TestFSMConservationProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		fsm := NewFSM()
		now := simtime.Time(0)
		for _, s := range steps {
			now = now.Add(simtime.Duration(s%1000) * simtime.Microsecond)
			switch s % 3 {
			case 0:
				fsm.SetCPU(s%2 == 0, now)
			case 1:
				fsm.SetQueue(int(s%4), now)
			case 2:
				fsm.SetSyncIO(int(s%2), now)
			}
		}
		end := now.Add(simtime.Millisecond)
		think, wait := fsm.Finish(end)
		return think+wait == simtime.Duration(end)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// keystrokeProbe records an app that handles one keystroke with a sync
// read, then quits; it returns the probe, the app's thread id and the
// run's end.
func keystrokeProbe(t *testing.T) (*Probe, int, simtime.Time) {
	t.Helper()
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	pr := AttachProbe(k)
	file := k.Cache().AddFile("doc", 200_000, 32)
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			if m := tc.GetMessage(); m.Kind == kernel.WMQuit {
				return
			}
			tc.Compute(cpu.Segment{Name: "w", BaseCycles: 300_000}) // 3 ms
			tc.ReadFile(file, 0, 8)                                 // cold: tens of ms, CPU idle
		}
	})
	k.At(at(50), func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, 0) })
	k.At(at(500), func(simtime.Time) { k.PostMessage(app, kernel.WMQuit, 0) })
	end := k.Run(simtime.Time(600 * simtime.Millisecond))
	return pr, app.ID(), end
}

func TestDriveFSMFromProbe(t *testing.T) {
	// End-to-end: an app handles one keystroke with a sync read; the FSM
	// driven from probe logs must classify wait = handling + I/O and
	// think = the rest.
	pr, tid, end := keystrokeProbe(t)
	f := DriveFSM(pr, tid, end)
	think, wait := f.ThinkTime(), f.WaitTime()
	if think+wait != simtime.Duration(end) {
		t.Fatalf("conservation: think %v + wait %v != %v", think, wait, end)
	}
	// Wait covers ~3ms compute + disk read (several ms) + quit handling;
	// I/O wait must be included despite the idle CPU.
	if wait < ms(6) || wait > ms(60) {
		t.Fatalf("wait = %v, want handling+disk ≈ 10-40ms", wait)
	}
	if think < ms(500) {
		t.Fatalf("think = %v, want the bulk of the 600ms run", think)
	}
}

// driveFSMOracle is the materialise-and-sort replay DriveFSM replaced:
// every record becomes an ev, and a stable insertion sort orders them by
// (time, kind, seq). It is the reference the merge must match.
func driveFSMOracle(p *Probe, thread int, end simtime.Time) *FSM {
	type ev struct {
		at   simtime.Time
		seq  int
		kind int
		b    bool
		n    int
	}
	less := func(a, b ev) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.seq < b.seq
	}
	var evs []ev
	for i, b := range p.Busy {
		evs = append(evs, ev{at: b.At, seq: i, kind: 0, b: b.Busy})
	}
	for i, post := range p.Posts {
		if post.Thread == thread {
			evs = append(evs, ev{at: post.At, seq: i, kind: 1, n: post.QueueLen})
		}
	}
	for i, m := range p.Msgs {
		if m.Thread == thread {
			evs = append(evs, ev{at: m.Return, seq: i, kind: 1, n: m.QueueLen})
		}
	}
	for i, s := range p.SyncIO {
		evs = append(evs, ev{at: s.At, seq: i, kind: 2, n: s.Outstanding})
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && less(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	f := NewFSM()
	for _, e := range evs {
		switch e.kind {
		case 0:
			f.SetCPU(e.b, e.at)
		case 1:
			f.SetQueue(e.n, e.at)
		case 2:
			f.SetSyncIO(e.n, e.at)
		}
	}
	f.Finish(end)
	return f
}

// sameFSM reports how got differs from want, or "" when their
// transition logs and totals are identical.
func sameFSM(got, want *FSM) string {
	if got.ThinkTime() != want.ThinkTime() || got.WaitTime() != want.WaitTime() {
		return fmt.Sprintf("think/wait %v/%v, want %v/%v",
			got.ThinkTime(), got.WaitTime(), want.ThinkTime(), want.WaitTime())
	}
	if !slices.Equal(got.Transitions(), want.Transitions()) {
		return fmt.Sprintf("transitions %+v, want %+v", got.Transitions(), want.Transitions())
	}
	return ""
}

func post(thread int, ms float64, qlen int) PostRecord {
	return PostRecord{Thread: thread, At: at(ms), QueueLen: qlen}
}

func msg(thread int, ms float64, qlen int) trace.MsgRecord {
	return trace.MsgRecord{Thread: thread, Call: at(ms), Return: at(ms), QueueLen: qlen}
}

func TestDriveFSMMatchesOracle(t *testing.T) {
	pr, tid, end := keystrokeProbe(t)
	cases := []struct {
		name   string
		p      *Probe
		thread int
		end    simtime.Time
	}{
		{"keystroke trace", pr, tid, end},
		{"empty logs", &Probe{}, 0, at(10)},
		{"busy only", &Probe{Busy: []BusyChange{{true, at(1)}, {false, at(4)}}}, 0, at(10)},
		{"sync I/O only", &Probe{SyncIO: []SyncIOChange{{1, at(2)}, {0, at(7)}}}, 0, at(10)},
		{"other threads only", &Probe{
			Posts: []PostRecord{post(1, 1, 1), post(2, 2, 1)},
			Msgs:  []trace.MsgRecord{msg(1, 3, 0), msg(2, 4, 0)},
		}, 0, at(10)},
		{"all four kinds at one instant", &Probe{
			Busy:   []BusyChange{{true, at(5)}, {false, at(5)}, {true, at(8)}},
			Posts:  []PostRecord{post(0, 5, 1)},
			Msgs:   []trace.MsgRecord{msg(0, 5, 0)},
			SyncIO: []SyncIOChange{{1, at(5)}, {0, at(5)}, {1, at(9)}},
		}, 0, at(10)},
		{"sync I/O after busy at the same instant", &Probe{
			Busy:   []BusyChange{{true, at(2)}, {false, at(6)}},
			SyncIO: []SyncIOChange{{1, at(6)}, {0, at(6)}},
		}, 0, at(10)},
		// At t=3 the queue records run msg0, post1, post2, msg2, post3:
		// the post wins the seq-2 collision, so msg2's length 4 is
		// overwritten by post3's 0 only because post3 has the higher seq.
		{"post/message seq collisions", &Probe{
			Posts: []PostRecord{post(1, 1, 1), post(0, 3, 2), post(0, 3, 3), post(0, 3, 0)},
			Msgs:  []trace.MsgRecord{msg(0, 3, 1), msg(1, 3, 0), msg(0, 3, 4), msg(0, 5, 2)},
		}, 0, at(10)},
		// Same instant, the message has the higher seq, so it is last.
		{"message last on the higher seq", &Probe{
			Posts: []PostRecord{post(0, 2, 0), post(0, 4, 1)},
			Msgs:  []trace.MsgRecord{msg(1, 1, 0), msg(0, 2, 3), msg(0, 4, 0)},
		}, 0, at(10)},
		{"interleaved threads", &Probe{
			Busy: []BusyChange{{true, at(1)}, {false, at(2)}, {true, at(6)}, {false, at(7)}},
			Posts: []PostRecord{post(0, 1, 1), post(2, 1, 1), post(1, 3, 1), post(0, 4, 1),
				post(2, 4, 2), post(1, 6, 2)},
			Msgs: []trace.MsgRecord{msg(1, 0, 0), msg(0, 2, 0), msg(2, 2, 1), msg(1, 4, 1),
				msg(0, 6, 0), msg(2, 9, 0)},
			SyncIO: []SyncIOChange{{1, at(3)}, {0, at(5)}},
		}, 0, at(10)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := DriveFSM(c.p, c.thread, c.end), driveFSMOracle(c.p, c.thread, c.end)
			if diff := sameFSM(got, want); diff != "" {
				t.Fatal(diff)
			}
			if got.ThinkTime()+got.WaitTime() != simtime.Duration(c.end) {
				t.Fatalf("think %v + wait %v != end %v", got.ThinkTime(), got.WaitTime(), c.end)
			}
		})
	}
}

// TestDriveFSMBackwardsLogPanics pins that the merge trusts each log's
// order: a record earlier than its predecessor panics in the FSM rather
// than being sorted into place as the oracle would.
func TestDriveFSMBackwardsLogPanics(t *testing.T) {
	p := &Probe{
		Busy:   []BusyChange{{true, at(10)}, {false, at(20)}},
		SyncIO: []SyncIOChange{{1, at(15)}, {0, at(12)}},
	}
	driveFSMOracle(p, 0, at(30)) // sorting hides the fault
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "time went backwards") {
			t.Fatalf("recovered %v, want the FSM's time-went-backwards panic", r)
		}
	}()
	DriveFSM(p, 0, at(30))
	t.Fatal("a backwards log replayed without panicking")
}

// probeFromBytes builds four non-decreasing logs from data, one record
// per byte: bits 0-1 pick the log, bits 2-3 advance that log's clock by
// 0-3 µs (so cross-log ties are common), bit 4 picks thread 0 or 1 for
// posts and messages, and bits 5-7 give the value.
func probeFromBytes(data []byte) *Probe {
	var clock [4]simtime.Time
	p := &Probe{}
	for _, c := range data {
		log := c & 3
		clock[log] += simtime.Time(c>>2&3) * simtime.Time(simtime.Microsecond)
		now, thread, v := clock[log], int(c>>4&1), int(c>>5)
		switch log {
		case 0:
			p.Busy = append(p.Busy, BusyChange{Busy: v&1 == 1, At: now})
		case 1:
			p.Posts = append(p.Posts, PostRecord{Thread: thread, At: now, QueueLen: v & 3})
		case 2:
			p.Msgs = append(p.Msgs, trace.MsgRecord{Thread: thread, Call: now, Return: now, QueueLen: v & 3})
		case 3:
			p.SyncIO = append(p.SyncIO, SyncIOChange{Outstanding: v & 3, At: now})
		}
	}
	return p
}

func FuzzDriveFSMMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 0x01, 0x02, 0x03, 0x00, 0x21, 0x22, 0x23})
	f.Add([]byte{0x25, 0x41, 0x12, 0x61, 0x06, 0x33, 0x4a, 0x19, 0x02, 0x7f, 0xe4, 0x0b})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := probeFromBytes(data)
		end := simtime.Time(len(data)*3+1) * simtime.Time(simtime.Microsecond)
		if diff := sameFSM(DriveFSM(p, 0, end), driveFSMOracle(p, 0, end)); diff != "" {
			t.Fatal(diff)
		}
	})
}

func TestSpanHelpers(t *testing.T) {
	s := Span{Start: at(10), End: at(20)}
	if s.Duration() != ms(10) {
		t.Fatalf("duration = %v", s.Duration())
	}
	if !s.Contains(at(10)) || s.Contains(at(20)) || s.Contains(at(5)) {
		t.Fatalf("contains wrong")
	}
	if !s.Overlaps(Span{Start: at(19), End: at(30)}) {
		t.Fatalf("overlap wrong")
	}
	if s.Overlaps(Span{Start: at(20), End: at(30)}) {
		t.Fatalf("touching spans do not overlap")
	}
}

func TestGroundTruthBusySpans(t *testing.T) {
	p := &Probe{Busy: []BusyChange{
		{Busy: true, At: at(10)},
		{Busy: false, At: at(15)},
		{Busy: true, At: at(40)},
	}}
	spans := p.GroundTruthBusySpans(at(50))
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0] != (Span{Start: at(10), End: at(15)}) {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[1] != (Span{Start: at(40), End: at(50)}) {
		t.Fatalf("open span not closed at end: %+v", spans[1])
	}
}
