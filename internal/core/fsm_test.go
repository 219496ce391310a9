package core

import (
	"testing"
	"testing/quick"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
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
	// Think→wait at 100, wait→think at 110; the dequeue at 101 and the
	// CPU going busy at the same instant net to no change.
	if n := f.Transitions(); n != 2 {
		t.Fatalf("transitions = %d, want 2", n)
	}
}

// TestFSMCountsNetTransitions pins the same-instant collapse: a change
// at the instant of the last counted transition undoes it, so a flap
// counts nothing, and a third change at that instant counts once.
func TestFSMCountsNetTransitions(t *testing.T) {
	f := NewFSM()
	f.SetCPU(true, at(5))
	f.SetCPU(false, at(5))
	if n := f.Transitions(); n != 0 {
		t.Fatalf("a flap at one instant counted %d transitions, want 0", n)
	}
	f.SetQueue(1, at(5))
	if n := f.Transitions(); n != 1 {
		t.Fatalf("think→wait→think→wait at one instant counted %d, want 1", n)
	}
	f.SetQueue(0, at(8))
	f.SetSyncIO(1, at(8))
	f.SetSyncIO(0, at(8))
	if n := f.Transitions(); n != 2 {
		t.Fatalf("wait→think→wait→think at 8 after a change at 5 counted %d in all, want 2", n)
	}
	if think, wait := f.Finish(at(10)); think != ms(7) || wait != ms(3) {
		t.Fatalf("think/wait = %v/%v, want 7ms/3ms", think, wait)
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

// keystroke loads k with an app that handles one keystroke with a sync
// read, then quits at 500 ms, and returns the app's thread.
func keystroke(k *kernel.Kernel) *kernel.Thread {
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
	return app
}

// keystrokeEnd is where the keystroke runs stop.
const keystrokeEnd = simtime.Time(600 * simtime.Millisecond)

// recordKeystroke runs the keystroke workload with a hook recorder in
// place of a probe and returns the recorded log, the app's thread id
// and the run's end.
func recordKeystroke(t *testing.T) ([]hookRecord, int, simtime.Time) {
	t.Helper()
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	rec := recordHooks(k)
	app := keystroke(k)
	end := k.Run(keystrokeEnd)
	return rec.log, app.ID(), end
}

// TestDriveFSMFromProbe drives the FSM end to end from a probe's hooks:
// an app handles one keystroke with a sync read, and the online FSM
// must classify wait = handling + I/O and think = the rest, and equal
// the reference replay of a second, recorded run of the same workload.
func TestDriveFSMFromProbe(t *testing.T) {
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	pr := AttachProbe(k)
	pr.Watch(keystroke(k))
	end := k.Run(keystrokeEnd)
	f := pr.FSM(end)
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

	log, app, refEnd := recordKeystroke(t)
	if refEnd != end {
		t.Fatalf("the recorded run ended at %v, the probed one at %v", refEnd, end)
	}
	ref := replayReference(log, app, end)
	if diff := ref.partition(end); diff != "" {
		t.Fatal(diff)
	}
	if diff := sameAsReference(f, ref); diff != "" {
		t.Fatal(diff)
	}
}

// TestProbeFSMNeedsWatch pins that a probe with no watched thread
// refuses to report: its FSM never saw a queue input.
func TestProbeFSMNeedsWatch(t *testing.T) {
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	pr := AttachProbe(k)
	keystroke(k)
	end := k.Run(keystrokeEnd)
	defer func() {
		if recover() == nil {
			t.Fatal("FSM with no watched thread returned instead of panicking")
		}
	}()
	pr.FSM(end)
}

// Hand-built hook records; threads have ids from 1, and a probe in the
// cases below watches thread 1.
func busy(ms float64, b bool) hookRecord { return busyAt(b, at(ms)) }
func post(thread int, ms float64, qlen int) hookRecord {
	return hookRecord{hook: onPost, at: at(ms), thread: thread, n: qlen}
}
func msg(thread int, ms float64, qlen int) hookRecord {
	return hookRecord{hook: onMsgAPI, at: at(ms), thread: thread, n: qlen}
}
func syncIO(ms float64, n int) hookRecord { return hookRecord{hook: onSyncIO, at: at(ms), n: n} }

// probeReplay fires log through a fresh probe's hooks, watching the
// thread with id watch, and returns its FSM finished at end; threads[i]
// is the thread with id i+1.
func probeReplay(threads []*kernel.Thread, log []hookRecord, watch int, end simtime.Time) *FSM {
	p := &Probe{}
	p.Watch(threads[watch-1])
	feed(p.hooks(), log, threads)
	return p.FSM(end)
}

// TestDriveFSMMatchesOracle feeds hook streams, in firing order, through
// a probe's hooks and holds its online FSM to the reference replay of
// the same stream: equal think, wait and transition count, and a
// reference log that partitions the run. The probe keeps only the
// watched thread's queue input and applies records as they fire, so
// within an instant the last queue record fired sets the length.
func TestDriveFSMMatchesOracle(t *testing.T) {
	keyLog, keyApp, keyEnd := recordKeystroke(t)
	threads := idleThreads(t, max(keyApp, 3))
	cases := []struct {
		name  string
		log   []hookRecord
		watch int
		end   simtime.Time
	}{
		{"keystroke trace", keyLog, keyApp, keyEnd},
		{"empty logs", nil, 1, at(10)},
		{"busy only", []hookRecord{busy(1, true), busy(4, false)}, 1, at(10)},
		{"sync I/O only", []hookRecord{syncIO(2, 1), syncIO(7, 0)}, 1, at(10)},
		{"other threads only", []hookRecord{post(2, 1, 1), post(3, 2, 1), msg(2, 3, 0), msg(3, 4, 0)}, 1, at(10)},
		{"all four kinds at one instant", []hookRecord{
			busy(5, true), post(1, 5, 1), syncIO(5, 1), busy(5, false), msg(1, 5, 0), syncIO(5, 0),
			busy(8, true), syncIO(9, 1),
		}, 1, at(10)},
		{"sync I/O after busy at the same instant", []hookRecord{
			busy(2, true), busy(6, false), syncIO(6, 1), syncIO(6, 0),
		}, 1, at(10)},
		// At t=3 the watched thread's posts and messages interleave
		// with another thread's; post(1, 3, 0) fires last and empties
		// the queue.
		{"post/message seq collisions", []hookRecord{
			post(2, 1, 1), msg(1, 3, 1), msg(2, 3, 0), post(1, 3, 2), post(1, 3, 3), msg(1, 3, 4),
			post(1, 3, 0), msg(1, 5, 2),
		}, 1, at(10)},
		// At t=2 the message fires after the post, so its length wins.
		{"message last on the higher seq", []hookRecord{
			msg(2, 1, 0), post(1, 2, 0), msg(1, 2, 3), post(1, 4, 1), msg(1, 4, 0),
		}, 1, at(10)},
		{"interleaved threads", []hookRecord{
			msg(2, 0, 0), busy(1, true), post(1, 1, 1), post(3, 1, 1), busy(2, false), msg(1, 2, 0),
			msg(3, 2, 1), post(2, 3, 1), syncIO(3, 1), msg(2, 4, 1), post(1, 4, 1), post(3, 4, 2),
			syncIO(5, 0), busy(6, true), msg(1, 6, 0), post(2, 6, 2), busy(7, false), msg(3, 9, 0),
		}, 1, at(10)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := replayReference(c.log, c.watch, c.end)
			if diff := ref.partition(c.end); diff != "" {
				t.Fatal(diff)
			}
			if diff := sameAsReference(probeReplay(threads, c.log, c.watch, c.end), ref); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// streamFromBytes builds a firing-order hook stream from data, one
// record per byte: bits 0-1 pick the hook, bits 2-3 advance the one
// clock by 0-3 µs (so same-instant flaps are common), bit 4 picks
// thread 1 or 2 for posts and messages, and bits 5-7 give the value.
func streamFromBytes(data []byte) ([]hookRecord, simtime.Time) {
	var now simtime.Time
	log := make([]hookRecord, 0, len(data))
	for _, c := range data {
		now += simtime.Time(c>>2&3) * simtime.Time(simtime.Microsecond)
		thread, v := int(c>>4&1)+1, int(c>>5)
		switch c & 3 {
		case 0:
			log = append(log, busyAt(v&1 == 1, now))
		case 1:
			log = append(log, hookRecord{hook: onPost, at: now, thread: thread, n: v & 3})
		case 2:
			log = append(log, hookRecord{hook: onMsgAPI, at: now, thread: thread, n: v & 3})
		case 3:
			log = append(log, hookRecord{hook: onSyncIO, at: now, n: v & 3})
		}
	}
	return log, now + simtime.Time(simtime.Microsecond)
}

// FuzzFSMCount holds the probe's online FSM, with its transition count,
// to the reference log FSM on random firing-order hook streams: equal
// think, wait and count, and a reference log that alternates and
// accrues exactly the totals.
func FuzzFSMCount(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 0x01, 0x02, 0x03, 0x00, 0x21, 0x22, 0x23})
	f.Add([]byte{0x25, 0x41, 0x12, 0x61, 0x06, 0x33, 0x4a, 0x19, 0x02, 0x7f, 0xe4, 0x0b})
	threads := idleThreads(f, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		log, end := streamFromBytes(data)
		ref := replayReference(log, 1, end)
		if diff := ref.partition(end); diff != "" {
			t.Fatal(diff)
		}
		if diff := sameAsReference(probeReplay(threads, log, 1, end), ref); diff != "" {
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
