package kernel

import (
	"testing"

	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// attach boots a recorder on k reading the kernel clock.
func attach(k *Kernel) *spans.Recorder {
	rec := spans.NewRecorder(func() simtime.Time { return k.Now() })
	rec.Grow(1 << 12)
	k.SetRecorder(rec)
	return rec
}

// TestSpansEpisodeFromKeystroke drives one keystroke through a handler
// thread and checks the episode span carries the full decomposition:
// queue wait from the hardware interrupt, the handler's execution, and
// closure at the next GetMessage call.
func TestSpansEpisodeFromKeystroke(t *testing.T) {
	cfg := quietConfig()
	k := New(cfg)
	defer k.Shutdown()
	rec := attach(k)

	app := k.Spawn("app", 1, 8, func(tc *TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == WMQuit {
				return
			}
			tc.Compute(burn("handle", 5))
		}
	})
	k.At(simtime.Time(20*simtime.Millisecond), func(now simtime.Time) {
		k.KeyboardInterrupt(app, WMKeyDown, 'a')
	})
	k.At(simtime.Time(100*simtime.Millisecond), func(now simtime.Time) {
		k.PostMessage(app, WMQuit, 0)
	})
	k.Run(simtime.Time(simtime.Second))

	eps, _ := spans.Episodes(rec.Spans())
	if len(eps) != 1 {
		t.Fatalf("got %d episodes, want 1: %+v", len(eps), eps)
	}
	ep := eps[0]
	if ep.Label != "WM_KEYDOWN" {
		t.Fatalf("episode label = %q", ep.Label)
	}
	if ep.Start != simtime.Time(20*simtime.Millisecond) {
		t.Fatalf("episode starts at %v, want the interrupt instant 20ms", ep.Start)
	}
	// End = next GetMessage = interrupt + handler cost + 5ms compute.
	if ep.Duration() < 5*simtime.Millisecond || ep.Duration() > 6*simtime.Millisecond {
		t.Fatalf("episode duration = %v, want ~5ms", ep.Duration())
	}
	if ep.A.Dur[spans.CauseQueueWait] == 0 {
		t.Fatal("episode lost its queue-wait component")
	}
	if ep.A.Cycles[spans.CauseBase] < msOfCycles(5) {
		t.Fatalf("handler base cycles = %d, want >= %d", ep.A.Cycles[spans.CauseBase], msOfCycles(5))
	}
}

// TestSpansInterruptAndFlushAttribution checks that interrupt-handler
// work is attributed to the interrupt cause and that a process switch
// records a TLB flush with the discarded-entry count. The two threads'
// 30 ms segments outlast the 20 ms Quantum, so the equal-priority
// threads of different processes alternate at every quantum expiry.
func TestSpansInterruptAndFlushAttribution(t *testing.T) {
	cfg := DefaultConfig() // real context switches, flushes, clock ticks
	k := New(cfg)
	defer k.Shutdown()
	rec := attach(k)

	seg := burn("w", 30)
	seg.CodePages = []uint64{1, 2, 3}
	seg.DataPages = []uint64{10, 11}
	k.Spawn("a", 1, 8, func(tc *TC) {
		for i := 0; i < 4; i++ {
			tc.Compute(seg)
		}
	})
	segB := burn("w2", 30)
	segB.CodePages = []uint64{7, 8}
	k.Spawn("b", 2, 8, func(tc *TC) {
		for i := 0; i < 4; i++ {
			tc.Compute(segB)
		}
	})
	k.Run(simtime.Time(simtime.Second))

	a := spans.Attribution(rec.Spans())
	if a.Cycles[spans.CauseInterrupt] == 0 {
		t.Fatal("no cycles attributed to interrupts despite clock ticks")
	}
	if a.Cycles[spans.CauseCtxSwitch] == 0 {
		t.Fatal("no cycles attributed to context switches")
	}
	if a.Count[spans.CauseTLBFlush] == 0 {
		t.Fatal("no TLB-flush spans despite cross-process switches")
	}
	if a.Count[spans.CauseTLBMiss] == 0 {
		t.Fatal("no TLB-miss spans despite flushed working sets")
	}
}

// TestSpansSyscallContainsDiskIO runs a cold synchronous read and checks
// the syscall span contains cache-miss and disk decomposition spans.
func TestSpansSyscallContainsDiskIO(t *testing.T) {
	cfg := quietConfig()
	k := New(cfg)
	defer k.Shutdown()
	rec := attach(k)
	f := k.Cache().AddFile("doc", 1000, 64)

	k.Spawn("reader", 1, 8, func(tc *TC) {
		tc.ReadFile(f, 0, 8)
	})
	k.Run(simtime.Time(simtime.Second))

	all := rec.Spans()
	var syscallIdx = -1
	for i, s := range all {
		if s.Cause == spans.CauseSyscall {
			syscallIdx = i
			break
		}
	}
	if syscallIdx < 0 {
		t.Fatal("no syscall span recorded")
	}
	if all[syscallIdx].Duration() <= 0 {
		t.Fatalf("cold read syscall has no duration: %+v", all[syscallIdx])
	}
	under := func(cause spans.Cause) bool {
		for _, s := range all {
			if s.Cause != cause {
				continue
			}
			for p := s.Parent; p >= 0; p = all[p].Parent {
				if int(p) == syscallIdx {
					return true
				}
			}
		}
		return false
	}
	for _, c := range []spans.Cause{spans.CauseFSMiss, spans.CauseDiskIO, spans.CauseDiskRot, spans.CauseDiskXfer} {
		if !under(c) {
			t.Fatalf("no %v span nested under the syscall", c)
		}
	}
}

// TestSpansRecordingDoesNotPerturb runs the same scenario traced and
// untraced and requires identical final simulated time and counters.
func TestSpansRecordingDoesNotPerturb(t *testing.T) {
	run := func(traced bool) (simtime.Time, int64) {
		k := New(DefaultConfig())
		defer k.Shutdown()
		if traced {
			attach(k)
		}
		f := k.Cache().AddFile("doc", 2000, 64)
		app := k.Spawn("app", 1, 8, func(tc *TC) {
			for {
				m := tc.GetMessage()
				if m.Kind == WMQuit {
					return
				}
				tc.Compute(burn("handle", 2))
				tc.ReadFile(f, 0, 4)
			}
		})
		for i := 0; i < 5; i++ {
			at := simtime.Time(int64(i+1) * int64(30*simtime.Millisecond))
			k.At(at, func(now simtime.Time) { k.KeyboardInterrupt(app, WMKeyDown, 'x') })
		}
		k.At(simtime.Time(400*simtime.Millisecond), func(now simtime.Time) {
			k.PostMessage(app, WMQuit, 0)
		})
		end := k.Run(simtime.Time(500 * simtime.Millisecond))
		return end, k.CPU().Count(0) // Instructions
	}
	t1, c1 := run(false)
	t2, c2 := run(true)
	if t1 != t2 || c1 != c2 {
		t.Fatalf("tracing perturbed the run: untraced (%v, %d) vs traced (%v, %d)", t1, c1, t2, c2)
	}
}
