package kernel

import (
	"strings"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/machine"
	"latlab/internal/simtime"
)

func TestMsgKindStrings(t *testing.T) {
	cases := map[MsgKind]string{
		WMNull: "WM_NULL", WMKeyDown: "WM_KEYDOWN", WMChar: "WM_CHAR",
		WMMouseDown: "WM_LBUTTONDOWN", WMMouseUp: "WM_LBUTTONUP",
		WMPaint: "WM_PAINT", WMTimer: "WM_TIMER", WMQueueSync: "WM_QUEUESYNC",
		WMCommand: "WM_COMMAND", WMIdleWork: "WM_IDLEWORK",
		WMSysCommand: "WM_SYSCOMMAND", WMQuit: "WM_QUIT",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if MsgKind(99).String() != "WM_UNKNOWN" {
		t.Fatalf("unknown kind string wrong")
	}
}

func TestMsgKindUserInput(t *testing.T) {
	user := []MsgKind{WMKeyDown, WMChar, WMMouseDown, WMMouseUp, WMCommand, WMSysCommand}
	notUser := []MsgKind{WMNull, WMPaint, WMTimer, WMQueueSync, WMIdleWork, WMQuit}
	for _, k := range user {
		if !k.UserInput() {
			t.Fatalf("%v should be user input", k)
		}
	}
	for _, k := range notUser {
		if k.UserInput() {
			t.Fatalf("%v should not be user input", k)
		}
	}
}

func TestThreadStateStrings(t *testing.T) {
	states := []ThreadState{StateNew, StateReady, StateRunning,
		StateBlockedMsg, StateBlockedIO, StateSleeping, StateDone}
	want := []string{"new", "ready", "running", "blocked-msg", "blocked-io", "sleeping", "done"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Fatalf("state %d = %q, want %q", i, s.String(), want[i])
		}
	}
	if !strings.Contains(ThreadState(99).String(), "99") {
		t.Fatalf("unknown state should include value")
	}
}

func TestThreadAccessors(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	th := k.Spawn("acc", ProcID(7), 9, func(tc *TC) {
		tc.GetMessage()
	})
	if th.ID() != 1 || th.Name() != "acc" || th.Proc() != 7 || th.Priority() != 9 {
		t.Fatalf("accessors wrong: %d %q %d %d", th.ID(), th.Name(), th.Proc(), th.Priority())
	}
	k.Run(simtime.Time(simtime.Millisecond))
	if th.State() != StateBlockedMsg {
		t.Fatalf("state = %v", th.State())
	}
	if th.QueueLen() != 0 {
		t.Fatalf("queue len = %d", th.QueueLen())
	}
}

func TestTCCyclesAndNow(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var cyclesAt3ms int64
	var nowAt3ms simtime.Time
	k.Spawn("t", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 3))
		cyclesAt3ms = tc.Cycles()
		nowAt3ms = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	if cyclesAt3ms != 300_000 {
		t.Fatalf("Cycles = %d, want 300000 at 3ms", cyclesAt3ms)
	}
	if nowAt3ms != simtime.Time(3*simtime.Millisecond) {
		t.Fatalf("Now = %v", nowAt3ms)
	}
}

func TestTCDomainCrossAndModeSwitch(t *testing.T) {
	cfg := quietConfig()
	cfg.ModeSwitchCycles = 200
	k := New(cfg)
	defer k.Shutdown()
	var afterCross, afterMode simtime.Time
	k.Spawn("t", 1, 8, func(tc *TC) {
		tc.DomainCross()
		afterCross = tc.Now()
		tc.ModeSwitch()
		afterMode = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	crossDur := simtime.CPUFrequency.DurationOf(k.CPU().Penalties.DomainCrossing)
	if afterCross != simtime.Time(crossDur) {
		t.Fatalf("cross end = %v, want %v", afterCross, crossDur)
	}
	if afterMode.Sub(afterCross) != 2*simtime.Microsecond {
		t.Fatalf("mode switch = %v, want 2µs (200 cycles)", afterMode.Sub(afterCross))
	}
	if k.CPU().Count(cpu.DomainCrossings) != 1 {
		t.Fatalf("crossings = %d", k.CPU().Count(cpu.DomainCrossings))
	}
}

func TestTCPostAndHasMessage(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var got Msg
	var hadBefore, hadAfter bool
	receiver := k.Spawn("rx", 1, 8, func(tc *TC) {
		got = tc.GetMessage()
	})
	k.Spawn("tx", 2, 8, func(tc *TC) {
		hadBefore = tc.HasMessage()
		tc.Compute(burn("w", 2))
		tc.Forward(receiver, Msg{Kind: WMCommand, Param: 77})
		// Posting to self makes HasMessage true without consuming.
		tc.Forward(tc.Thread(), Msg{Kind: WMNull})
		hadAfter = tc.HasMessage()
	})
	k.Run(simtime.Time(simtime.Second))
	if got.Kind != WMCommand || got.Param != 77 {
		t.Fatalf("message = %+v", got)
	}
	if hadBefore || !hadAfter {
		t.Fatalf("HasMessage before/after = %v/%v", hadBefore, hadAfter)
	}
}

func TestTCForwardPreservesEnqueued(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var final Msg
	sink := k.Spawn("sink", 1, 8, func(tc *TC) {
		final = tc.GetMessage()
	})
	router := k.Spawn("router", 2, 12, func(tc *TC) {
		m := tc.GetMessage()
		tc.Compute(burn("routing", 5))
		tc.Forward(sink, m)
	})
	k.At(simtime.Time(10*simtime.Millisecond), func(simtime.Time) {
		k.KeyboardInterrupt(router, WMKeyDown, 5)
	})
	k.Run(simtime.Time(simtime.Second))
	if final.Enqueued != simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("forwarded Enqueued = %v, want the original interrupt time", final.Enqueued)
	}
	if final.Param != 5 {
		t.Fatalf("payload lost: %+v", final)
	}
}

func TestSetTimerPostsTickAligned(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var got Msg
	var at simtime.Time
	k.Spawn("t", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 3))
		tc.SetTimer(simtime.FromMillis(2), WMTimer, 9) // 3+2 → next tick at 10ms
		got = tc.GetMessage()
		at = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	if got.Kind != WMTimer || got.Param != 9 {
		t.Fatalf("timer message = %+v", got)
	}
	if at != simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("timer fired at %v, want 10ms", at)
	}
}

func TestSetTimerToExitedThreadDropped(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	k.Spawn("t", 1, 8, func(tc *TC) {
		tc.SetTimer(simtime.FromMillis(50), WMTimer, 0)
		// Exit before the timer fires.
	})
	k.Run(simtime.Time(200 * simtime.Millisecond)) // must not panic
}

func TestMouseInterruptDelivers(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var got Msg
	app := k.Spawn("app", 1, 8, func(tc *TC) { got = tc.GetMessage() })
	k.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) {
		k.MouseInterrupt(app, WMMouseDown, 3)
	})
	k.Run(simtime.Time(simtime.Second))
	if got.Kind != WMMouseDown || got.Param != 3 {
		t.Fatalf("mouse message = %+v", got)
	}
	if got.Enqueued != simtime.Time(5*simtime.Millisecond) {
		t.Fatalf("enqueued = %v", got.Enqueued)
	}
}

func TestKernelAccessors(t *testing.T) {
	cfg := quietConfig()
	k := New(cfg)
	defer k.Shutdown()
	if k.Counters() == nil || k.Disk() == nil || k.Cache() == nil || k.CPU() == nil {
		t.Fatalf("nil accessor")
	}
	if k.Config().DomainCrossingCycles != cfg.DomainCrossingCycles {
		t.Fatalf("config accessor wrong")
	}
	end := k.RunFor(95 * simtime.Millisecond)
	if end != simtime.Time(95*simtime.Millisecond) || k.Now() != end {
		t.Fatalf("RunFor end = %v", end)
	}
	if k.ClockTicks() != 9 {
		t.Fatalf("clock ticks = %d, want 9 over 95ms", k.ClockTicks())
	}
}

func TestAtPastPanics(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	k.RunFor(10 * simtime.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatalf("At in the past should panic")
		}
	}()
	k.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) {})
}

func TestAfterNegativePanics(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatalf("negative After should panic")
		}
	}()
	k.After(-1, func(simtime.Time) {})
}

func TestDeliverNilPanics(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatalf("PostMessage to nil should panic")
		}
	}()
	k.PostMessage(nil, WMChar, 0)
}

func TestSleepWhileMessagePendingStillSleeps(t *testing.T) {
	// Sleep must not be interrupted by message arrival; the message is
	// consumed afterwards.
	k := New(quietConfig())
	defer k.Shutdown()
	var woke simtime.Time
	var got Msg
	app := k.Spawn("app", 1, 8, func(tc *TC) {
		tc.Sleep(simtime.FromMillis(40))
		woke = tc.Now()
		got, _ = tc.PeekMessage()
	})
	k.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) {
		k.PostMessage(app, WMChar, 1)
	})
	k.Run(simtime.Time(simtime.Second))
	if woke != simtime.Time(40*simtime.Millisecond) {
		t.Fatalf("woke at %v, want 40ms (sleep not cut short)", woke)
	}
	if got.Kind != WMChar {
		t.Fatalf("queued message lost: %+v", got)
	}
}

func TestNonIdleBusyWhileRunning(t *testing.T) {
	// NonIdleBusyTime must be queryable mid-busy (open interval).
	k := New(quietConfig())
	defer k.Shutdown()
	k.Spawn("w", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 50))
	})
	k.RunFor(20 * simtime.Millisecond)
	if got := k.NonIdleBusyTime(); got != 20*simtime.Millisecond {
		t.Fatalf("mid-run busy = %v, want 20ms", got)
	}
}

// The clock comes from the machine profile alone: a Pentium down-clocked
// to 20 MHz runs every cycle count five times slower.
func TestCPUFrequencyOverride(t *testing.T) {
	cfg := quietConfig()
	cfg.Machine = machine.Pentium100()
	cfg.Machine.ClockHz = 20_000_000 // 20 MHz
	k := New(cfg)
	defer k.Shutdown()
	var done simtime.Time
	k.Spawn("w", 1, 8, func(tc *TC) {
		tc.Compute(cpu.Segment{Name: "w", BaseCycles: 100_000})
		done = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	// 100k cycles at 20 MHz = 5 ms (vs 1 ms at the default 100 MHz).
	if done != simtime.Time(5*simtime.Millisecond) {
		t.Fatalf("done at %v, want 5ms at 20MHz", done)
	}
}

func TestCPUFrequencyInvalidPanics(t *testing.T) {
	cfg := quietConfig()
	cfg.Machine = machine.Pentium100()
	cfg.Machine.ClockHz = 3 // no integral ns period
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid frequency should panic at boot")
		}
	}()
	New(cfg)
}

func TestReadFileAsync(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	f := k.Cache().AddFile("bg", 150_000, 64)
	syncPeak := 0
	k.SetHooks(Hooks{OnSyncIO: func(n int, now simtime.Time) {
		if n > syncPeak {
			syncPeak = n
		}
	}})
	var done Msg
	var issued, completed simtime.Time
	k.Spawn("app", 1, 8, func(tc *TC) {
		tc.ReadFileAsync(f, 0, 16, WMIdleWork, 42)
		issued = tc.Now()
		done = tc.GetMessage()
		completed = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	if done.Kind != WMIdleWork || done.Param != 42 {
		t.Fatalf("completion message = %+v", done)
	}
	if completed.Sub(issued) < simtime.FromMillis(2) {
		t.Fatalf("async read completed too fast: %v", completed.Sub(issued))
	}
	if syncPeak != 0 {
		t.Fatalf("async I/O must not count as synchronous (peak %d)", syncPeak)
	}
}

func TestReadFileAsyncWarmCompletesInline(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	f := k.Cache().AddFile("bg", 150_000, 64)
	var gap simtime.Duration
	k.Spawn("app", 1, 8, func(tc *TC) {
		tc.ReadFile(f, 0, 16) // warm the cache synchronously
		start := tc.Now()
		tc.ReadFileAsync(f, 0, 16, WMIdleWork, 0)
		tc.GetMessage()
		gap = tc.Now().Sub(start)
	})
	k.Run(simtime.Time(simtime.Second))
	if gap != 0 {
		t.Fatalf("warm async read should complete immediately, took %v", gap)
	}
}
