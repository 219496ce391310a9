package kernel

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"latlab/internal/cpu"
	"latlab/internal/machine"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// msOfCycles converts a millisecond count to cycles at 100 MHz.
func msOfCycles(ms int64) int64 { return ms * 100_000 }

// burn returns a segment costing exactly ms milliseconds warm.
func burn(name string, ms int64) cpu.Segment {
	return cpu.Segment{Name: name, BaseCycles: msOfCycles(ms), Instructions: msOfCycles(ms) / 2}
}

// quietConfig disables cost sources that complicate exact-time tests.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.ContextSwitch = cpu.Segment{}
	cfg.ClockInterrupt = cpu.Segment{}
	return cfg
}

func TestSingleThreadComputes(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var done simtime.Time
	k.Spawn("worker", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 5))
		done = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	if done != simtime.Time(5*simtime.Millisecond) {
		t.Fatalf("compute finished at %v, want 5ms", done)
	}
}

func TestSequentialComputesAccumulate(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var marks []simtime.Time
	k.Spawn("worker", 1, 8, func(tc *TC) {
		for i := 0; i < 3; i++ {
			tc.Compute(burn("w", 2))
			marks = append(marks, tc.Now())
		}
	})
	k.Run(simtime.Time(simtime.Second))
	want := []simtime.Time{
		simtime.Time(2 * simtime.Millisecond),
		simtime.Time(4 * simtime.Millisecond),
		simtime.Time(6 * simtime.Millisecond),
	}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("mark %d = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestGetMessageBlocksUntilPost(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var got Msg
	var at simtime.Time
	app := k.Spawn("app", 1, 8, func(tc *TC) {
		got = tc.GetMessage()
		at = tc.Now()
	})
	k.At(simtime.Time(30*simtime.Millisecond), func(now simtime.Time) {
		k.PostMessage(app, WMChar, 'x')
	})
	k.Run(simtime.Time(simtime.Second))
	if got.Kind != WMChar || got.Param != 'x' {
		t.Fatalf("message = %+v", got)
	}
	if got.Enqueued != simtime.Time(30*simtime.Millisecond) {
		t.Fatalf("enqueued = %v, want 30ms", got.Enqueued)
	}
	if at != simtime.Time(30*simtime.Millisecond) {
		t.Fatalf("woke at %v, want 30ms", at)
	}
	if app.State() != StateDone {
		t.Fatalf("app state = %v", app.State())
	}
}

func TestPriorityPreemption(t *testing.T) {
	// A high-priority thread woken mid-way through a low-priority compute
	// must finish first, and the low thread's total time stretches by the
	// high thread's compute.
	k := New(quietConfig())
	defer k.Shutdown()
	var lowDone, highDone simtime.Time
	k.Spawn("low", 1, 4, func(tc *TC) {
		tc.Compute(burn("low", 20))
		lowDone = tc.Now()
	})
	high := k.Spawn("high", 2, 8, func(tc *TC) {
		tc.GetMessage()
		tc.Compute(burn("high", 5))
		highDone = tc.Now()
	})
	k.At(simtime.Time(10*simtime.Millisecond), func(now simtime.Time) {
		k.PostMessage(high, WMCommand, 0)
	})
	k.Run(simtime.Time(simtime.Second))
	if highDone != simtime.Time(15*simtime.Millisecond) {
		t.Fatalf("high done at %v, want 15ms", highDone)
	}
	if lowDone != simtime.Time(25*simtime.Millisecond) {
		t.Fatalf("low done at %v, want 25ms (10 run + 5 preempted + 10 run)", lowDone)
	}
}

func TestInterruptStealsTime(t *testing.T) {
	// A 1 ms handler raised mid-compute delays the thread by exactly 1 ms:
	// the idle-loop elongation mechanism.
	cfg := quietConfig()
	k := New(cfg)
	defer k.Shutdown()
	var done simtime.Time
	k.Spawn("worker", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 10))
		done = tc.Now()
	})
	k.At(simtime.Time(4*simtime.Millisecond), func(now simtime.Time) {
		k.RaiseInterrupt(burn("handler", 1), nil)
	})
	k.Run(simtime.Time(simtime.Second))
	if done != simtime.Time(11*simtime.Millisecond) {
		t.Fatalf("done at %v, want 11ms (10 compute + 1 stolen)", done)
	}
}

// TestCompletionTieRule pins where a chunk's completion falls among
// queued events due at the same instant, which no golden does: after an
// event scheduled before the chunk started, before one scheduled after
// it. The interrupt's 1 ms handler delays the thread only when it fires
// first.
func TestCompletionTieRule(t *testing.T) {
	const due = simtime.Time(5 * simtime.Millisecond)
	run := func(interruptFirst bool) simtime.Time {
		k := New(quietConfig())
		defer k.Shutdown()
		interrupt := func() {
			k.At(due, func(simtime.Time) { k.RaiseInterrupt(burn("handler", 1), nil) })
		}
		if interruptFirst {
			interrupt()
		}
		var done simtime.Time
		k.Spawn("worker", 1, 8, func(tc *TC) {
			tc.Compute(burn("w", 5)) // the chunk starts inside Spawn
			done = tc.Now()
		})
		if !interruptFirst {
			interrupt()
		}
		k.Run(simtime.Time(simtime.Second))
		return done
	}
	if got := run(true); got != simtime.Time(6*simtime.Millisecond) {
		t.Errorf("interrupt queued before the chunk started: thread done at %v, want 6ms (behind the handler)", got)
	}
	if got := run(false); got != due {
		t.Errorf("interrupt queued after the chunk started: thread done at %v, want 5ms (completion first)", got)
	}
}

// TestClockTieRule pins where the clock tick, kept beside the queue,
// falls among events due at the same instant, which no golden does:
// after a queued event scheduled before the tick was armed, before one
// scheduled after it, and before a chunk completion, since every chunk
// due at a tick started after that tick was armed (a tick is armed
// when the one before it is taken).
func TestClockTieRule(t *testing.T) {
	const tick = 10 * simtime.Millisecond
	k := New(quietConfig())
	var seen []int64
	record := func(simtime.Time) { seen = append(seen, k.ClockTicks()) }
	k.At(simtime.Time(2*tick), record) // before the second tick is armed, at the first
	k.At(simtime.Time(tick), record)   // after the first tick was armed, in New
	k.At(simtime.Time(15*simtime.Millisecond), func(simtime.Time) {
		k.At(simtime.Time(2*tick), record) // after the second tick was armed
	})
	k.Run(simtime.Time(25 * simtime.Millisecond))
	k.Shutdown()
	if want := []int64{1, 1, 2}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("ticks taken when the 10 ms, boot-queued 20 ms and later-queued 20 ms events fired = %v, want %v", seen, want)
	}

	cfg := quietConfig()
	cfg.ClockInterrupt = burn("clock", 1)
	k = New(cfg)
	defer k.Shutdown()
	var done simtime.Time
	k.Spawn("worker", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 10)) // its chunk is due at the first tick
		done = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	if done != simtime.Time(11*simtime.Millisecond) {
		t.Errorf("chunk due at the first tick: thread done at %v, want 11ms (behind the tick's handler)", done)
	}
}

// TestComputeChunksQueueNothing pins that a chunk's completion is armed
// beside the event queue: a run of compute chunks schedules nothing, so
// the queue's sequence counter does not move.
func TestComputeChunksQueueNothing(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	before := k.QueueSeq()
	var done simtime.Time
	k.Spawn("worker", 1, 8, func(tc *TC) {
		for i := 0; i < 8; i++ {
			tc.Compute(burn("w", 1))
		}
		done = tc.Now()
	})
	k.Run(simtime.Time(9 * simtime.Millisecond)) // before the first clock tick
	if done != simtime.Time(8*simtime.Millisecond) {
		t.Fatalf("computes finished at %v, want 8ms", done)
	}
	if after := k.QueueSeq(); after != before {
		t.Fatalf("8 compute chunks moved the queue's sequence counter from %d to %d", before, after)
	}
}

// TestStealReusesReconcileCallback pins that stealing the CPU arms the
// kernel's cached reconcile callback instead of building a closure per
// call: a steal scheduled and popped in steady state allocates nothing.
func TestStealReusesReconcileCallback(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	allocs := testing.AllocsPerRun(100, func() {
		k.steal(simtime.Microsecond)
		if _, ok := k.q.Pop(); !ok {
			t.Fatal("steal scheduled no reconcile")
		}
	})
	if allocs != 0 {
		t.Errorf("steal allocates %.1f times per call, want 0", allocs)
	}
}

// TestSleepReusesWakeCallback pins that Sleep arms the thread's one
// wake callback instead of building a closure per call: a thread that
// sleeps and wakes in steady state allocates nothing. Each 1 ms sleep
// wakes at the next clock tick, so the thread sleeps once a tick.
func TestSleepReusesWakeCallback(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	sleeps := 0
	k.SpawnLoop("sleeper", 1, 8, func(lc *LoopTC) bool {
		sleeps++
		lc.Sleep(simtime.Millisecond)
		return true
	})
	k.RunFor(100 * simtime.Millisecond) // the queue's slab reaches its peak
	before := sleeps
	allocs := testing.AllocsPerRun(20, func() { k.RunFor(100 * simtime.Millisecond) })
	if sleeps-before < 200 {
		t.Fatalf("the thread slept %d times in 2.1 s; the check is vacuous", sleeps-before)
	}
	if allocs != 0 {
		t.Errorf("100 ms of 1 ms sleeps allocates %.1f times, want 0", allocs)
	}
}

func TestQueuedInterruptsSerialize(t *testing.T) {
	cfg := quietConfig()
	k := New(cfg)
	defer k.Shutdown()
	var ends []simtime.Time
	at := func(ms int64) {
		k.At(simtime.Time(ms)*simtime.Time(simtime.Millisecond), func(now simtime.Time) {
			k.RaiseInterrupt(burn("h", 2), func(end simtime.Time) {
				ends = append(ends, end)
			})
		})
	}
	at(5)
	at(6) // arrives while the first handler still runs
	k.Run(simtime.Time(simtime.Second))
	if len(ends) != 2 {
		t.Fatalf("handler completions = %d", len(ends))
	}
	if ends[0] != simtime.Time(7*simtime.Millisecond) {
		t.Fatalf("first handler ended %v, want 7ms", ends[0])
	}
	if ends[1] != simtime.Time(9*simtime.Millisecond) {
		t.Fatalf("second handler ended %v, want 9ms (queued)", ends[1])
	}
}

func TestClockInterruptOverheadElongatesIdleLoop(t *testing.T) {
	// The central methodology check: a calibrated 1 ms loop at idle
	// priority observes clock-interrupt overhead as elongation.
	cfg := quietConfig()
	cfg.ClockInterrupt = cpu.Segment{Name: "clock", BaseCycles: 400} // 4 µs
	k := New(cfg)
	defer k.Shutdown()
	var samples []trace.IdleSample
	k.Spawn("idleloop", 1, IdlePriority, func(tc *TC) {
		for len(samples) < 50 {
			start := tc.Now()
			tc.Compute(burn("loop", 1))
			samples = append(samples, trace.IdleSample{Done: tc.Now(), Elapsed: tc.Now().Sub(start)})
		}
	})
	k.Run(simtime.Time(simtime.Second))
	elongated := 0
	for _, s := range samples {
		switch s.Elapsed {
		case simtime.Millisecond:
		case simtime.Millisecond + 4*simtime.Microsecond:
			elongated++
		default:
			t.Fatalf("unexpected elapsed %v", s.Elapsed)
		}
	}
	// One clock tick per 10 ms: 50 samples cover ~50 ms → ~5 ticks.
	if elongated < 4 || elongated > 6 {
		t.Fatalf("elongated samples = %d, want ≈5", elongated)
	}
}

func TestQuantumRoundRobin(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	q := int64(Quantum / simtime.Millisecond)
	var doneA, doneB simtime.Time
	k.Spawn("a", 1, 8, func(tc *TC) {
		tc.Compute(burn("a", 2*q))
		doneA = tc.Now()
	})
	k.Spawn("b", 2, 8, func(tc *TC) {
		tc.Compute(burn("b", 2*q))
		doneB = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	// Interleaved in quantum slices: a runs 0-q, b q-2q, a 2q-3q, b 3q-4q.
	if doneA != simtime.Time(3*Quantum) {
		t.Fatalf("a done at %v, want %v", doneA, 3*Quantum)
	}
	if doneB != simtime.Time(4*Quantum) {
		t.Fatalf("b done at %v, want %v", doneB, 4*Quantum)
	}
}

func TestContextSwitchChargedOnSwitch(t *testing.T) {
	cfg := quietConfig()
	cfg.ContextSwitch = cpu.Segment{Name: "ctxsw", BaseCycles: 1000} // 10 µs
	k := New(cfg)
	defer k.Shutdown()
	var done simtime.Time
	k.Spawn("only", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 1))
		tc.Compute(burn("w", 1)) // same thread: no second charge
		done = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	want := simtime.Time(2*simtime.Millisecond + 10*simtime.Microsecond)
	if done != want {
		t.Fatalf("done at %v, want %v (one context switch)", done, want)
	}
}

func TestProcessSwitchFlushesTLB(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	// Segments of one and a half quanta: the two threads alternate
	// mid-segment, so most of a's segments start after a switch from b.
	ms := int64(Quantum/simtime.Millisecond) * 3 / 2
	seg := cpu.Segment{Name: "ws", BaseCycles: msOfCycles(ms), CodePages: []uint64{1, 2, 3}}
	k.Spawn("a", 1, 8, func(tc *TC) {
		for i := 0; i < 4; i++ {
			tc.Compute(seg)
		}
	})
	k.Spawn("b", 2, 8, func(tc *TC) {
		for i := 0; i < 4; i++ {
			tc.Compute(cpu.Segment{Name: "other", BaseCycles: msOfCycles(ms)})
		}
	})
	k.Run(simtime.Time(simtime.Second))
	// Thread a re-runs its working set after every switch back from b:
	// multiple cold refills, not just the first.
	if got := k.CPU().Count(cpu.ITLBMisses); got < 6 {
		t.Fatalf("ITLB misses = %d, want ≥6 (flush per process switch)", got)
	}
}

func TestSleepTickAligned(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var woke simtime.Time
	k.Spawn("s", 1, 8, func(tc *TC) {
		tc.Compute(burn("w", 3))
		tc.Sleep(simtime.FromMillis(2)) // 3+2=5ms → next tick = 10ms
		woke = tc.Now()
	})
	k.Run(simtime.Time(simtime.Second))
	if woke != simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("woke at %v, want 10ms (tick-aligned)", woke)
	}
}

func TestSyncReadColdBlocksWarmReturns(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	f := k.Cache().AddFile("doc", 100_000, 64)
	var coldDur, warmDur simtime.Duration
	syncSeen := 0
	k.SetHooks(Hooks{OnSyncIO: func(n int, now simtime.Time) {
		if n > syncSeen {
			syncSeen = n
		}
	}})
	k.Spawn("reader", 1, 8, func(tc *TC) {
		s := tc.Now()
		tc.ReadFile(f, 0, 16)
		coldDur = tc.Now().Sub(s)
		s = tc.Now()
		tc.ReadFile(f, 0, 16)
		warmDur = tc.Now().Sub(s)
	})
	k.Run(simtime.Time(simtime.Second))
	if coldDur < simtime.FromMillis(2) {
		t.Fatalf("cold read = %v, want ms-scale disk latency", coldDur)
	}
	if warmDur != 0 {
		t.Fatalf("warm read = %v, want 0 (buffer-cache hit)", warmDur)
	}
	if syncSeen != 1 {
		t.Fatalf("sync I/O outstanding peak = %d, want 1", syncSeen)
	}
	if k.SyncIOOutstanding() != 0 {
		t.Fatalf("sync I/O should drain to 0")
	}
}

func TestSyncWriteBlocks(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	f := k.Cache().AddFile("out", 200_000, 64)
	var dur simtime.Duration
	k.Spawn("writer", 1, 8, func(tc *TC) {
		s := tc.Now()
		tc.WriteFile(f, 0, 32)
		dur = tc.Now().Sub(s)
	})
	k.Run(simtime.Time(simtime.Second))
	if dur < simtime.FromMillis(2) {
		t.Fatalf("write-through = %v, want ms-scale", dur)
	}
}

func TestMsgAPIHookRecords(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var recs []trace.MsgRecord
	k.SetHooks(Hooks{OnMsgAPI: func(r trace.MsgRecord) { recs = append(recs, r) }})
	app := k.Spawn("app", 1, 8, func(tc *TC) {
		if _, ok := tc.PeekMessage(); ok {
			panic("queue should be empty")
		}
		m := tc.GetMessage()
		_ = m
	})
	k.At(simtime.Time(20*simtime.Millisecond), func(now simtime.Time) {
		k.PostMessage(app, WMChar, 'a')
	})
	k.Run(simtime.Time(simtime.Second))
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3 (peek + get-block + get-return)", len(recs))
	}
	peek, block, get := recs[0], recs[1], recs[2]
	if peek.API != trace.PeekMessage || peek.Received {
		t.Fatalf("peek record wrong: %+v", peek)
	}
	if block.API != trace.GetMessage || block.Received || block.Call != 0 {
		t.Fatalf("block record wrong: %+v", block)
	}
	if get.API != trace.GetMessage || !get.Received || get.Kind != int(WMChar) {
		t.Fatalf("get record wrong: %+v", get)
	}
	if get.Call != 0 {
		t.Fatalf("get call time = %v, want 0 (blocked since start)", get.Call)
	}
	if get.Return != simtime.Time(20*simtime.Millisecond) {
		t.Fatalf("get return = %v, want 20ms", get.Return)
	}
	if get.Enqueued != simtime.Time(20*simtime.Millisecond) {
		t.Fatalf("enqueued = %v", get.Enqueued)
	}
}

func TestKeyboardInterruptDeliversWithHandlerCost(t *testing.T) {
	cfg := quietConfig()
	cfg.KeyboardInterrupt = burn("kbd", 1) // 1 ms handler for visibility
	k := New(cfg)
	defer k.Shutdown()
	var got Msg
	app := k.Spawn("app", 1, 8, func(tc *TC) { got = tc.GetMessage() })
	k.At(simtime.Time(5*simtime.Millisecond), func(now simtime.Time) {
		k.KeyboardInterrupt(app, WMKeyDown, 42)
	})
	k.Run(simtime.Time(simtime.Second))
	if got.Kind != WMKeyDown || got.Param != 42 {
		t.Fatalf("message = %+v", got)
	}
	// Enqueued is stamped at interrupt raise, so measured latency covers
	// handler time — the Fig. 1 point.
	if got.Enqueued != simtime.Time(5*simtime.Millisecond) {
		t.Fatalf("enqueued = %v, want 5ms (interrupt time)", got.Enqueued)
	}
}

func TestNonIdleBusyTimeGroundTruth(t *testing.T) {
	cfg := quietConfig()
	k := New(cfg)
	defer k.Shutdown()
	k.Spawn("idle", 1, IdlePriority, func(tc *TC) {
		for i := 0; i < 1000; i++ {
			tc.Compute(burn("idleloop", 1))
		}
	})
	app := k.Spawn("app", 2, 8, func(tc *TC) {
		tc.GetMessage()
		tc.Compute(burn("work", 7))
	})
	k.At(simtime.Time(20*simtime.Millisecond), func(now simtime.Time) {
		k.PostMessage(app, WMChar, 0)
	})
	k.Run(simtime.Time(100 * simtime.Millisecond))
	busy := k.NonIdleBusyTime()
	if busy != 7*simtime.Millisecond {
		t.Fatalf("ground-truth busy = %v, want 7ms (idle-class excluded)", busy)
	}
}

func TestBusyHookTransitions(t *testing.T) {
	cfg := quietConfig()
	k := New(cfg)
	defer k.Shutdown()
	type tr struct {
		busy bool
		at   simtime.Time
	}
	var trs []tr
	k.SetHooks(Hooks{OnBusy: func(b bool, now simtime.Time) { trs = append(trs, tr{b, now}) }})
	app := k.Spawn("app", 1, 8, func(tc *TC) {
		tc.GetMessage()
		tc.Compute(burn("work", 3))
	})
	k.At(simtime.Time(10*simtime.Millisecond), func(now simtime.Time) {
		k.PostMessage(app, WMChar, 0)
	})
	k.Run(simtime.Time(50 * simtime.Millisecond))
	if len(trs) < 2 {
		t.Fatalf("transitions = %v", trs)
	}
	first, last := trs[0], trs[len(trs)-1]
	if !first.busy || first.at != simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("busy start = %+v, want busy@10ms", first)
	}
	if last.busy || last.at != simtime.Time(13*simtime.Millisecond) {
		t.Fatalf("busy end = %+v, want idle@13ms", last)
	}
}

func TestPostToDeadThreadDropped(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	app := k.Spawn("app", 1, 8, func(tc *TC) {})
	k.Run(simtime.Time(simtime.Millisecond))
	if app.State() != StateDone {
		t.Fatalf("app should have exited")
	}
	k.PostMessage(app, WMChar, 0) // must not panic or wake
	k.Run(simtime.Time(2 * simtime.Millisecond))
	if app.QueueLen() != 0 {
		t.Fatalf("dead thread accumulated messages")
	}
}

func TestDeterministicRuns(t *testing.T) {
	scenario := func() (simtime.Time, int64) {
		cfg := DefaultConfig() // full costs: clock, ctxsw, flushes
		k := New(cfg)
		defer k.Shutdown()
		f := k.Cache().AddFile("doc", 300_000, 128)
		var last simtime.Time
		app := k.Spawn("app", 1, 8, func(tc *TC) {
			for {
				m := tc.GetMessage()
				if m.Kind == WMQuit {
					return
				}
				tc.Compute(cpu.Segment{Name: "h", BaseCycles: 50_000,
					CodePages: []uint64{1, 2, 3}, DataPages: []uint64{9}})
				tc.ReadFile(f, int64(m.Param)%100, 4)
				last = tc.Now()
			}
		})
		k.Spawn("idle", 2, IdlePriority, func(tc *TC) {
			for i := 0; i < 100_000; i++ {
				tc.Compute(burn("loop", 1))
			}
		})
		for i := int64(0); i < 10; i++ {
			i := i
			k.At(simtime.Time(i*37)*simtime.Time(simtime.Millisecond)+1, func(now simtime.Time) {
				k.KeyboardInterrupt(app, WMChar, i*13)
			})
		}
		k.At(simtime.Time(500*simtime.Millisecond), func(now simtime.Time) {
			k.PostMessage(app, WMQuit, 0)
		})
		k.Run(simtime.Time(simtime.Second))
		return last, k.CPU().Count(cpu.ITLBMisses)
	}
	t1, m1 := scenario()
	t2, m2 := scenario()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, m1, t2, m2)
	}
	if t1 == 0 {
		t.Fatalf("scenario did no work")
	}
}

// TestShutdownTerminatesThreads pins the kill path: Shutdown ends every
// live thread, wherever its body is parked (a blocking primitive, a
// compute, inside a lent loop, or not started yet), and each thread's
// goroutine exits.
func TestShutdownTerminatesThreads(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(quietConfig())
	k.Spawn("blocked", 1, 8, func(tc *TC) { tc.GetMessage() })
	k.Spawn("computing", 2, 8, func(tc *TC) {
		for {
			tc.Compute(burn("w", 1))
		}
	})
	k.Spawn("lending", 3, 8, func(tc *TC) {
		tc.Loop(func(lc *LoopTC) bool {
			lc.Compute(burn("w", 1))
			return true
		})
	})
	// Below idle class nothing ever runs, so this body never starts.
	k.Spawn("unstarted", 4, IdlePriority, func(tc *TC) {})
	k.Run(simtime.Time(5 * simtime.Millisecond))
	k.Shutdown()
	k.Shutdown() // idempotent
	for _, th := range k.Threads() {
		if th.State() != StateDone {
			t.Fatalf("thread %s is %v after Shutdown, want done", th.Name(), th.State())
		}
	}
	waitGoroutines(t, base)
}

func TestSpawnValidation(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatalf("negative priority should panic")
		}
	}()
	k.Spawn("bad", 1, -1, func(tc *TC) {})
}

func TestNextTick(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	ms := func(x int64) simtime.Time { return simtime.Time(x) * simtime.Time(simtime.Millisecond) }
	if got := k.NextTick(ms(0)); got != 0 {
		t.Fatalf("NextTick(0) = %v", got)
	}
	if got := k.NextTick(ms(10)); got != ms(10) {
		t.Fatalf("NextTick(10ms) = %v", got)
	}
	if got := k.NextTick(ms(10) + 1); got != ms(20) {
		t.Fatalf("NextTick(10ms+1) = %v", got)
	}
}

func TestPeekMessageConsumes(t *testing.T) {
	k := New(quietConfig())
	defer k.Shutdown()
	var first, second Msg
	var okFirst, okSecond bool
	app := k.Spawn("app", 1, 8, func(tc *TC) {
		tc.Sleep(simtime.FromMillis(15))
		first, okFirst = tc.PeekMessage()
		second, okSecond = tc.PeekMessage()
	})
	k.At(simtime.Time(5*simtime.Millisecond), func(now simtime.Time) {
		k.PostMessage(app, WMChar, 1)
	})
	k.Run(simtime.Time(simtime.Second))
	if !okFirst || first.Param != 1 {
		t.Fatalf("first peek = %+v ok=%v", first, okFirst)
	}
	if okSecond {
		t.Fatalf("second peek should find empty queue, got %+v", second)
	}
}

// TestBusyConservationProperty: with context-switch and interrupt costs
// zeroed, the kernel's non-idle busy time must equal exactly the sum of
// compute requested by non-idle threads, for arbitrary schedules — CPU
// time is neither created nor lost by scheduling.
func TestBusyConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := New(quietConfig())
		defer k.Shutdown()
		var requested simtime.Duration
		nThreads := 2 + r.Intn(4)
		for i := 0; i < nThreads; i++ {
			prio := 4 + r.Intn(8)
			nChunks := 1 + r.Intn(5)
			var mine []cpu.Segment
			for c := 0; c < nChunks; c++ {
				cycles := int64(r.Intn(400_000) + 10_000)
				mine = append(mine, cpu.Segment{Name: "w", BaseCycles: cycles})
				requested += simtime.CPUFrequency.DurationOf(cycles)
			}
			delay := simtime.Duration(r.Intn(50)) * simtime.Millisecond
			th := k.Spawn("t", ProcID(i+1), prio, func(tc *TC) {
				tc.GetMessage()
				for _, seg := range mine {
					tc.Compute(seg)
				}
			})
			k.At(k.Now().Add(delay)+1, func(simtime.Time) {
				k.PostMessage(th, WMCommand, 0)
			})
		}
		// Idle-class filler so the CPU is never truly unoccupied.
		k.Spawn("idle", 99, IdlePriority, func(tc *TC) {
			for i := 0; i < 10_000; i++ {
				tc.Compute(cpu.Segment{Name: "i", BaseCycles: 100_000})
			}
		})
		k.Run(simtime.Time(3 * simtime.Second))
		return k.NonIdleBusyTime() == requested
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestIRQCoalescingBatchesDiskCompletions drives concurrent synchronous
// reads on the NVMe profile and checks that the coalescing machine
// completes the identical I/O with strictly fewer interrupts than its
// per-request twin — the whole point of the axis — while every reader
// still finishes.
func TestIRQCoalescingBatchesDiskCompletions(t *testing.T) {
	run := func(prof machine.Profile) (interrupts int64, done int) {
		cfg := DefaultConfig()
		cfg.Machine = prof
		k := New(cfg)
		defer k.Shutdown()
		f := k.Cache().AddFile("data", 0, 4096)
		for i := 0; i < 8; i++ {
			page := int64(1 + 97*i)
			k.Spawn("reader", ProcID(i+1), 8, func(tc *TC) {
				tc.ReadFile(f, page, 1)
				done++
			})
		}
		k.Run(simtime.Time(2 * simtime.Second))
		return k.CPU().Count(cpu.Interrupts), done
	}
	perIRQ, doneA := run(machine.Modern2026NoCoalesce())
	coalesced, doneB := run(machine.Modern2026Pinned())
	if doneA != 8 || doneB != 8 {
		t.Fatalf("readers completed %d / %d, want 8 / 8", doneA, doneB)
	}
	if coalesced >= perIRQ {
		t.Fatalf("coalescing took %d interrupts, per-request twin %d — no batching happened", coalesced, perIRQ)
	}
}

// TestIRQCoalescingEarlyFlush drives the MaxBatch path: two completions
// reach the batch limit and flush at once, long before the window timer
// the first one armed. A third completion arrives before that timer's
// instant and must wait its own full window: the first batch's timer
// finds its batch already flushed and leaves the new one pending.
// Every batch raises exactly one disk interrupt.
func TestIRQCoalescingEarlyFlush(t *testing.T) {
	const window = simtime.Millisecond
	prof := machine.Modern2026Pinned()
	prof.IRQCoalesce = machine.IRQCoalesceSpec{Window: window, MaxBatch: 2}
	cfg := quietConfig()
	cfg.Machine = prof
	k := New(cfg)
	defer k.Shutdown()
	t1 := simtime.Time(2 * simtime.Millisecond)
	t2 := t1.Add(100 * simtime.Microsecond)
	t3 := t1.Add(window / 2)
	delivered := map[string]simtime.Time{}
	complete := func(name string) func(simtime.Time) {
		return func(simtime.Time) {
			k.raiseDiskInterrupt(func(now simtime.Time) { delivered[name] = now })
		}
	}
	k.At(t1, complete("a"))
	k.At(t2, complete("b"))
	k.At(t3, complete("c"))
	k.Run(t3.Add(3 * window))
	if len(delivered) != 3 {
		t.Fatalf("delivered %v, want a, b and c", delivered)
	}
	a, b, c := delivered["a"], delivered["b"], delivered["c"]
	if a != b || a < t2 || a >= t2.Add(window/10) {
		t.Fatalf("first batch delivered at %v and %v, want both just after the early flush at %v", a, b, t2)
	}
	if c < t3.Add(window) || c >= t3.Add(window+window/10) {
		t.Fatalf("third completion delivered at %v, want one window after its arrival at %v (the first batch's timer was due at %v)",
			c, t3, t1.Add(window))
	}
	if disk := k.CPU().Count(cpu.Interrupts) - k.ClockTicks(); disk != 2 {
		t.Fatalf("%d disk interrupts for two batches, want 2", disk)
	}
}

// TestNewRejectsInvalidProfile pins that a machine boots only from a
// profile machine.Validate accepts. A DVFS ladder whose top differs
// from ClockHz is the case that once slipped through: the kernel boots
// at the ladder's lowest level, so a down-clocked profile that kept
// m2026's ladder ran at 250 MHz whatever ClockHz said.
func TestNewRejectsInvalidProfile(t *testing.T) {
	prof := machine.Modern2026()
	prof.ClockHz = 20_000_000
	cfg := DefaultConfig()
	cfg.Machine = prof
	defer func() {
		p := recover()
		if msg := fmt.Sprint(p); p == nil || !strings.Contains(msg, "DVFS max level must equal ClockHz") {
			t.Fatalf("New on a ladder topping out above ClockHz: recovered %v, want the DVFS validation panic", p)
		}
	}()
	New(cfg).Shutdown()
}
