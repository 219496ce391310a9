package kernel

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"latlab/internal/simtime"
)

// runRecovering runs k to until and returns what the run panicked with,
// nil when it returned normally.
func runRecovering(k *Kernel, until simtime.Time) (p any) {
	defer func() { p = recover() }()
	k.Run(until)
	return nil
}

// waitGoroutines fails t unless the goroutine count falls back to base
// within a few seconds: exiting goroutines finish asynchronously.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d: a thread goroutine leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestThreadPanicReachesRun pins where a panicking request source ends
// up: on the caller of Run, naming the thread and carrying the value and
// the frame that panicked, with the thread done and every other thread
// still unwound by Shutdown. Raised on the coroutine's own goroutine
// instead, nothing could recover it and the whole process would die.
func TestThreadPanicReachesRun(t *testing.T) {
	compute := func(lc *LoopTC) { lc.Compute(burn("w", 1)) }
	cases := []struct {
		name  string
		spawn func(k *Kernel) *Thread
		// value is what the panic message must carry besides the
		// thread's name; stack, a frame it must carry too.
		value, stack string
	}{
		{"body", func(k *Kernel) *Thread {
			return k.Spawn("crasher", 1, 8, func(tc *TC) {
				tc.Compute(burn("w", 1))
				panic("boom")
			})
		}, "boom", "panic_test.go"},
		{"loop-first-call", func(k *Kernel) *Thread {
			// The first call of a lent loop runs in the thread's body.
			return k.Spawn("crasher", 1, 8, func(tc *TC) {
				tc.Compute(burn("w", 1))
				tc.Loop(func(lc *LoopTC) bool { panic("boom") })
			})
		}, "boom", "panic_test.go"},
		{"loop-in-kernel", func(k *Kernel) *Thread {
			// Later calls run in simulator context, on the caller of Run.
			return k.Spawn("crasher", 1, 8, func(tc *TC) {
				n := 0
				tc.Loop(func(lc *LoopTC) bool {
					if n++; n == 3 {
						panic("boom")
					}
					compute(lc)
					return true
				})
			})
		}, "boom", "panic_test.go"},
		{"loop-silent", func(k *Kernel) *Thread {
			// A loop that returns true without issuing a request.
			return k.Spawn("crasher", 1, 8, func(tc *TC) {
				n := 0
				tc.Loop(func(lc *LoopTC) bool {
					if n++; n < 3 {
						compute(lc)
					}
					return true
				})
			})
		}, "without issuing a request", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := New(quietConfig())
			bystander := k.Spawn("bystander", 1, 4, func(tc *TC) { tc.GetMessage() })
			crasher := c.spawn(k)
			p := runRecovering(k, simtime.Time(simtime.Second))
			if p == nil {
				t.Fatal("Run returned normally; want the thread's panic")
			}
			msg := fmt.Sprint(p)
			if !strings.Contains(msg, "thread crasher panicked") || !strings.Contains(msg, c.value) {
				t.Fatalf("panic = %q, want it to name thread crasher and carry its value", msg)
			}
			if c.stack != "" && !strings.Contains(msg, c.stack) {
				t.Fatalf("panic should carry the thread's stack (%s): %q", c.stack, msg)
			}
			if crasher.State() != StateDone {
				t.Fatalf("crasher state = %v, want done", crasher.State())
			}
			if bystander.State() == StateDone {
				t.Fatal("bystander ended with the crasher")
			}
			k.Shutdown()
			waitGoroutines(t, base)
		})
	}
}
