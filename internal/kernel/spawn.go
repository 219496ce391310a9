//go:build go1.23

package kernel

import (
	"iter"
	"runtime/debug"
)

// Spawn creates a thread in process proc at the given priority and makes
// it runnable. The body runs as a coroutine: the kernel resumes it when
// it wants the thread's next request, and each primitive yields that
// request back. The thread exits when the body returns. A panic in the
// body ends the thread and is raised again by the Run call that was
// stepping it, naming the thread and carrying the body's stack, so the
// caller of Run can recover it; the kernel is unusable afterwards except
// for Shutdown.
func (k *Kernel) Spawn(name string, proc ProcID, prio int, body func(tc *TC)) *Thread {
	t := k.newThread(name, proc, prio)
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					t.panicked = &threadPanic{value: r, stack: debug.Stack()}
				}
			}
		}()
		body(&TC{t: t, k: k, yield: yield})
	})
	k.makeReady(t)
	k.reconcile()
	return t
}
