package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// workers returns the pool size for n jobs: jobs, or runtime.NumCPU()
// when jobs <= 0, and never more than n (when there are any).
func workers(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	if jobs > n && n > 0 {
		jobs = n
	}
	return jobs
}

// Ordered runs job(ctx, i) for every i in [0, n) on a pool of workers
// (jobs of them; <= 0 means runtime.NumCPU()) and calls emit(i, v) with
// each result strictly in index order, whatever the completion order,
// so the caller's output is the same at every worker count.
//
// Indices are fed in order. Feeding stops when ctx is done or drain
// becomes readable (a nil drain never does); the jobs in flight run to
// completion and are emitted, so the emitted indices always form a
// prefix of [0, n). If emit returns an error, Ordered cancels the
// context the jobs see, emits nothing more, and returns that error once
// every worker has exited; otherwise it returns ctx.Err().
func Ordered[T any](ctx context.Context, n, jobs int, drain <-chan struct{},
	job func(ctx context.Context, i int) T, emit func(i int, v T) error) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		i int
		v T
	}
	work := make(chan int)
	// Sized to n so workers finishing after a cancellation never block on
	// a collector that has stopped emitting.
	results := make(chan result, n)
	jobs = workers(jobs, n)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results <- result{i, job(ctx, i)}
			}
		}()
	}
	go func() {
		defer close(work)
		for i := 0; i < n; i++ {
			// Check the stop signals first: a select with a ready worker
			// would otherwise race a just-closed drain and feed one more
			// index.
			select {
			case <-ctx.Done():
				return
			case <-drain:
				return
			default:
			}
			select {
			case work <- i:
			case <-ctx.Done():
				return
			case <-drain:
				return
			}
		}
	}()
	go func() { wg.Wait(); close(results) }()

	// The reorder buffer holds results that finished ahead of an index
	// still running.
	pending := make(map[int]T, jobs)
	next := 0
	var err error
	for r := range results {
		pending[r.i] = r.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err == nil {
				if err = emit(next, v); err != nil {
					cancel()
				}
			}
			next++
		}
	}
	if err != nil {
		return err
	}
	return parent.Err()
}

// Attempt is the outcome of one call run under Do.
type Attempt[T any] struct {
	// Value is what the call returned; the zero value when it panicked
	// or was abandoned.
	Value T
	// Err is the call's error: the one it returned, its panic as an
	// error carrying the panicking goroutine's stack, or the context's
	// error when the call was abandoned.
	Err error
	// Panicked says Err is a panic.
	Panicked bool
	// TimedOut says Err is (or wraps) context.DeadlineExceeded.
	TimedOut bool
	// Wall is the host time from the call's start until it returned or
	// was abandoned.
	Wall time.Duration
}

// Do calls fn once with a context that expires after timeout (0 means
// no limit). A panic in fn becomes Err, with its stack. When the
// context ends before fn returns, Do returns the context's error at
// once and abandons fn's goroutine: a simulated machine has no
// preemption point, so a call that ignores its context cannot be
// stopped, only left behind.
func Do[T any](ctx context.Context, timeout time.Duration, fn func(context.Context) (T, error)) Attempt[T] {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	done := make(chan Attempt[T], 1)
	start := time.Now()
	go func() {
		var a Attempt[T]
		defer func() {
			if p := recover(); p != nil {
				a = Attempt[T]{Err: fmt.Errorf("panic: %v\n%s", p, debug.Stack()), Panicked: true}
			}
			done <- a
		}()
		a.Value, a.Err = fn(ctx)
	}()
	var a Attempt[T]
	select {
	case a = <-done:
	case <-ctx.Done():
		a.Err = ctx.Err()
	}
	a.Wall = time.Since(start)
	a.TimedOut = errors.Is(a.Err, context.DeadlineExceeded)
	return a
}
