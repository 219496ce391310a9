package core

import (
	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// NominalSample is the calibrated duration of one idle-loop iteration on
// an otherwise idle CPU: the paper's "one trace record per millisecond of
// idle time".
const NominalSample = simtime.Millisecond

// perIterationCycles is the cost of one busy-wait iteration of the inner
// loop (`for (i = 0; i < N; i++) ;` — a couple of instructions on a
// Pentium).
const perIterationCycles = 10

// recordCycles is the cost of generating one trace record (timestamp read
// plus a buffer store). The calibration compensates for it, as the paper
// compensates for "the overhead introduced by the user-level idle loop".
const recordCycles = 220

// CalibrateN returns the iteration count N for which one loop pass plus
// record generation consumes exactly NominalSample of CPU at the
// machine's clock rate (paper §2.3: "We select the value of N such that
// the inner loop takes one ms to complete when the processor is idle").
func CalibrateN(freq simtime.Hz) int64 {
	budget := freq.CyclesIn(NominalSample) - recordCycles
	return budget / perIterationCycles
}

// IdleLoop is the idle-loop instrument: a lowest-priority thread running
// the calibrated busy-wait and logging one trace record per iteration.
// Because it runs in the idle class, it consumes only CPU time no other
// thread wants — it *is* the system's idle loop, replaced (§2.3).
type IdleLoop struct {
	k      *kernel.Kernel
	buf    *trace.Buffer
	thread *kernel.Thread
	n      int64
	freq   simtime.Hz
	// start is the cycle-counter reading at the current iteration's
	// start. It lives on the struct rather than the loop closure so the
	// bulk-elision path (OnBulk) can roll it forward. started says an
	// iteration is in flight, so the loop's next call logs it; on the
	// struct, it costs the boot no allocation of its own.
	start   int64
	started bool
	// loopSeg and recordSeg are what one sample executes: the calibrated
	// busy-wait, then the record's generation.
	loopSeg, recordSeg cpu.Segment
}

// StartIdleLoop calibrates and spawns the instrument with a trace buffer
// of bufCap samples. The instrument stops when the buffer fills.
func StartIdleLoop(k *kernel.Kernel, bufCap int) *IdleLoop {
	return StartIdleLoopBuffer(k, trace.NewBuffer(bufCap))
}

// StartIdleLoopBuffer is StartIdleLoop recording into a caller-supplied
// buffer — a campaign worker backs each session's buffer with its batch
// slot's arena, reused across sessions (trace.NewBufferBacked).
func StartIdleLoopBuffer(k *kernel.Kernel, buf *trace.Buffer) *IdleLoop {
	il := &IdleLoop{
		k:    k,
		buf:  buf,
		n:    CalibrateN(k.CPU().Freq),
		freq: k.CPU().Freq,
	}
	il.loopSeg = cpu.Segment{
		Name:         "idle-busywait",
		BaseCycles:   il.n * perIterationCycles,
		Instructions: il.n * 2,
		// The loop's working set is a handful of pages: it perturbs the
		// memory system as little as the paper's loop did.
		CodePages: []uint64{40},
		DataPages: []uint64{41},
	}
	il.recordSeg = cpu.Segment{
		Name:         "idle-record",
		BaseCycles:   recordCycles,
		Instructions: 60,
		DataRefs:     30,
		CodePages:    []uint64{40},
		DataPages:    []uint64{42},
	}
	// The instrument is a kernel-resident loop thread: one invocation per
	// sample, no coroutine resume. Each invocation first logs the
	// iteration that just completed, then starts the next one — the same
	// request stream (Compute2 per sample, then exit) and the same sample
	// values as a thread body would issue, proven by the golden corpus.
	il.thread = k.SpawnLoop("idleloop", kernel.KernelProc, kernel.IdlePriority, func(lc *kernel.LoopTC) bool {
		if il.started {
			end := lc.Cycles()
			il.buf.Append(trace.IdleSample{
				Done:    simtime.Time(il.freq.DurationOf(end)),
				Elapsed: il.freq.DurationOf(end - il.start),
			})
		}
		il.started = true
		if il.buf.Full() {
			return false
		}
		il.start = lc.Cycles()
		// One batched request per sample: the busy-wait and the record
		// generation cost exactly what two Compute calls would, but the
		// kernel processes one request per record — keeping the
		// instrument's own overhead minimal, as the paper requires of
		// its idle loop (§2.2).
		lc.Compute2(il.loopSeg, il.recordSeg)
		return true
	})
	il.thread.SetBulkLoop(il)
	return il
}

// BulkBudget bounds analytic elision to the buffer space left, minus one
// so the straddling cycle's own sample still fits — the elided span must
// end with the instrument in a state the slow path could also reach.
func (il *IdleLoop) BulkBudget() int64 {
	b := int64(il.buf.Cap()-il.buf.Len()) - 1
	if b < 0 {
		b = 0
	}
	return b
}

// OnBulk appends the samples that n elided clean cycles would have
// recorded. Each cycle's Done/Elapsed reproduce the slow path's exact
// arithmetic — cycle boundaries quantised through the cycle counter —
// and il.start rolls forward to the straddling cycle's start, which the
// loop function already stamped at the span's beginning.
func (il *IdleLoop) OnBulk(n int64, start simtime.Time, cycle simtime.Duration) {
	// end_i = (start + i*cycle) / period, carried incrementally as a
	// quotient/remainder pair so the loop divides once at setup instead
	// of once per sample. The arithmetic is exact — identical to the
	// per-sample CycleAt the slow path computes.
	period := int64(simtime.Second) / int64(il.freq)
	first := int64(start) + int64(cycle)
	end, rem := first/period, first%period
	dq, dr := int64(cycle)/period, int64(cycle)%period
	for i := int64(1); i <= n; i++ {
		il.buf.Append(trace.IdleSample{
			Done:    simtime.Time(end * period),
			Elapsed: simtime.Duration((end - il.start) * period),
		})
		il.start = end
		end += dq
		if rem += dr; rem >= period {
			end++
			rem -= period
		}
	}
}

// Samples returns the recorded idle samples.
func (il *IdleLoop) Samples() []trace.IdleSample { return il.buf.Samples() }

// Full reports whether the trace buffer filled (the run should be sized
// so it does not).
func (il *IdleLoop) Full() bool { return il.buf.Full() }

// Thread returns the instrument's thread.
func (il *IdleLoop) Thread() *kernel.Thread { return il.thread }

// N returns the calibrated iteration count.
func (il *IdleLoop) N() int64 { return il.n }

// BusySpans converts an idle-sample trace into maximal busy spans: runs
// of consecutive elongated samples. threshold is the minimum stolen time
// for a sample to count as busy; at or below it, calibration jitter would
// masquerade as load.
//
// Span boundaries are known only to sample resolution (~1 ms), exactly as
// in the paper; Stolen is exact, because the idle loop accounts for every
// lost cycle.
func BusySpans(samples []trace.IdleSample, threshold simtime.Duration) []BusySpan {
	var spans []BusySpan
	var cur BusySpan
	open := false
	for _, s := range samples {
		stolen := s.Stolen(NominalSample)
		if stolen > threshold {
			if !open {
				cur = BusySpan{Span: Span{Start: s.Done.Add(-s.Elapsed)}}
				open = true
			}
			cur.Span.End = s.Done
			cur.Stolen += stolen
			cur.Samples++
		} else if open {
			spans = append(spans, cur)
			open = false
		}
	}
	if open {
		spans = append(spans, cur)
	}
	return spans
}

// BusySpan is a maximal run of elongated idle samples.
type BusySpan struct {
	Span
	// Stolen is the exact non-idle time observed within the span.
	Stolen simtime.Duration
	// Samples is the number of elongated samples merged.
	Samples int
}

// DefaultBusyThreshold distinguishes real work from jitter: 20 µs of
// stolen time within a 1 ms sample.
const DefaultBusyThreshold = 20 * simtime.Microsecond
