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
//
// The paper post-processes a bounded trace buffer after the run. This
// instrument folds each record into busy spans the moment it makes it
// (at DefaultBusyThreshold) and keeps only the spans, so its state grows
// with the work it sees, not with the run's length, and it has no
// buffer to fill. Record turns on a tap that also keeps every sample,
// for the readers that need them raw.
type IdleLoop struct {
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
	// fold holds the busy spans of every sample recorded so far.
	fold spanFold
	// recording says Record turned the tap on; tap then holds every
	// sample, in order.
	recording bool
	tap       []trace.IdleSample
}

// StartIdleLoop calibrates and spawns the instrument.
func StartIdleLoop(k *kernel.Kernel) *IdleLoop {
	il := &IdleLoop{
		n:    CalibrateN(k.CPU().Freq),
		freq: k.CPU().Freq,
		fold: spanFold{threshold: DefaultBusyThreshold},
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
	// request stream (Compute2 per sample) and the same sample values as
	// a thread body would issue, proven by the golden corpus.
	il.thread = k.SpawnLoop("idleloop", kernel.KernelProc, kernel.IdlePriority, func(lc *kernel.LoopTC) bool {
		if il.started {
			end := lc.Cycles()
			s := trace.IdleSample{
				Done:    simtime.Time(il.freq.DurationOf(end)),
				Elapsed: il.freq.DurationOf(end - il.start),
			}
			il.fold.add(s)
			if il.recording {
				il.tap = append(il.tap, s)
			}
		}
		il.started = true
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

// Record turns on the sample tap: from now on Samples returns every
// sample the instrument records. Call it before the run; it panics once
// a sample has been folded, since the tap could no longer hold them all.
func (il *IdleLoop) Record() {
	if il.fold.last != 0 {
		panic("core: IdleLoop.Record after the run started")
	}
	il.recording = true
}

// OnBulk folds the samples that n elided cycles would have recorded,
// in O(1) where the fold allows (spanFold.addCycles), and appends them
// to the tap when it is on. Each cycle's Done/Elapsed reproduce the slow
// path's exact arithmetic — cycle boundaries quantised through the cycle
// counter — and il.start rolls forward to the straddling cycle's start,
// which the loop function already stamped at the span's beginning.
func (il *IdleLoop) OnBulk(n int64, start simtime.Time, cycle simtime.Duration) {
	c := cycles{from: il.start, start: int64(start), cycle: int64(cycle),
		period: int64(il.freq.DurationOf(1)), n: n}
	if il.recording {
		c.each(func(s trace.IdleSample) { il.tap = append(il.tap, s) })
	}
	il.fold.addCycles(c)
	il.start = c.end(n)
}

// Samples returns the samples the tap recorded: nil unless Record
// turned it on. It stays readable after the machine shuts down.
func (il *IdleLoop) Samples() []trace.IdleSample { return il.tap }

// Spans returns the busy spans of every sample recorded so far, at
// DefaultBusyThreshold: BusySpans over the same samples. The last span
// may still grow while the machine runs; it stays readable after the
// machine shuts down.
func (il *IdleLoop) Spans() []BusySpan { return il.fold.spans }

// Extract is core.Extract over the instrument's own spans: the events
// Extract(samples, msgs, opts) returns for the samples the instrument
// recorded, without storing them. opts.BusyThreshold must be zero or
// DefaultBusyThreshold, the one the instrument folds at.
func (il *IdleLoop) Extract(msgs []trace.MsgRecord, opts ExtractOptions) []Event {
	if opts.BusyThreshold != 0 && opts.BusyThreshold != il.fold.threshold {
		panic("core: IdleLoop.Extract folds at DefaultBusyThreshold only")
	}
	return extract(il.fold.spans, il.fold.last, msgs, opts)
}

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
	f := spanFold{threshold: threshold}
	f.addAll(samples)
	return f.spans
}

// spanFold folds idle samples into maximal busy spans as they arrive:
// the one algorithm behind BusySpans, Extract and the running
// instrument. spans holds every span so far; while open, the last one
// is still growing. last is the Done of the last sample folded.
type spanFold struct {
	threshold simtime.Duration
	spans     []BusySpan
	open      bool
	last      simtime.Time
}

// add folds one sample.
func (f *spanFold) add(s trace.IdleSample) { f.addAll([]trace.IdleSample{s}) }

// addAll folds samples in order. The loop keeps the fold's state in
// locals and a clean sample, the common case, costs one store, so a
// replay over a recorded trace runs as fast as a loop written for it.
func (f *spanFold) addAll(samples []trace.IdleSample) {
	if len(samples) == 0 {
		return
	}
	spans, open, threshold := f.spans, f.open, f.threshold
	for _, s := range samples {
		if stolen := s.Stolen(NominalSample); stolen > threshold {
			if !open {
				spans = append(spans, BusySpan{Span: Span{Start: s.Done.Add(-s.Elapsed)}})
				open = true
			}
			bs := &spans[len(spans)-1]
			bs.End = s.Done
			bs.Stolen += stolen
			bs.Samples++
		} else {
			open = false
		}
	}
	f.spans, f.open, f.last = spans, open, samples[len(samples)-1].Done
}

// busy reports whether a sample that took elapsed counts as busy.
func (f *spanFold) busy(elapsed simtime.Duration) bool {
	return trace.IdleSample{Elapsed: elapsed}.Stolen(NominalSample) > f.threshold
}

// addCycles folds the samples of c, exactly as adding them one by one
// would, at a threshold that is not negative. The first cycle's length
// depends on where the counter read from; every later one lasts dq or
// dq+1 counter periods, where dq is the cycle's whole number of periods.
// When both lengths fall on the same side of the threshold, the later
// cycles fold in closed form: all clean, they close any open span; all
// elongated, they extend the span the first cycle's sample left open by
// their summed stolen time, which telescopes to the elapsed time from
// the first cycle's end to the last's, minus one NominalSample each.
// (The counter read from no later than the first cycle's start, so the
// first cycle lasts at least dq periods and is elongated when they are.)
// Otherwise they fold one by one.
func (f *spanFold) addCycles(c cycles) {
	dq, dr := c.cycle/c.period, c.cycle%c.period
	busy := f.busy(simtime.Duration(dq * c.period))
	if c.n == 1 || dr != 0 && f.busy(simtime.Duration((dq+1)*c.period)) != busy {
		c.each(f.add)
		return
	}
	first, last := c.end(1), c.end(c.n)
	f.add(c.sample(c.from, first))
	if busy {
		m := c.n - 1
		bs := &f.spans[len(f.spans)-1]
		bs.End = simtime.Time(last * c.period)
		bs.Stolen += simtime.Duration((last-first)*c.period) - simtime.Duration(m)*NominalSample
		bs.Samples += int(m)
	} else {
		f.open = false
	}
	f.last = simtime.Time(last * c.period)
}

// cycles is a run of n > 0 idle-loop cycles the kernel elided: each
// lasts cycle ns, the first starting at start ns, when the cycle
// counter, one count per period ns, read from. Cycle i ends at counter
// reading end(i), the slow path's exact quantisation.
type cycles struct {
	from, start, cycle, period, n int64
}

// end returns the counter reading at the end of cycle i.
func (c cycles) end(i int64) int64 { return (c.start + i*c.cycle) / c.period }

// sample returns the sample of a cycle from counter reading prev to end.
func (c cycles) sample(prev, end int64) trace.IdleSample {
	return trace.IdleSample{
		Done:    simtime.Time(end * c.period),
		Elapsed: simtime.Duration((end - prev) * c.period),
	}
}

// each calls fn with the sample of every cycle, in order. The cycle
// ends are carried as a quotient/remainder pair, so the loop divides
// once at setup instead of once per sample.
func (c cycles) each(fn func(trace.IdleSample)) {
	first := c.start + c.cycle
	end, rem := first/c.period, first%c.period
	dq, dr := c.cycle/c.period, c.cycle%c.period
	prev := c.from
	for i := int64(1); i <= c.n; i++ {
		fn(c.sample(prev, end))
		prev = end
		end += dq
		if rem += dr; rem >= c.period {
			end++
			rem -= c.period
		}
	}
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
