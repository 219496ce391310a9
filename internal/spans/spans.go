// Package spans is the latency-attribution layer: a tree of cause-tagged
// cycle costs recorded at the moment the simulator charges them.
//
// The paper's payoff is not one latency number but its decomposition —
// §5.3 attributes the NT 3.51 vs NT 4.0 gap to TLB flushes, interrupts,
// and domain crossings from hardware counters. The simulator knows those
// causes exactly when it charges them, so this package captures them
// then, LTT-style (always-on, cheap, at the point of cost), instead of
// reverse-engineering them per experiment afterwards.
//
// Invariants:
//
//   - Disabled means absent. A nil *Recorder is a valid receiver for
//     every method and records nothing; every producer guards its span
//     emission behind a nil check, so a simulation without a recorder
//     runs the exact pre-span code path (byte-identical goldens, zero
//     extra allocations on the execute/cross hot path).
//   - Enabled stays allocation-bounded. Spans append to a slab that
//     doubles amortized; Grow pre-sizes it so steady-state recording
//     allocates nothing per span. Labels must be static or already-
//     retained strings — the recorder stores the string header only.
//   - Deterministic. The recorder reads time only from the simulated
//     clock it was built with; recording never perturbs simulation
//     state, so a traced run and an untraced run produce identical
//     simulated schedules.
package spans

import (
	"sort"
	"sync"

	"latlab/internal/simtime"
)

// Cause tags a span with why its time was spent. Container causes group
// child spans (an episode contains executes, an execute contains its
// penalty charges); leaf causes carry the actual costs, so summing leaf
// spans never double counts.
type Cause uint8

// Span causes. The order is presentation order in attribution tables.
const (
	// CauseEpisode is the root container of one interactive event: from
	// the input interrupt (message enqueue) to the handling thread's next
	// message-API call.
	CauseEpisode Cause = iota
	// CauseExec contains the charges of one cpu.Segment execution.
	CauseExec
	// CauseSyscall contains a synchronous kernel request (file I/O) from
	// invocation to unblock.
	CauseSyscall
	// CauseDiskIO contains one disk request's service-time decomposition.
	CauseDiskIO

	// CauseBase is a segment's warm base cycles (all TLB/cache hits).
	CauseBase
	// CauseTLBMiss is TLB refill penalty cycles (ITLB + DTLB).
	CauseTLBMiss
	// CauseCacheMiss is L2-miss / DRAM penalty cycles.
	CauseCacheMiss
	// CauseSegLoad is segment-register load penalty cycles (16-bit code).
	CauseSegLoad
	// CauseUnaligned is misaligned-access penalty cycles.
	CauseUnaligned
	// CauseDomainCross is the direct protection-domain-crossing cost; the
	// consequential refills surface as CauseTLBMiss spans afterwards.
	CauseDomainCross
	// CauseTLBFlush marks a TLB flush; Count is the entries discarded.
	// It costs no cycles itself — it manufactures future CauseTLBMiss.
	CauseTLBFlush
	// CauseModeSwitch is a user/kernel mode switch (no flush).
	CauseModeSwitch
	// CauseCtxSwitch contains context-switch work; base cycles charged
	// under it are attributed to it (penalty causes keep their identity).
	CauseCtxSwitch
	// CauseInterrupt contains interrupt-handler work; base cycles charged
	// under it are attributed to it (penalty causes keep their identity).
	CauseInterrupt
	// CauseSchedDelay is time a ready thread waited for the CPU.
	CauseSchedDelay
	// CauseQueueWait is time an input message waited in the queue before
	// the application retrieved it (the Fig. 1 missing time).
	CauseQueueWait

	// CauseDiskCtrl is per-request controller/command overhead.
	CauseDiskCtrl
	// CauseDiskSeek is head-movement time.
	CauseDiskSeek
	// CauseDiskRot is rotational latency.
	CauseDiskRot
	// CauseDiskXfer is media transfer time.
	CauseDiskXfer
	// CauseDiskRetry is retry backoff after a transient media error.
	CauseDiskRetry
	// CauseDiskStall is time the device was frozen (fault injection).
	CauseDiskStall
	// CauseDiskDegraded is service time beyond nominal under a degraded
	// service factor (fault injection).
	CauseDiskDegraded

	// CauseFSHit counts buffer-cache page hits (no time of its own).
	CauseFSHit
	// CauseFSMiss counts buffer-cache page misses (the time is the disk
	// spans the miss provokes).
	CauseFSMiss
	// CauseFSWrite counts pages written through.
	CauseFSWrite
	// CauseFSEvict counts pages evicted under forced pressure.
	CauseFSEvict

	// NumCauses is the number of defined causes.
	NumCauses
)

// causeNames is indexed by Cause; names are stable — they appear in
// attribution CSVs and Chrome traces.
var causeNames = [NumCauses]string{
	"episode", "exec", "syscall", "disk-io",
	"base", "tlb-miss", "cache-miss", "seg-load", "unaligned",
	"domain-cross", "tlb-flush", "mode-switch", "ctx-switch",
	"interrupt", "sched-delay", "queue-wait",
	"disk-ctrl", "disk-seek", "disk-rot", "disk-xfer",
	"disk-retry", "disk-stall", "disk-degraded",
	"fs-hit", "fs-miss", "fs-write", "fs-evict",
}

// String returns the stable attribution name of the cause.
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "cause-unknown"
}

// Container reports whether the cause groups children rather than
// carrying leaf cost; attribution sums skip containers.
func (c Cause) Container() bool {
	switch c {
	case CauseEpisode, CauseExec, CauseSyscall, CauseDiskIO,
		CauseInterrupt, CauseCtxSwitch:
		return true
	}
	return false
}

// noParent is the Parent index of a root span.
const noParent int32 = -1

// Span is one cause-tagged cost. Containers cover their children in
// time; leaves carry Cycles (compute causes), a wall duration (waiting
// causes), or only Count (event causes like flushes and cache hits).
type Span struct {
	// Parent indexes the enclosing span in the recorder's slab, -1 for a
	// root.
	Parent int32
	// Cause tags why the time was spent.
	Cause Cause
	// Label names the specific site (segment name, thread, file).
	Label string
	// Start and End bound the span in simulated time.
	Start, End simtime.Time
	// Cycles is the CPU cost charged, when the cause is a compute cost.
	Cycles int64
	// Count is the event count (misses, pages, flushed entries).
	Count int64
}

// Duration returns End-Start.
func (s Span) Duration() simtime.Duration { return s.End.Sub(s.Start) }

// Handle identifies an open span for End; the zero Handle is inert.
type Handle struct {
	idx int32
	ok  bool
}

// Recorder accumulates spans for one simulated machine. It is not safe
// for concurrent use (the simulator is single-threaded); a nil Recorder
// is a valid no-op receiver for every method.
type Recorder struct {
	now   func() simtime.Time
	spans []Span
	// stack holds the indices of open spans, innermost last. End removes
	// from anywhere in the stack (syscall spans of different threads can
	// close out of order), but the top is the common case.
	stack []int32
}

// NewRecorder builds a recorder reading simulated time from clock.
func NewRecorder(clock func() simtime.Time) *Recorder {
	return &Recorder{now: clock}
}

// Grow pre-sizes the slab for at least n spans, so steady-state
// recording allocates nothing.
func (r *Recorder) Grow(n int) {
	if r == nil || cap(r.spans) >= n {
		return
	}
	s := make([]Span, len(r.spans), n)
	copy(s, r.spans)
	r.spans = s
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Spans returns the recorded spans. The slice aliases the recorder;
// callers must not modify it while recording continues.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Reset discards all spans and open handles, keeping capacity.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.spans = r.spans[:0]
	r.stack = r.stack[:0]
}

// parent returns the innermost open span index.
func (r *Recorder) parent() int32 {
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return noParent
}

// push appends a span and returns its index.
func (r *Recorder) push(s Span) int32 {
	idx := int32(len(r.spans))
	r.spans = append(r.spans, s)
	return idx
}

// Begin opens a span at the current simulated time.
func (r *Recorder) Begin(c Cause, label string) Handle {
	if r == nil {
		return Handle{}
	}
	return r.BeginAt(c, label, r.now())
}

// BeginAt opens a span starting at start (which may precede now — an
// episode starts at the input interrupt that was observed later).
func (r *Recorder) BeginAt(c Cause, label string, start simtime.Time) Handle {
	if r == nil {
		return Handle{}
	}
	idx := r.push(Span{Parent: r.parent(), Cause: c, Label: label, Start: start})
	r.stack = append(r.stack, idx)
	return Handle{idx: idx, ok: true}
}

// End closes the span at the current simulated time.
func (r *Recorder) End(h Handle) {
	if r == nil || !h.ok {
		return
	}
	r.EndAt(h, r.now())
}

// EndAt closes the span at end. Spans need not close in LIFO order
// (syscalls of different threads overlap); the handle is removed from
// wherever it sits in the open stack.
func (r *Recorder) EndAt(h Handle, end simtime.Time) {
	if r == nil || !h.ok {
		return
	}
	r.spans[h.idx].End = end
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == h.idx {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
}

// Charge records an instantaneous leaf at the current time: an event
// count (flush, cache hit) or a cost charged at a single instant.
func (r *Recorder) Charge(c Cause, label string, cycles, count int64) {
	if r == nil {
		return
	}
	now := r.now()
	r.push(Span{Parent: r.parent(), Cause: c, Label: label,
		Start: now, End: now, Cycles: cycles, Count: count})
}

// ChargeSpan records a completed leaf covering [start, end] as a child
// of the innermost open span.
func (r *Recorder) ChargeSpan(c Cause, label string, start, end simtime.Time, cycles, count int64) {
	if r == nil {
		return
	}
	r.push(Span{Parent: r.parent(), Cause: c, Label: label,
		Start: start, End: end, Cycles: cycles, Count: count})
}

// Attrib is a per-cause roll-up of leaf spans.
type Attrib struct {
	// Dur is attributed wall time per cause.
	Dur [NumCauses]simtime.Duration
	// Cycles is attributed CPU cost per cause.
	Cycles [NumCauses]int64
	// Count is the event count per cause.
	Count [NumCauses]int64
}

// Total returns the summed attributed duration across causes.
func (a *Attrib) Total() simtime.Duration {
	var t simtime.Duration
	for _, d := range a.Dur {
		t += d
	}
	return t
}

// CauseDurations returns the attributed duration per cause name,
// omitting causes with no attributed time. Keys match Cause.String(),
// the vocabulary the attribution CSV uses.
func (a *Attrib) CauseDurations() map[string]simtime.Duration {
	out := make(map[string]simtime.Duration)
	for c, d := range a.Dur {
		if d != 0 {
			out[Cause(c).String()] = d
		}
	}
	return out
}

// add accumulates leaf span s under cause c.
func (a *Attrib) add(c Cause, s Span) {
	a.Dur[c] += s.Duration()
	a.Cycles[c] += s.Cycles
	a.Count[c] += s.Count
}

// effectiveCause resolves the attribution cause of leaf span i: base
// cycles inside an interrupt or context-switch container belong to that
// container (its path length is the cost the paper attributes), while
// penalty causes (TLB, cache, segment, unaligned) keep their identity
// wherever they occur — a TLB miss is a TLB miss even inside a handler.
func effectiveCause(spans []Span, i int) Cause {
	c := spans[i].Cause
	if c != CauseBase {
		return c
	}
	for p := spans[i].Parent; p != noParent; p = spans[p].Parent {
		switch spans[p].Cause {
		case CauseInterrupt, CauseCtxSwitch:
			return spans[p].Cause
		case CauseEpisode:
			return c
		}
	}
	return c
}

// Attribution rolls all leaf spans up by effective cause.
func Attribution(spans []Span) Attrib {
	var a Attrib
	for i, s := range spans {
		if s.Cause.Container() {
			continue
		}
		a.add(effectiveCause(spans, i), s)
	}
	return a
}

// Episode is the attribution of one interactive event.
type Episode struct {
	// Label is the input-message kind handled ("WM_KEYDOWN").
	Label string
	// Start is the input interrupt; End is the handling thread's next
	// message-API call, so End-Start is the event's handling latency
	// including queue wait.
	Start, End simtime.Time
	// A sums the leaf spans recorded inside the episode.
	A Attrib
}

// Duration returns the episode's wall latency.
func (e Episode) Duration() simtime.Duration { return e.End.Sub(e.Start) }

// Episodes cuts the span log into per-event attributions, in event
// order, plus the roll-up of every leaf recorded outside any episode
// (background housekeeping, inter-event interrupts).
func Episodes(spans []Span) (eps []Episode, background Attrib) {
	// root[i] is the index of span i's root ancestor.
	root := make([]int32, len(spans))
	epIdx := make(map[int32]int)
	for i, s := range spans {
		if s.Parent == noParent {
			root[i] = int32(i)
			if s.Cause == CauseEpisode {
				epIdx[int32(i)] = len(eps)
				eps = append(eps, Episode{Label: s.Label, Start: s.Start, End: s.End})
			}
		} else {
			root[i] = root[s.Parent]
		}
	}
	for i, s := range spans {
		if s.Cause.Container() {
			continue
		}
		c := effectiveCause(spans, i)
		if j, ok := epIdx[root[i]]; ok {
			eps[j].A.add(c, s)
		} else {
			background.add(c, s)
		}
	}
	return eps, background
}

// Track pairs a name with one simulated machine's spans, for export.
type Track struct {
	// Name identifies the machine (persona @ profile).
	Name string
	// Spans is that machine's span log.
	Spans []Span
}

// Collector gathers tracks from concurrently-running simulations (the
// parallel experiment runner); it is safe for concurrent Add.
type Collector struct {
	mu     sync.Mutex
	tracks []Track
	seen   map[string]int
}

// Add appends a named track; duplicate names get a "#n" suffix so every
// rig of a suite run stays distinguishable.
func (c *Collector) Add(name string, spans []Span) {
	if c == nil || len(spans) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = make(map[string]int)
	}
	c.seen[name]++
	if n := c.seen[name]; n > 1 {
		name = name + "#" + itoa(n)
	}
	c.tracks = append(c.tracks, Track{Name: name, Spans: spans})
}

// Tracks returns the collected tracks sorted by name, so export order
// is deterministic whatever the completion order of a parallel run.
func (c *Collector) Tracks() []Track {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Track(nil), c.tracks...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// itoa is strconv.Itoa for small positive n without the import.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 && i > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
