package core

import (
	"latlab/internal/kernel"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// Event is one extracted interactive event: a user input and the system
// activity handling it.
type Event struct {
	// Kind is the triggering message kind.
	Kind kernel.MsgKind
	// Enqueued is the hardware-interrupt time of the input: latency is
	// measured from the user's action, not from when the application saw
	// the message (the Fig. 1 discrepancy).
	Enqueued simtime.Time
	// HandleStart is when the application dequeued the message.
	HandleStart simtime.Time
	// End is when the system went quiescent for this event.
	End simtime.Time
	// Latency is the user-perceived response time.
	Latency simtime.Duration
	// Busy is the exact non-idle CPU time attributed to the event window
	// (the idle loop accounts every stolen cycle).
	Busy simtime.Duration
	// Gapped reports that the event contained internal idle periods
	// (paced animation, synchronous I/O waits): its Latency is the
	// wall-clock span at ~1 ms sample resolution rather than the exact
	// stolen-time sum.
	Gapped bool
	// StrippedSync is the WM_QUEUESYNC processing time removed from the
	// latency (ExtractOptions.StripQueueSync).
	StrippedSync simtime.Duration
}

// ExtractOptions tunes event extraction.
type ExtractOptions struct {
	// Thread restricts the message trace to one application thread.
	Thread int
	// StripQueueSync removes Microsoft Test's WM_QUEUESYNC processing
	// from event latencies, as the paper does for the Notepad benchmark:
	// "we were able to clearly identify the Test overhead and remove it"
	// (§5.1). The time still exists in elapsed time — the Fig. 7 anomaly.
	StripQueueSync bool
	// BusyThreshold is the per-sample stolen-time floor; defaults to
	// DefaultBusyThreshold.
	BusyThreshold simtime.Duration
	// End caps the analysis window (defaults to the last sample).
	End simtime.Time
}

// Extract correlates the idle-loop trace with the message-API trace and
// produces one Event per user input, in input order.
//
// The boundary of an event is the next time the application *blocks*
// waiting for messages (a GetMessage call whose return came later), or
// the dequeue of the next user input, whichever is earlier — precisely
// the §2.4 role of the message monitor. Animation paced by timers never
// blocks in GetMessage, so multi-burst events stay whole (§2.6); an
// application that keeps feeding itself work (Word's background
// coroutines) inflates its events, reproducing the paper's §5.4
// difficulty rather than papering over it.
func Extract(samples []trace.IdleSample, msgs []trace.MsgRecord, opts ExtractOptions) []Event {
	if opts.BusyThreshold == 0 {
		opts.BusyThreshold = DefaultBusyThreshold
	}
	f := spanFold{threshold: opts.BusyThreshold}
	f.addAll(samples)
	return extract(f.spans, f.last, msgs, opts)
}

// extract is Extract's analysis of folded samples: spans are their busy
// spans at opts.BusyThreshold and last is the last one's Done, zero when
// there were none. Extract replays a recorded trace into it, and the
// running instrument hands it the spans it folded (IdleLoop.Extract).
func extract(spans []BusySpan, last simtime.Time, msgs []trace.MsgRecord, opts ExtractOptions) []Event {
	if opts.End == 0 {
		opts.End = last
	}

	// Count-then-fill keeps the analysis path at a handful of exact
	// allocations however large the trace is.
	nrecs := 0
	for _, m := range msgs {
		if m.Thread == opts.Thread {
			nrecs++
		}
	}
	var recs []trace.MsgRecord
	if nrecs == len(msgs) {
		recs = msgs // single-thread trace: no copy needed, Extract only reads
	} else {
		recs = make([]trace.MsgRecord, 0, nrecs)
		for _, m := range msgs {
			if m.Thread == opts.Thread {
				recs = append(recs, m)
			}
		}
	}
	// Anchor records: user-input dequeues.
	nanchors := 0
	for _, m := range recs {
		if m.Received && kernel.MsgKind(m.Kind).UserInput() {
			nanchors++
		}
	}
	if nanchors == 0 {
		return nil
	}
	anchors := make([]int, 0, nanchors)
	for i, m := range recs {
		if m.Received && kernel.MsgKind(m.Kind).UserInput() {
			anchors = append(anchors, i)
		}
	}

	// nextBlock[i] is the call time of the first blocking GetMessage at
	// or after record i (opts.End when none): one backward pass replaces
	// a forward scan per anchor, which was quadratic in trace length.
	nextBlock := make([]simtime.Time, len(recs)+1)
	nextBlock[len(recs)] = opts.End
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].API == trace.GetMessage && !recs[i].Received {
			nextBlock[i] = recs[i].Call
		} else {
			nextBlock[i] = nextBlock[i+1]
		}
	}

	events := make([]Event, 0, nanchors)
	var prevEnd simtime.Time
	// consumed tracks how much of each busy span's stolen mass has been
	// attributed to earlier events: back-to-back handling of queued
	// inputs produces one long span shared between events.
	consumed := make([]simtime.Duration, len(spans))
	// lo is the first span that can still overlap the current window.
	// Event windows have non-decreasing starts (each starts no earlier
	// than max(its enqueue, the previous event's end)), so spans wholly
	// before the current window are dead for all later windows too.
	lo := 0
	for ai, idx := range anchors {
		m := recs[idx]
		e := Event{
			Kind:        kernel.MsgKind(m.Kind),
			Enqueued:    m.Enqueued,
			HandleStart: m.Return,
		}

		// Boundary: the application's next blocking wait (logged at call
		// time by the monitor), capped by the next anchor's dequeue.
		boundary := nextBlock[idx+1]
		if ai+1 < len(anchors) {
			next := recs[anchors[ai+1]]
			if next.Return < boundary {
				boundary = next.Return
			}
		}
		if boundary < e.HandleStart {
			boundary = e.HandleStart
		}

		// Attribute stolen mass within [max(enqueued, prevEnd), boundary]
		// to this event, consuming spans so overlapping windows share
		// correctly.
		from := e.Enqueued
		if prevEnd > from {
			from = prevEnd
		}
		window := Span{Start: from, End: boundary}
		end := e.HandleStart
		gaps := false
		covered := false
		var busy simtime.Duration
		for lo < len(spans) && spans[lo].Span.End <= window.Start {
			lo++
		}
		for i := lo; i < len(spans); i++ {
			bs := spans[i]
			if bs.Span.Start >= window.End {
				break // spans are time-ordered; none later can overlap
			}
			if !bs.Span.Overlaps(window) {
				continue
			}
			if covered && bs.Span.Start > end {
				gaps = true
			}
			covered = true
			avail := bs.Stolen - consumed[i]
			if avail < 0 {
				avail = 0
			}
			take := avail
			if bs.Span.End > window.End {
				// The span continues past the boundary (the next event's
				// handling): within the window the CPU was saturated, so
				// the window's share is its busy extent.
				start := bs.Span.Start
				if window.Start > start {
					start = window.Start
				}
				if inWindow := window.End.Sub(start); inWindow < take {
					take = inWindow
				}
			}
			consumed[i] += take
			busy += take
			if bs.Span.End > end {
				end = bs.Span.End
			}
		}
		if end > boundary {
			end = boundary
		}
		e.End = end
		e.Busy = busy
		e.Gapped = gaps

		if gaps {
			// Paced events: wall-clock span at sample resolution.
			e.Latency = e.End.Sub(e.Enqueued)
		} else {
			// Contiguous events: queue wait (exact, from the message
			// trace) plus this event's stolen mass (exact, from the
			// idle loop).
			e.Latency = window.Start.Sub(e.Enqueued) + busy
		}

		if opts.StripQueueSync {
			e.StrippedSync = queueSyncTime(recs, idx, boundary)
			if e.StrippedSync > e.Latency {
				e.StrippedSync = e.Latency
			}
			e.Latency -= e.StrippedSync
		}
		if e.Latency < 0 {
			e.Latency = 0
		}
		prevEnd = e.End
		events = append(events, e)
	}
	return events
}

// queueSyncTime measures the processing time of WM_QUEUESYNC messages
// dequeued within (anchor, boundary]: from each sync dequeue to the
// application's next message-API call.
func queueSyncTime(recs []trace.MsgRecord, anchor int, boundary simtime.Time) simtime.Duration {
	var total simtime.Duration
	for j := anchor + 1; j < len(recs); j++ {
		r := recs[j]
		if r.Return > boundary {
			break
		}
		if !r.Received || kernel.MsgKind(r.Kind) != kernel.WMQueueSync {
			continue
		}
		// Processing runs from this dequeue to the next API call.
		if j+1 < len(recs) {
			total += recs[j+1].Call.Sub(r.Return)
		}
	}
	if total < 0 {
		return 0
	}
	return total
}

// Latencies returns the events' latencies in milliseconds, in order.
func Latencies(events []Event) []float64 {
	out := make([]float64, len(events))
	for i, e := range events {
		out[i] = e.Latency.Milliseconds()
	}
	return out
}

// Starts returns the events' enqueue times, in order.
func Starts(events []Event) []simtime.Time {
	out := make([]simtime.Time, len(events))
	for i, e := range events {
		out[i] = e.Enqueued
	}
	return out
}

// FilterLatencyAbove returns the events with latency of at least min (the
// paper pre-filters PowerPoint events below 50 ms, §5.2).
func FilterLatencyAbove(events []Event, min simtime.Duration) []Event {
	var out []Event
	for _, e := range events {
		if e.Latency >= min {
			out = append(out, e)
		}
	}
	return out
}
