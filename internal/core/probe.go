// Package core implements the paper's measurement methodology:
//
//   - an idle-loop instrument that replaces the OS idle loop with a
//     calibrated busy-wait and detects event handling as lost time
//     (paper §2.3);
//   - a message-API monitor over GetMessage/PeekMessage (§2.4);
//   - a think-time/wait-time finite state machine over CPU, queue, and
//     synchronous-I/O state (§2.3, Fig. 2);
//   - an event extractor that correlates the idle-loop trace with the
//     message trace to produce per-event latencies, including removal of
//     the Microsoft Test WM_QUEUESYNC artifact (§5.1, §5.4);
//   - latency reports (histograms, cumulative-latency curves,
//     interarrival analysis) matching §3.2;
//   - CPU-utilization profiles (Figs. 3-4) and a hardware-counter
//     measurement facade (Figs. 9-10).
//
// The measurement path never reads simulator ground truth: everything is
// derived from the cycle counter, the idle-loop trace, and the message
// monitor — exactly the information the paper had. Ground truth is used
// only by tests to validate the methodology, which is itself one of the
// paper's claims (Fig. 1).
package core

import (
	"latlab/internal/kernel"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// PostRecord logs one message enqueue observed by the probe.
type PostRecord struct {
	Thread   int
	Kind     int
	At       simtime.Time
	QueueLen int
}

// BusyChange logs a ground-truth CPU busy/idle transition. It is exposed
// for validation; the measured path derives CPU state from idle samples.
type BusyChange struct {
	Busy bool
	At   simtime.Time
}

// SyncIOChange logs a change in outstanding synchronous I/O.
type SyncIOChange struct {
	Outstanding int
	At          simtime.Time
}

// Probe attaches to a kernel's observation hooks and records everything
// the methodology (and its validation) needs. Attach exactly one Probe
// per kernel, before running.
type Probe struct {
	Msgs   []trace.MsgRecord
	Posts  []PostRecord
	Busy   []BusyChange
	SyncIO []SyncIOChange
}

// AttachProbe installs the probe's hooks on k and returns it.
func AttachProbe(k *kernel.Kernel) *Probe {
	p := &Probe{}
	k.SetHooks(kernel.Hooks{
		OnMsgAPI: func(rec trace.MsgRecord) { p.Msgs = append(p.Msgs, rec) },
		OnPost: func(target *kernel.Thread, msg kernel.Msg, now simtime.Time, qlen int) {
			p.Posts = append(p.Posts, PostRecord{
				Thread: target.ID(), Kind: int(msg.Kind), At: now, QueueLen: qlen,
			})
		},
		OnBusy: func(busy bool, now simtime.Time) {
			p.Busy = append(p.Busy, BusyChange{Busy: busy, At: now})
		},
		OnSyncIO: func(outstanding int, now simtime.Time) {
			p.SyncIO = append(p.SyncIO, SyncIOChange{Outstanding: outstanding, At: now})
		},
	})
	return p
}

// AttachMsgProbe installs only the probe's message-API hook on k and
// returns it: Msgs fills as under AttachProbe, while Posts, Busy and
// SyncIO stay empty. That is everything Extract reads besides the idle
// samples, and nothing DriveFSM or GroundTruthBusySpans can use.
func AttachMsgProbe(k *kernel.Kernel) *Probe {
	p := &Probe{}
	k.SetHooks(kernel.Hooks{
		OnMsgAPI: func(rec trace.MsgRecord) { p.Msgs = append(p.Msgs, rec) },
	})
	return p
}

// MsgsForThread filters message records by thread id.
func (p *Probe) MsgsForThread(id int) []trace.MsgRecord {
	var out []trace.MsgRecord
	for _, m := range p.Msgs {
		if m.Thread == id {
			out = append(out, m)
		}
	}
	return out
}

// GroundTruthBusySpans converts the busy transition log into closed
// spans, ending an open span at end if still busy.
func (p *Probe) GroundTruthBusySpans(end simtime.Time) []Span {
	var spans []Span
	var open *Span
	for _, b := range p.Busy {
		if b.Busy && open == nil {
			open = &Span{Start: b.At}
		} else if !b.Busy && open != nil {
			open.End = b.At
			spans = append(spans, *open)
			open = nil
		}
	}
	if open != nil {
		open.End = end
		spans = append(spans, *open)
	}
	return spans
}

// Span is a half-open time interval [Start, End).
type Span struct {
	Start, End simtime.Time
}

// Duration returns End-Start.
func (s Span) Duration() simtime.Duration { return s.End.Sub(s.Start) }

// Contains reports whether t lies in [Start, End).
func (s Span) Contains(t simtime.Time) bool { return t >= s.Start && t < s.End }

// Overlaps reports whether two spans intersect.
func (s Span) Overlaps(o Span) bool { return s.Start < o.End && o.Start < s.End }
