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

// Probe attaches to a kernel's observation hooks. It logs every
// message-API call, which event extraction reads, and drives the Fig. 2
// think/wait FSM online from the hooks as they fire: CPU and synchronous
// I/O state from the whole machine, queue state from the one watched
// thread (Watch). The kernel fires its hooks in the order the state
// changed, so nothing is buffered or replayed. Attach exactly one Probe
// per kernel, before running.
type Probe struct {
	Msgs []trace.MsgRecord

	fsm FSM
	// watch is the watched thread's id; thread ids start at 1, so 0
	// watches none.
	watch int
}

// AttachProbe installs the probe's hooks on k and returns it.
func AttachProbe(k *kernel.Kernel) *Probe {
	p := &Probe{}
	k.SetHooks(p.hooks())
	return p
}

// hooks returns the kernel hooks that feed the probe.
func (p *Probe) hooks() kernel.Hooks {
	return kernel.Hooks{
		OnMsgAPI: func(rec trace.MsgRecord) {
			p.Msgs = append(p.Msgs, rec)
			if rec.Thread == p.watch {
				p.fsm.SetQueue(rec.QueueLen, rec.Return)
			}
		},
		OnPost: func(target *kernel.Thread, _ kernel.Msg, now simtime.Time, qlen int) {
			if target.ID() == p.watch {
				p.fsm.SetQueue(qlen, now)
			}
		},
		OnBusy:   p.fsm.SetCPU,
		OnSyncIO: p.fsm.SetSyncIO,
	}
}

// Watch names the thread whose message queue feeds the FSM: the
// session's application thread. Call it before the thread is first
// posted to.
func (p *Probe) Watch(t *kernel.Thread) { p.watch = t.ID() }

// FSM finishes the think/wait FSM at end, the run's end, and returns
// it. It panics when no thread is watched: that FSM never saw a queue
// input.
func (p *Probe) FSM(end simtime.Time) *FSM {
	if p.watch == 0 {
		panic("core: Probe.FSM with no watched thread")
	}
	p.fsm.Finish(end)
	return &p.fsm
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
