// Package system assembles a bootable simulated machine: a kernel
// configured by a persona, the persona's window system, its background
// housekeeping threads, and the input-routing policy — including the
// Windows 95 behaviour of busy-waiting between mouse-down and mouse-up
// that the paper's Fig. 6 exposes.
package system

import (
	"latlab/internal/faults"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/spans"
	"latlab/internal/winsys"
)

// Scheduling priorities used across the experiments.
const (
	// IdlePrio is the idle class: the idle-loop instrument runs here.
	IdlePrio = kernel.IdlePriority
	// BackgroundPrio is OS housekeeping.
	BackgroundPrio = 4
	// AppPrio is the foreground application.
	AppPrio = 8
	// RouterPrio is system-level input routing (above applications).
	RouterPrio = 12
)

// System is one booted machine.
type System struct {
	K   *kernel.Kernel
	P   persona.P
	M   machine.Profile
	Win *winsys.WinSys

	focus    *kernel.Thread
	router   *kernel.Thread
	nextProc kernel.ProcID
}

// Config describes one machine to boot: who it pretends to be
// (Persona), what it runs on (Machine), and the optional cross-cutting
// attachments — a fault plan to arm and a span recorder to observe
// with. It is the single construction surface the scenario compiler
// lowers onto; the zero value of every field but Persona is valid.
type Config struct {
	// Persona is the OS personality to boot. Required: an unnamed
	// persona (empty Name) panics, because a zero persona.P would
	// otherwise boot a silently meaningless machine.
	Persona persona.P
	// Machine is the hardware profile; the zero value means the paper's
	// Pentium (machine.Pentium100).
	Machine machine.Profile
	// Faults is armed on the booted kernel with a kernel-only target
	// (faults.Target{K: ...}), before any application is spawned. Fault
	// kinds that need richer targets — PriorityInversion's victim
	// thread, a custom storm segment — are skipped or defaulted by
	// faults.Arm; callers needing them arm their own faults.Clock
	// instead and leave this empty. The empty plan takes the exact
	// fault-free code path.
	Faults faults.Plan
	// Spans, when non-nil, is attached to the kernel before the first
	// event runs, so the whole boot is observable. Recording never
	// perturbs the simulation.
	Spans *spans.Recorder
}

// New builds and starts a machine from cfg: kernel on cfg.Machine,
// window system, the persona's background threads, and (for personas
// with MouseBusyWait) the mouse router; then arms cfg.Faults and
// attaches cfg.Spans. Call Shutdown when done to release thread
// goroutines.
func New(cfg Config) *System {
	if cfg.Persona.Name == "" {
		panic("system: New with zero-value Persona")
	}
	p, prof := cfg.Persona, cfg.Machine.OrDefault()
	kcfg := p.Kernel
	kcfg.Machine = prof
	s := &System{K: kernel.New(kcfg), P: p, M: prof, nextProc: 1}
	s.Win = winsys.New(s.K, p)

	for _, b := range p.Background {
		b := b
		// Housekeeping threads are kernel-resident loops (no goroutine):
		// the phase toggle issues the identical Sleep/Compute request
		// stream the goroutine form did. On a multicore profile they are
		// pinned to logical CPU 1 — the housekeeping core, spilling onto
		// further aux cores under contention — so the scheduler core
		// (and the idle-loop instrument watching it) never sees them.
		sleep := true
		fn := func(lc *kernel.LoopTC) bool {
			if sleep {
				lc.Sleep(b.Period)
			} else {
				lc.Compute(b.Burst)
			}
			sleep = !sleep
			return true
		}
		if prof.Cores > 1 {
			s.K.SpawnLoopOn(b.Name, kernel.KernelProc, BackgroundPrio, 1, fn)
		} else {
			s.K.SpawnLoop(b.Name, kernel.KernelProc, BackgroundPrio, fn)
		}
	}

	if p.MouseBusyWait {
		s.router = s.K.Spawn("mouse16", kernel.KernelProc, RouterPrio, s.mouseRouter)
	}
	if !cfg.Faults.Empty() {
		faults.NewClock(cfg.Faults).Arm(faults.Target{K: s.K})
	}
	if cfg.Spans != nil {
		s.K.SetRecorder(cfg.Spans)
	}
	return s
}

// mouseRouter reproduces the Windows 95 behaviour the paper found: "the
// system busy-waits between 'mouse down' and 'mouse up' events", so the
// measured latency of a click is the duration of the user's press.
func (s *System) mouseRouter(tc *kernel.TC) {
	for {
		m := tc.GetMessage()
		if m.Kind != kernel.WMMouseDown {
			tc.Forward(s.focus, m)
			continue
		}
		tc.Forward(s.focus, m)
		for {
			if m2, ok := tc.PeekMessage(); ok {
				tc.Forward(s.focus, m2)
				if m2.Kind == kernel.WMMouseUp {
					break
				}
				continue
			}
			tc.Compute(s.P.MousePoll)
		}
	}
}

// NewProc allocates a fresh address space for an application.
func (s *System) NewProc() kernel.ProcID {
	p := s.nextProc
	s.nextProc++
	return p
}

// SpawnApp starts an application main thread in its own process at
// foreground priority and gives it input focus.
func (s *System) SpawnApp(name string, body func(tc *kernel.TC)) *kernel.Thread {
	t := s.K.Spawn(name, s.NewProc(), AppPrio, body)
	s.SetFocus(t)
	return t
}

// SetFocus directs subsequent input to t.
func (s *System) SetFocus(t *kernel.Thread) { s.focus = t }

// Focus returns the focused thread.
func (s *System) Focus() *kernel.Thread { return s.focus }

// Inject delivers one user-input event through the persona's hardware
// path. When sync is true, a WM_QUEUESYNC follows the event in the same
// queue — the Microsoft Test artifact (paper §5.4). Must be called from
// simulator context (e.g. a k.At callback).
func (s *System) Inject(kind kernel.MsgKind, param int64, sync bool) {
	if s.focus == nil {
		panic("system: input injected with no focused application")
	}
	target := s.focus
	handler := s.P.Kernel.KeyboardInterrupt
	switch kind {
	case kernel.WMMouseDown, kernel.WMMouseUp:
		handler = s.P.Kernel.MouseInterrupt
		if s.router != nil {
			target = s.router
		}
	}
	msgs := []kernel.Msg{{Kind: kind, Param: param}}
	if sync {
		msgs = append(msgs, kernel.Msg{Kind: kernel.WMQueueSync})
	}
	s.K.DeviceInterrupt(handler, target, msgs...)
}

// Shutdown stops all threads.
func (s *System) Shutdown() { s.K.Shutdown() }
