package experiments

import (
	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

// This file is the one driver for fixed-pace keystroke sessions — the
// Microsoft Test shape of input, one keydown every gap whether or not
// the last one has finished — behind ext-hw-*, ext-attrib and every
// ext-modern-* experiment. Each experiment supplies only its keydown
// handler and its reduction of the finished run.

// keyWorkload is one paced-keystroke session: an application named app
// running from code pages code, fed one 'a' keydown every gapMs from
// 500 ms on, then tailMs of quiet time so the last event completes (and
// a DVFS governor decays). The app name and the segments its handler
// computes are span labels in traced output.
type keyWorkload struct {
	app           string
	code          []uint64
	keystrokes    int
	gapMs, tailMs int64
	// spans attaches the span recorder before the app spawns, for
	// reductions that read the span log.
	spans bool
	// samples turns the idle loop's sample tap on, for reductions that
	// read the raw samples.
	samples bool
}

// pacedKeystrokes is the session length of ext-hw-clock, ext-hw-l2 and
// the ext-modern family.
func pacedKeystrokes(cfg Config) int {
	if cfg.Quick {
		return 8
	}
	return 24
}

// keyRun is a finished paced-keystroke session, still booted so it can
// be reduced: the rig, the application thread, the hardware counters
// bracketing the run, and the clock interrupts taken during it.
type keyRun struct {
	r             *rig
	app           *kernel.Thread
	before, after [cpu.NumEventKinds]int64
	ticks         int64
}

// delta returns the run's count of one hardware event.
func (k *keyRun) delta(kind cpu.EventKind) int64 { return k.after[kind] - k.before[kind] }

// paceKeys boots persona p on prof, runs w with body handling each
// keydown, reduces the finished run and shuts the machine down.
func paceKeys[T any](cfg Config, p persona.P, prof machine.Profile, w keyWorkload,
	body func(r *rig, tc *kernel.TC), reduce func(k *keyRun) T) T {
	endMs := 500 + int64(w.keystrokes)*w.gapMs + w.tailMs
	r := newRigOn(cfg, p, prof)
	defer r.shutdown()
	if w.spans {
		r.spansOn()
	}
	if w.samples {
		r.il.Record()
	}
	app := r.sys.SpawnApp(w.app, func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == kernel.WMQuit {
				return
			}
			if m.Kind != kernel.WMKeyDown {
				continue
			}
			body(r, tc)
		}
	})
	r.sys.Win.BindApp(w.code)
	for i := 0; i < w.keystrokes; i++ {
		at := simtime.Time(500+int64(i)*w.gapMs) * simtime.Time(simtime.Millisecond)
		r.sys.K.At(at, func(simtime.Time) { r.sys.Inject(kernel.WMKeyDown, 'a', false) })
	}
	k := &keyRun{r: r, app: app, before: r.sys.K.CPU().Snapshot()}
	ticks := r.sys.K.ClockTicks()
	r.sys.K.Run(simtime.Time(endMs) * simtime.Time(simtime.Millisecond))
	k.after = r.sys.K.CPU().Snapshot()
	k.ticks = r.sys.K.ClockTicks() - ticks
	return reduce(k)
}
