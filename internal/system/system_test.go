package system

import (
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

func TestBootSpawnsBackground(t *testing.T) {
	s := New(Config{Persona: persona.W95()})
	defer s.Shutdown()
	// Run 500 ms idle; the W95 housekeeping threads must generate busy
	// time even with no application.
	s.K.Run(simtime.Time(500 * simtime.Millisecond))
	if got := s.K.NonIdleBusyTime(); got < simtime.FromMillis(1) {
		t.Fatalf("W95 idle-time background busy = %v, want > 1ms", got)
	}

	nt := New(Config{Persona: persona.NT40()})
	defer nt.Shutdown()
	nt.K.Run(simtime.Time(500 * simtime.Millisecond))
	// NT idles except for clock interrupts: 50 ticks × ~4 µs ≈ 0.2 ms.
	if got := nt.K.NonIdleBusyTime(); got > simtime.FromMillis(1) {
		t.Fatalf("NT 4.0 idle busy = %v, want clock-only (<1ms)", got)
	}
}

func TestKeyboardInjection(t *testing.T) {
	s := New(Config{Persona: persona.NT40()})
	defer s.Shutdown()
	var got []kernel.Msg
	s.SpawnApp("app", func(tc *kernel.TC) {
		for len(got) < 2 {
			got = append(got, tc.GetMessage())
		}
	})
	s.K.At(simtime.Time(10*simtime.Millisecond), func(simtime.Time) {
		s.Inject(kernel.WMKeyDown, 'a', true)
	})
	s.K.Run(simtime.Time(simtime.Second))
	if len(got) != 2 {
		t.Fatalf("messages = %d, want key + queuesync", len(got))
	}
	if got[0].Kind != kernel.WMKeyDown || got[1].Kind != kernel.WMQueueSync {
		t.Fatalf("order = %v,%v; want WM_KEYDOWN then WM_QUEUESYNC", got[0].Kind, got[1].Kind)
	}
	if got[0].Enqueued != simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("enqueued = %v, want injection instant", got[0].Enqueued)
	}
}

func TestMouseClickNTDirect(t *testing.T) {
	s := New(Config{Persona: persona.NT40()})
	defer s.Shutdown()
	var kinds []kernel.MsgKind
	s.SpawnApp("app", func(tc *kernel.TC) {
		for len(kinds) < 2 {
			kinds = append(kinds, tc.GetMessage().Kind)
		}
	})
	s.K.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMMouseDown, 0, false) })
	s.K.At(simtime.Time(105*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMMouseUp, 0, false) })
	s.K.Run(simtime.Time(simtime.Second))
	if len(kinds) != 2 || kinds[0] != kernel.WMMouseDown || kinds[1] != kernel.WMMouseUp {
		t.Fatalf("kinds = %v", kinds)
	}
	// NT: the system was essentially idle between down and up.
	if busy := s.K.NonIdleBusyTime(); busy > simtime.FromMillis(5) {
		t.Fatalf("NT busy during click = %v, want ≪ press duration", busy)
	}
}

func TestMouseClickW95BusyWaits(t *testing.T) {
	// Paper §4/Fig. 6: under Windows 95 the CPU spins from mouse-down to
	// mouse-up, so measured busy time ≈ press duration.
	s := New(Config{Persona: persona.W95()})
	defer s.Shutdown()
	var kinds []kernel.MsgKind
	s.SpawnApp("app", func(tc *kernel.TC) {
		for len(kinds) < 2 {
			kinds = append(kinds, tc.GetMessage().Kind)
		}
	})
	s.K.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMMouseDown, 0, false) })
	s.K.At(simtime.Time(105*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMMouseUp, 0, false) })
	s.K.Run(simtime.Time(simtime.Second))
	if len(kinds) != 2 || kinds[0] != kernel.WMMouseDown || kinds[1] != kernel.WMMouseUp {
		t.Fatalf("kinds = %v (router must forward both)", kinds)
	}
	busy := s.K.NonIdleBusyTime()
	if busy < simtime.FromMillis(95) {
		t.Fatalf("W95 busy during click = %v, want ≈ press duration (100ms)", busy)
	}
}

func TestInjectWithoutFocusPanics(t *testing.T) {
	s := New(Config{Persona: persona.NT40()})
	defer s.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	s.Inject(kernel.WMKeyDown, 'a', false)
}

func TestNewProcUnique(t *testing.T) {
	s := New(Config{Persona: persona.NT40()})
	defer s.Shutdown()
	a, b := s.NewProc(), s.NewProc()
	if a == b || a == kernel.KernelProc {
		t.Fatalf("proc ids not unique: %v, %v", a, b)
	}
}

func TestFocusSwitching(t *testing.T) {
	s := New(Config{Persona: persona.NT40()})
	defer s.Shutdown()
	var gotA, gotB int
	a := s.SpawnApp("a", func(tc *kernel.TC) {
		for {
			if m := tc.GetMessage(); m.Kind == kernel.WMQuit {
				return
			}
			gotA++
		}
	})
	b := s.SpawnApp("b", func(tc *kernel.TC) {
		for {
			if m := tc.GetMessage(); m.Kind == kernel.WMQuit {
				return
			}
			gotB++
		}
	})
	s.SetFocus(a)
	if s.Focus() != a {
		t.Fatalf("focus accessor wrong")
	}
	s.K.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMKeyDown, 1, false) })
	s.K.At(simtime.Time(10*simtime.Millisecond), func(simtime.Time) { s.SetFocus(b) })
	s.K.At(simtime.Time(15*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMKeyDown, 2, false) })
	s.K.At(simtime.Time(20*simtime.Millisecond), func(simtime.Time) {
		s.K.PostMessage(a, kernel.WMQuit, 0)
		s.K.PostMessage(b, kernel.WMQuit, 0)
	})
	s.K.Run(simtime.Time(simtime.Second))
	if gotA != 1 || gotB != 1 {
		t.Fatalf("routing: a=%d b=%d, want 1/1", gotA, gotB)
	}
}

func TestW95MouseClickWithQueueSync(t *testing.T) {
	// The Test driver posts WM_QUEUESYNC after the mouse-down; the router
	// must forward it mid-busy-wait without ending the wait.
	s := New(Config{Persona: persona.W95()})
	defer s.Shutdown()
	var kinds []kernel.MsgKind
	s.SpawnApp("app", func(tc *kernel.TC) {
		for len(kinds) < 4 {
			kinds = append(kinds, tc.GetMessage().Kind)
		}
	})
	s.K.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMMouseDown, 0, true) })
	s.K.At(simtime.Time(85*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMMouseUp, 0, true) })
	s.K.Run(simtime.Time(simtime.Second))
	want := []kernel.MsgKind{kernel.WMMouseDown, kernel.WMQueueSync, kernel.WMMouseUp, kernel.WMQueueSync}
	if len(kinds) != 4 {
		t.Fatalf("forwarded = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("forward order = %v, want %v", kinds, want)
		}
	}
	if busy := s.K.NonIdleBusyTime(); busy < simtime.FromMillis(75) {
		t.Fatalf("busy-wait should still span the press: %v", busy)
	}
}

func TestW95KeyboardBypassesRouter(t *testing.T) {
	s := New(Config{Persona: persona.W95()})
	defer s.Shutdown()
	var got kernel.Msg
	s.SpawnApp("app", func(tc *kernel.TC) { got = tc.GetMessage() })
	s.K.At(simtime.Time(5*simtime.Millisecond), func(simtime.Time) { s.Inject(kernel.WMKeyDown, 'k', false) })
	s.K.Run(simtime.Time(200 * simtime.Millisecond))
	if got.Kind != kernel.WMKeyDown || got.Param != 'k' {
		t.Fatalf("keyboard should go straight to the app: %+v", got)
	}
	// No busy-wait for keys: system mostly idle.
	if busy := s.K.NonIdleBusyTime(); busy > simtime.FromMillis(10) {
		t.Fatalf("keyboard path busy = %v, want small", busy)
	}
}

// Every persona must boot and echo keystrokes on every hardware profile:
// the scenario-matrix experiments (ext-hw-*) assume any cell of the
// persona × machine grid is runnable.
func TestBootMatrixEveryPersonaOnEveryMachine(t *testing.T) {
	for _, p := range persona.All() {
		for _, m := range machine.All() {
			t.Run(p.Short+"/"+m.Short, func(t *testing.T) {
				s := New(Config{Persona: p, Machine: m})
				defer s.Shutdown()
				if s.M.Short != m.Short {
					t.Fatalf("booted machine = %q, want %q", s.M.Short, m.Short)
				}
				echoed := 0
				s.SpawnApp("echo", func(tc *kernel.TC) {
					for {
						if tc.GetMessage().Kind == kernel.WMKeyDown {
							s.Win.TextOut(tc, 1)
							echoed++
						}
					}
				})
				for i := 0; i < 3; i++ {
					at := simtime.Time((50 + 100*i)) * simtime.Time(simtime.Millisecond)
					s.K.At(at, func(simtime.Time) { s.Inject(kernel.WMKeyDown, 'x', false) })
				}
				s.K.Run(simtime.Time(simtime.Second))
				if echoed != 3 {
					t.Fatalf("echoed %d keystrokes, want 3", echoed)
				}
			})
		}
	}
}

// On a multicore profile the persona's background housekeeping runs on
// the auxiliary cores: the scheduler core's ground-truth busy time must
// drop relative to the single-core twin, the displaced work must show
// up in AuxBusyTime, and the foreground must still echo every key.
func TestModernProfilesOffloadBackgroundWork(t *testing.T) {
	for _, p := range persona.All() {
		t.Run(p.Short, func(t *testing.T) {
			run := func(m machine.Profile) (core0, aux simtime.Duration) {
				s := New(Config{Persona: p, Machine: m})
				defer s.Shutdown()
				s.SpawnApp("echo", func(tc *kernel.TC) {
					for {
						if tc.GetMessage().Kind == kernel.WMKeyDown {
							s.Win.TextOut(tc, 1)
						}
					}
				})
				for i := 0; i < 5; i++ {
					at := simtime.Time((50 + 300*i)) * simtime.Time(simtime.Millisecond)
					s.K.At(at, func(simtime.Time) { s.Inject(kernel.WMKeyDown, 'x', false) })
				}
				s.K.Run(simtime.Time(3 * simtime.Second))
				return s.K.NonIdleBusyTime(), s.K.AuxBusyTime()
			}
			multiCore0, multiAux := run(machine.Modern2026Pinned())
			uniCore0, uniAux := run(machine.Modern2026Uni())
			if uniAux != 0 {
				t.Fatalf("single-core machine reported aux busy time %v", uniAux)
			}
			if len(p.Background) > 0 {
				if multiAux <= 0 {
					t.Fatalf("multicore machine ran no background work on aux cores")
				}
				if multiCore0 >= uniCore0 {
					t.Fatalf("offload did not reduce scheduler-core busy: multi %v vs uni %v", multiCore0, uniCore0)
				}
			}
		})
	}
}

// The DVFS governor must ramp up under load and decay back to the
// bottom level across an idle stretch — observable end to end through a
// booted system, not just the pure Next function.
func TestDVFSGovernorRampsAndDecays(t *testing.T) {
	s := New(Config{Persona: persona.NT40(), Machine: machine.Modern2026()})
	defer s.Shutdown()
	spec := machine.Modern2026().DVFS
	if got := s.K.CPU().Clock(); got != spec.Level(0) {
		t.Fatalf("boot clock = %v, want bottom level %v", got, spec.Level(0))
	}
	busyUntil := simtime.Time(300 * simtime.Millisecond)
	s.SpawnApp("burn", func(tc *kernel.TC) {
		for tc.Now() < busyUntil {
			tc.Compute(cpu.Segment{Name: "burn", BaseCycles: 2_000_000})
		}
		tc.GetMessage() // park forever
	})
	s.K.Run(simtime.Time(250 * simtime.Millisecond))
	if lvl := s.K.DVFSLevel(); lvl != spec.NumLevels()-1 {
		t.Fatalf("sustained load reached level %d, want top %d", lvl, spec.NumLevels()-1)
	}
	s.K.Run(simtime.Time(2 * simtime.Second))
	if lvl := s.K.DVFSLevel(); lvl != 0 {
		t.Fatalf("idle stretch decayed to level %d, want 0", lvl)
	}
	if got := s.K.CPU().Clock(); got != spec.Level(0) {
		t.Fatalf("idle clock = %v, want %v", got, spec.Level(0))
	}
}

// Booting on the zero Machine must give the paper's Pentium: the
// default for configs that never mention hardware.
func TestBootOnZeroProfileIsPentium100(t *testing.T) {
	s := New(Config{Persona: persona.NT40(), Machine: machine.Profile{}})
	defer s.Shutdown()
	if s.M.Short != "p100" {
		t.Fatalf("zero profile booted %q, want p100", s.M.Short)
	}
	if got := s.K.Machine().Short; got != "p100" {
		t.Fatalf("kernel machine = %q, want p100", got)
	}
}
