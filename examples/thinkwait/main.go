// Think/wait decomposition: run the complete Fig. 2 finite state machine
// over a mixed session — typing bursts, composition pauses, a synchronous
// document load, and an asynchronous background read — and print how the
// session splits into think time and wait time per system.
//
// The paper implements only part of this FSM ("Implementation of the
// full FSM requires additional system support for monitoring I/O and
// message queue state transitions"); the simulated kernel provides those
// hooks, so this example runs the complete design.
//
//	go run ./examples/thinkwait
package main

import (
	"fmt"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

func main() {
	fmt.Println("Fig. 2 think/wait FSM over a mixed editing session")
	fmt.Printf("\n  %-18s %10s %10s %8s %13s\n", "system", "think", "wait", "wait%", "transitions")

	for _, p := range persona.All() {
		sys := system.New(system.Config{Persona: p})
		probe := core.AttachProbe(sys.K)
		core.StartIdleLoop(sys.K)

		doc := sys.K.Cache().AddFile("doc", 350_000, 200)
		work := cpu.Segment{Name: "edit", BaseCycles: 250_000,
			CodePages: []uint64{420, 421}, DataPages: []uint64{1420}}
		app := sys.SpawnApp("editor", func(tc *kernel.TC) {
			// Synchronous load: wait time with an idle CPU — the case a
			// CPU-only classifier would call "think".
			tc.ReadFile(doc, 0, 120)
			// Kick off a background (asynchronous) preload of the rest.
			tc.ReadFileAsync(doc, 120, 80, kernel.WMIdleWork, 0)
			for {
				m := tc.GetMessage()
				switch m.Kind {
				case kernel.WMQuit:
					return
				case kernel.WMIdleWork:
					// Background completion: no user-visible work.
				case kernel.WMChar, kernel.WMKeyDown:
					tc.Compute(work)
					sys.Win.TextOut(tc, 1)
				}
			}
		})
		probe.Watch(app)
		sys.Win.BindApp([]uint64{420, 421})

		ty := input.NewTypist(42, 80)
		script := &input.Script{Events: ty.Type(simtime.Time(3*simtime.Second), input.SampleText(120))}
		script.Install(sys)
		end := sys.K.Run(script.End().Add(2 * simtime.Second))

		f := probe.FSM(end)
		think, wait := f.ThinkTime(), f.WaitTime()
		fmt.Printf("  %-18s %9.2fs %9.2fs %7.1f%% %13d\n",
			p.Name, think.Seconds(), wait.Seconds(),
			100*float64(wait)/float64(think+wait), f.Transitions())
		sys.Shutdown()
	}

	fmt.Println("\nThe synchronous load counts as wait time even though the CPU is idle;")
	fmt.Println("the asynchronous preload counts as background and never blocks the user.")
}
