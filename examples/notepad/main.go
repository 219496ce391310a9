// Notepad session: the paper's §5.1 benchmark on all three simulated
// operating systems, showing the Fig. 7 comparison — including its
// anomaly: Windows 95 has the smallest cumulative event latency yet the
// largest elapsed busy time, because the Test driver's WM_QUEUESYNC
// messages cost most there.
//
//	go run ./examples/notepad
package main

import (
	"fmt"
	"os"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/input"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
	"latlab/internal/viz"
)

func main() {
	text := input.SampleText(400)
	for _, p := range persona.All() {
		sys := system.New(system.Config{Persona: p})
		probe := core.AttachProbe(sys.K)
		idle := core.StartIdleLoop(sys.K)
		notepad := apps.NewNotepad(sys)

		// Type at ~100 wpm with a page-down at the end; Test-style input
		// (WM_QUEUESYNC after every event).
		evs := input.TypeText(simtime.Time(300*simtime.Millisecond), text, 120*simtime.Millisecond)
		last := evs[len(evs)-1].At
		evs = append(evs, input.KeyDowns(last.Add(simtime.Second), input.VKPageDown, 3, 400*simtime.Millisecond)...)
		script := &input.Script{Events: evs, QueueSync: true}
		script.Install(sys)
		sys.K.Run(script.End().Add(2 * simtime.Second))

		events := idle.Extract(probe.Msgs, core.ExtractOptions{
			Thread:         notepad.Thread().ID(),
			StripQueueSync: true, // remove the Test artifact, as the paper does
		})
		rep := core.NewReport(events, simtime.Duration(sys.K.Now()))

		fmt.Printf("%s: %d events, cumulative latency %v, busy elapsed %v\n",
			p.Name, len(events), rep.TotalLatency(), sys.K.NonIdleBusyTime())
		fmt.Printf("  %.0f%% of latency from events under 10ms; longest event %v\n",
			100*rep.FractionBelow(10), maxLatency(events))
		if err := viz.CumulativeCurve(os.Stdout, "  cumulative latency",
			rep.CumulativeCurve(), rep.Elapsed, 70, 6); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		sys.Shutdown()
	}
}

func maxLatency(events []core.Event) simtime.Duration {
	var m simtime.Duration
	for _, e := range events {
		if e.Latency > m {
			m = e.Latency
		}
	}
	return m
}
