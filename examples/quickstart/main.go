// Quickstart: measure the event-handling latency of a tiny interactive
// application with latlab's idle-loop methodology.
//
// It boots a simulated Windows NT 4.0 machine, replaces the idle loop
// with the calibrated instrument, attaches the message-API monitor, runs
// a message-driven app under keystroke input, and extracts per-event
// latencies — the paper's core technique end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
	"latlab/internal/viz"
)

func main() {
	// 1. Boot a machine with the NT 4.0 personality.
	sys := system.New(system.Config{Persona: persona.NT40()})
	defer sys.Shutdown()

	// 2. Install the measurement methodology: probe + idle loop.
	probe := core.AttachProbe(sys.K)
	idle := core.StartIdleLoop(sys.K)
	idle.Record() // keep the raw samples for core.Extract in step 5

	// 3. A minimal interactive application: 3 ms of work per keystroke,
	//    then echo the character through the window system.
	work := cpu.Segment{Name: "app-work", BaseCycles: 300_000,
		Instructions: 180_000, DataRefs: 70_000,
		CodePages: []uint64{400, 401}, DataPages: []uint64{1400}}
	app := sys.SpawnApp("demo", func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == kernel.WMQuit {
				return
			}
			tc.Compute(work)
			sys.Win.TextOut(tc, 1)
		}
	})
	sys.Win.BindApp([]uint64{400, 401})

	// 4. Type "hello latency" at 100 words per minute.
	script := &input.Script{
		Events: input.TypeText(simtime.Time(200*simtime.Millisecond),
			"hello latency", 120*simtime.Millisecond),
	}
	script.Install(sys)
	sys.K.Run(script.End().Add(simtime.Second))

	// 5. Extract events by correlating the idle-loop trace with the
	//    message-API trace.
	events := core.Extract(idle.Samples(), probe.Msgs, core.ExtractOptions{
		Thread: app.ID(),
	})

	fmt.Printf("measured %d keystroke events:\n\n", len(events))
	for i, e := range events {
		fmt.Printf("  key %2d: enqueued %8v  latency %8v  (busy %v)\n",
			i+1, e.Enqueued, e.Latency, e.Busy)
	}
	rep := core.NewReport(events, simtime.Duration(sys.K.Now()))
	s := rep.Summary()
	fmt.Printf("\nmean latency %.2fms, std %.2fms; ground-truth busy time %v\n",
		s.Mean, s.StdDev, sys.K.NonIdleBusyTime())

	fmt.Println()
	if err := viz.Histogram(os.Stdout, "latency histogram (log count)",
		rep.Histogram(0, 10, 10), 30); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
