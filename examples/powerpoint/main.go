// PowerPoint scenario: the paper's §5.2 long-latency task — cold start,
// open a 46-slide deck with three embedded graph objects, browse, edit
// each object in place, save — driven with completion-paced input and
// measured with the idle-loop methodology. Prints the Table-1-style
// long-event list and the time series of events over 50 ms (Fig. 12).
//
//	go run ./examples/powerpoint [-persona nt40]
package main

import (
	"flag"
	"fmt"
	"os"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
	"latlab/internal/viz"
)

func main() {
	personaName := flag.String("persona", "nt40", "nt351, nt40, or w95")
	flag.Parse()
	p, ok := persona.ByShort(*personaName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown persona %q\n", *personaName)
		os.Exit(1)
	}

	sys := system.New(system.Config{Persona: p})
	defer sys.Shutdown()
	probe := core.AttachProbe(sys.K)
	idle := core.StartIdleLoop(sys.K)
	idle.Record() // core.Extract below reads the raw samples
	ppt := apps.NewPowerpoint(sys, apps.DefaultPowerpointParams())

	// Completion-paced task: each input goes in 300 ms after the app
	// quiesces from the previous one.
	type stepT struct {
		kind  kernel.MsgKind
		param int64
	}
	var steps []stepT
	steps = append(steps, stepT{kernel.WMCommand, apps.CmdLaunch}, stepT{kernel.WMCommand, apps.CmdOpen})
	for i := 0; i < 3; i++ {
		for j := 0; j < []int{9, 10, 10}[i]; j++ {
			steps = append(steps, stepT{kernel.WMKeyDown, input.VKPageDown})
		}
		steps = append(steps, stepT{kernel.WMCommand, apps.CmdEditObject + int64(i)})
		steps = append(steps, stepT{kernel.WMChar, '7'}, stepT{kernel.WMChar, '3'})
		steps = append(steps, stepT{kernel.WMCommand, apps.CmdEndEdit})
	}
	steps = append(steps, stepT{kernel.WMCommand, apps.CmdSave})

	i := 0
	quiet := func() bool {
		f := sys.Focus()
		return f.State() == kernel.StateBlockedMsg && f.QueueLen() == 0 && sys.K.SyncIOOutstanding() == 0
	}
	for i < len(steps) && sys.K.Now() < simtime.Time(300*simtime.Second) {
		sys.K.RunFor(20 * simtime.Millisecond)
		if quiet() {
			st := steps[i]
			sys.K.RunFor(300 * simtime.Millisecond)
			sys.K.At(sys.K.Now()+1, func(simtime.Time) { sys.Inject(st.kind, st.param, true) })
			sys.K.RunFor(40 * simtime.Millisecond)
			i++
		}
	}
	// Let the final save run to completion, plus trailing idle time so
	// the extractor sees the system quiesce.
	for !quiet() && sys.K.Now() < simtime.Time(300*simtime.Second) {
		sys.K.RunFor(200 * simtime.Millisecond)
	}
	sys.K.RunFor(2 * simtime.Second)

	events := core.Extract(idle.Samples(), probe.Msgs, core.ExtractOptions{
		Thread: ppt.Thread().ID(), StripQueueSync: true,
	})

	fmt.Printf("%s — PowerPoint task: %d events, %d page-downs, %d OLE edits, %d save\n\n",
		p.Name, len(events), ppt.PageDowns, ppt.Edits, ppt.Saves)
	fmt.Println("events with latency over one second:")
	for _, e := range viz.SortedByLatency(events) {
		if e.Latency < simtime.Second {
			break
		}
		fmt.Printf("  %-14s at %8.1fs   latency %6.3fs\n",
			e.Kind, e.Enqueued.Seconds(), e.Latency.Seconds())
	}
	fmt.Println()
	long := core.FilterLatencyAbove(events, 50*simtime.Millisecond)
	if err := viz.TimeSeries(os.Stdout, "events over 50ms (Fig. 12 view)",
		long, 1000, 100, 10); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
