// Word study: reproduce the paper's §5.4 comparison of Microsoft-Test-
// driven input against hand-generated typing on the Word model, showing
// how the driver's WM_QUEUESYNC synchronization messages inflate
// measured keystroke latencies (≈85 ms vs ≈32 ms) while hand input shows
// more background activity and much longer carriage returns.
//
//	go run ./examples/wordstudy
package main

import (
	"fmt"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/stats"
	"latlab/internal/system"
)

func run(testDriven bool) (typicalMs float64, crMaxMs float64, bgBursts int) {
	sys := system.New(system.Config{Persona: persona.NT351()})
	defer sys.Shutdown()
	probe := core.AttachProbe(sys.K)
	idle := core.StartIdleLoop(sys.K)
	idle.Record() // core.Extract below reads the raw samples
	word := apps.NewWord(sys, apps.DefaultWordParams())

	text := input.SampleText(180) + "\n" + input.SampleText(120) + "\n" + input.SampleText(60)
	var evs []input.Event
	if testDriven {
		// Test replays with specified (varied) pauses and posts
		// WM_QUEUESYNC after each event.
		evs = input.NewTypist(7, 65).Type(simtime.Time(300*simtime.Millisecond), text)
	} else {
		evs = input.NewTypist(8, 65).Type(simtime.Time(300*simtime.Millisecond), text)
	}
	script := &input.Script{Events: evs, QueueSync: testDriven}
	script.Install(sys)
	sys.K.Run(script.End().Add(3 * simtime.Second))

	events := core.Extract(idle.Samples(), probe.Msgs, core.ExtractOptions{
		Thread: word.Thread().ID(),
	})
	var chars []float64
	for _, e := range events {
		ms := e.Latency.Milliseconds()
		if e.Kind == kernel.WMChar && ms < 190 {
			chars = append(chars, ms)
		}
		if ms > crMaxMs {
			crMaxMs = ms
		}
	}
	return stats.Summarize(chars).Mean, crMaxMs, word.BackgroundBursts
}

func main() {
	testTypical, testMax, testBG := run(true)
	handTypical, handMax, handBG := run(false)

	fmt.Println("Word on Windows NT 3.51 — Microsoft Test vs hand-generated input (§5.4)")
	fmt.Printf("\n  %-28s %10s %10s\n", "", "Test", "hand")
	fmt.Printf("  %-28s %8.1fms %8.1fms\n", "typical keystroke latency", testTypical, handTypical)
	fmt.Printf("  %-28s %8.1fms %8.1fms\n", "longest event (CR)", testMax, handMax)
	fmt.Printf("  %-28s %10d %10d\n", "background spell bursts", testBG, handBG)
	fmt.Println("\nThe Test driver's WM_QUEUESYNC after every keystroke forces Word to flush")
	fmt.Println("its deferred coroutine work synchronously: keystrokes look ~3x slower, but")
	fmt.Println("carriage returns look faster because the layout backlog never accumulates.")
}
