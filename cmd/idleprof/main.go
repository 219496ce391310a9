// Command idleprof explores the idle-loop instrument interactively: it
// boots a persona, runs the idle loop for a configurable span with an
// optional synthetic foreground burst, and prints the utilization
// profile plus summary statistics, optionally exporting the raw sample
// trace as CSV for cmd/traceview.
//
// Usage:
//
//	idleprof -persona nt40 -seconds 2 -burst-ms 30 -burst-at-ms 500
//	idleprof -persona w95 -machine p200 -csv samples.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
	"latlab/internal/trace"
	"latlab/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idleprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		personaName = fs.String("persona", "nt40", "persona: nt351, nt40, or w95")
		machineID   = fs.String("machine", "p100", "hardware profile to boot on")
		seconds     = fs.Float64("seconds", 2, "simulated run length")
		burstMs     = fs.Float64("burst-ms", 0, "inject a foreground CPU burst of this length")
		burstAtMs   = fs.Float64("burst-at-ms", 500, "burst start time")
		bucketMs    = fs.Float64("bucket-ms", 10, "averaging bucket for the profile (0 = full resolution)")
		csvPath     = fs.String("csv", "", "also write the raw idle samples to this CSV file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p, ok := persona.ByShort(*personaName)
	if !ok {
		fmt.Fprintf(stderr, "idleprof: unknown persona %q (%s)\n",
			*personaName, strings.Join(persona.Shorts(), ", "))
		return 1
	}
	prof, ok := machine.ByShort(*machineID)
	if !ok {
		fmt.Fprintf(stderr, "idleprof: unknown machine %q (valid: %s)\n",
			*machineID, strings.Join(machine.Shorts(), ", "))
		return 1
	}
	if *seconds <= 0 || *seconds > 600 {
		fmt.Fprintf(stderr, "idleprof: -seconds must be in (0, 600]\n")
		return 1
	}

	sys := system.New(system.Config{Persona: p, Machine: prof})
	defer sys.Shutdown()
	il := core.StartIdleLoop(sys.K)
	il.Record() // the profile plots every sample

	if *burstMs > 0 {
		// Burst length is wall time, so the cycle count scales with the
		// machine's clock.
		burstCycles := int64(*burstMs / 1000 * float64(sys.K.CPU().Freq))
		app := sys.K.Spawn("burst", 1, system.AppPrio, func(tc *kernel.TC) {
			tc.GetMessage()
			tc.Compute(cpu.Segment{Name: "burst", BaseCycles: burstCycles})
		})
		sys.K.At(simtime.Time(simtime.FromMillis(*burstAtMs)), func(simtime.Time) {
			sys.K.PostMessage(app, kernel.WMCommand, 0)
		})
	}

	sys.K.Run(simtime.Time(simtime.FromSeconds(*seconds)))

	samples := il.Samples()
	var pts []core.ProfilePoint
	if *bucketMs > 0 {
		pts = core.AveragedProfile(samples, simtime.FromMillis(*bucketMs))
	} else {
		pts = core.Profile(samples)
	}
	title := fmt.Sprintf("%s — %d idle samples over %.1fs (mean util %.3f%%)",
		p.Name, len(samples), *seconds, 100*core.MeanUtil(pts))
	if err := viz.Profile(stdout, title, pts, 110, 12); err != nil {
		fmt.Fprintln(stderr, "idleprof:", err)
		return 1
	}

	var stolen simtime.Duration
	for _, s := range samples {
		stolen += s.Stolen(core.NominalSample)
	}
	fmt.Fprintf(stdout, "\ntotal non-idle time observed: %v (ground truth %v)\n",
		stolen, sys.K.NonIdleBusyTime())
	fmt.Fprintf(stdout, "clock interrupts taken: %d\n", sys.K.ClockTicks())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(stderr, "idleprof:", err)
			return 1
		}
		defer f.Close()
		if err := trace.WriteIdleCSV(f, samples); err != nil {
			fmt.Fprintln(stderr, "idleprof:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d samples to %s\n", len(samples), *csvPath)
	}
	return 0
}
