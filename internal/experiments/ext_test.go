package experiments

import (
	"testing"

	"latlab/internal/core"
	"latlab/internal/machine"
)

func TestExtBatching(t *testing.T) {
	r := mustRun(t, runExtBatching, full()).(*ExtBatchingResult)
	renderOK(t, r)
	// The saturated ("infinitely fast user") run completes more events
	// per second — throughput prefers it.
	if r.SaturatedRate <= r.PacedRate {
		t.Fatalf("saturated rate %.1f/s should exceed paced %.1f/s",
			r.SaturatedRate, r.PacedRate)
	}
	// But per-event latency degrades badly: queueing dominates.
	if r.Saturated.Mean < 3*r.Paced.Mean {
		t.Fatalf("saturated mean %.1fms should dwarf paced %.1fms (queueing)",
			r.Saturated.Mean, r.Paced.Mean)
	}
	if r.Saturated.Max < 10*r.Paced.Max {
		t.Fatalf("saturated max %.1fms should explode vs paced %.1fms",
			r.Saturated.Max, r.Paced.Max)
	}
}

func TestExtThinkWait(t *testing.T) {
	r := mustRun(t, runExtThinkWait, full()).(*ExtThinkWaitResult)
	renderOK(t, r)
	if len(r.Systems) != 3 {
		t.Fatalf("systems = %d", len(r.Systems))
	}
	for _, s := range r.Systems {
		total := s.Think + s.Wait
		if total <= 0 {
			t.Fatalf("%s: empty decomposition", s.Persona)
		}
		// A typing session is mostly think time (the user composes), but
		// wait time must be present and the FSM must transition often
		// (roughly twice per keystroke).
		if s.WaitShare <= 0 || s.WaitShare > 0.5 {
			t.Fatalf("%s: wait share %.2f implausible for typing", s.Persona, s.WaitShare)
		}
		if s.Transitions < 100 {
			t.Fatalf("%s: only %d transitions", s.Persona, s.Transitions)
		}
	}
	// Windows 95's extra per-event cost and background activity push its
	// wait share above NT 4.0's.
	var w95, nt40 float64
	for _, s := range r.Systems {
		switch s.Persona {
		case "Windows 95":
			w95 = s.WaitShare
		case "Windows NT 4.0":
			nt40 = s.WaitShare
		}
	}
	if w95 <= nt40 {
		t.Fatalf("W95 wait share %.3f should exceed NT4.0 %.3f", w95, nt40)
	}
}

func TestExtMetric(t *testing.T) {
	r := mustRun(t, runExtMetric, full()).(*ExtMetricResult)
	renderOK(t, r)
	if len(r.Systems) != 2 || len(r.ThresholdsMs) != 4 {
		t.Fatalf("shape wrong: %d systems, %d thresholds", len(r.Systems), len(r.ThresholdsMs))
	}
	for _, s := range r.Systems {
		// Irritation is non-increasing in the threshold.
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i] > s.Values[i-1] {
				t.Fatalf("%s: irritation increased with threshold: %v", s.Persona, s.Values)
			}
		}
		// At the 2 s floor, a Word typing session irritates nobody.
		if s.Values[len(s.Values)-1] != 0 {
			t.Fatalf("%s: irritation at 2s = %v, want 0", s.Persona, s.Values)
		}
		// At 50 ms it is clearly non-zero.
		if s.Values[0] <= 0 {
			t.Fatalf("%s: irritation at 50ms should be positive", s.Persona)
		}
	}
}

// TestExtSlowCPU runs the experiment on every machine profile: only
// the core slows down, so on each of them echo latency scales with the
// clock and the 20 MHz refreshes cross the perception threshold. A
// DVFS ladder left on the down-clocked profile would boot m2026 at its
// own 250 MHz floor, and none of its rows would be slow.
func TestExtSlowCPU(t *testing.T) {
	for _, prof := range machine.All() {
		t.Run(prof.Short, func(t *testing.T) {
			cfg := full()
			cfg.Machine = prof
			r := mustRun(t, runExtSlowCPU, cfg).(*ExtSlowCPUResult)
			renderOK(t, r)
			if len(r.Rows) != 3 {
				t.Fatalf("rows = %d", len(r.Rows))
			}
			fast, slow := r.Rows[0], r.Rows[2]
			if fast.MHz != 100 || slow.MHz != 20 {
				t.Fatalf("clock order wrong: %+v", r.Rows)
			}
			// Latency scales with the clock: the 20 MHz machine is ≈5x slower.
			ratio := slow.Char.Mean / fast.Char.Mean
			if ratio < 3.5 || ratio > 6.5 {
				t.Fatalf("char slowdown = %.1fx, want ≈5x", ratio)
			}
			// At 100 MHz nothing crosses the perception threshold; at 20 MHz the
			// refresh keystrokes do (the §5.1 point).
			if fast.OverPerception != 0 {
				t.Fatalf("100 MHz: %d events over 0.1s, want 0", fast.OverPerception)
			}
			if slow.OverPerception == 0 {
				t.Fatalf("20 MHz: refreshes should cross the perception threshold")
			}
			if slow.Refresh.Mean < core.PerceptionThresholdMs {
				t.Fatalf("20 MHz refresh mean = %.1fms, want >100ms", slow.Refresh.Mean)
			}
		})
	}
}

func TestExtInterrupts(t *testing.T) {
	r := mustRun(t, runExtInterrupts, full()).(*ExtInterruptsResult)
	renderOK(t, r)
	byName := map[string]ExtInterruptsRow{}
	for _, row := range r.Systems {
		byName[row.Persona] = row
	}
	nt40 := byName["Windows NT 4.0"]
	w95 := byName["Windows 95"]
	// Keyboard handling matches the persona's configured cost within the
	// instrument's TLB-warmup noise.
	if got := nt40.Cycles["keyboard"]; got < 2300 || got > 2900 {
		t.Fatalf("NT4.0 keyboard overhead = %.0f cycles, want ≈2500", got)
	}
	// Windows 95's 16-bit interrupt reflection costs roughly twice NT's.
	if w95.Cycles["keyboard"] < 1.5*nt40.Cycles["keyboard"] {
		t.Fatalf("W95 keyboard %.0f should dwarf NT4.0 %.0f",
			w95.Cycles["keyboard"], nt40.Cycles["keyboard"])
	}
	for _, row := range r.Systems {
		for _, class := range r.Classes {
			if row.Cycles[class] <= 0 {
				t.Fatalf("%s %s overhead = %.0f, want positive", row.Persona, class, row.Cycles[class])
			}
		}
	}
}

func TestExtBatchingCoalesces(t *testing.T) {
	r := mustRun(t, runExtBatching, full()).(*ExtBatchingResult)
	if r.PacedBatched != 0 {
		t.Fatalf("realistic pacing should never trigger batching, got %d", r.PacedBatched)
	}
	if r.SaturatedBatched == 0 {
		t.Fatalf("saturated input should batch GUI calls")
	}
}
