package apps

import (
	"latlab/internal/kernel"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// Word models the paper's §5.4 word processor. Its structural features
// reproduce the behaviours the paper measured:
//
//   - Line justification and interactive spell checking are on, as in
//     the paper's run, so keystrokes cost far more than Notepad's
//     (formatting, variable-width fonts, spell checking) — ≈30 ms
//     typical under hand input.
//   - Occasional line re-breaks and glyph-cache refills add an
//     exponentially distributed extra cost to a keystroke, the heavy
//     upper tail behind the paper's Table 2 (101 events >100 ms, 26
//     >110 ms, 8 >120 ms out of ~1000).
//   - Background spell work runs in timer-paced chunks when idle, so
//     hand-typed events end quickly but background activity is higher.
//   - WM_QUEUESYNC (posted by the Test driver after every input) acts as
//     a synchronization point: Word flushes pending background work
//     synchronously, inflating Test-measured keystrokes to ≈80-100 ms —
//     the paper's hypothesis for the Test/hand discrepancy.
//   - Carriage returns reformat the paragraph and drain the backlog: long
//     under hand input (>200 ms, large backlog) but capped under Test
//     (≤≈140 ms, backlog flushed every keystroke).
//   - Under the Windows 95 persona the application lingers after every
//     event (persona.WordLinger), so the system never goes idle and all
//     measured latencies appear to be seconds long — why the paper
//     reports no Windows 95 Word numbers.
type Word struct {
	sys    *system.System
	thread *kernel.Thread

	// Pending is the spell-check backlog in units.
	Pending int
	// LayoutPending is the deferred paragraph-layout backlog (one unit
	// per character since the last carriage return); it is drained at
	// carriage returns — or by WM_QUEUESYNC on every keystroke, which is
	// why Test-driven runs never show the >200 ms hand-typed CRs (§5.4).
	LayoutPending int
	// BackgroundBursts counts timer-driven background work chunks.
	BackgroundBursts int

	rand *rng.Source
}

// Background pacing: one chunk roughly every three clock ticks.
const wordTimerPeriod = 30 * simtime.Millisecond

// spellUnitCycles is one background analysis unit (≈8 ms).
const spellUnitCycles = 800_000

// wordSeed drives the keystroke tail, whose mean is wordTailMeanCycles
// and whose cap is six times that.
const (
	wordSeed           = 1996
	wordTailMeanCycles = 550_000
)

// NewWord spawns the word processor.
func NewWord(sys *system.System) *Word {
	w := &Word{sys: sys, rand: rng.New(wordSeed)}
	code := pageRange(320, 14)
	data := pageRange(1100, 10)
	format := appSeg("word-format", 2_100_000, code, data) // ~21 ms
	justify := appSeg("word-justify", 500_000, code, data[:4])
	reformat := appSeg("word-reformat", 5_200_000, code, data) // CR: ~52 ms
	spell := appSeg("word-spell", spellUnitCycles, code[:6], data[4:])
	layout := appSeg("word-layout", 100_000, code[:8], data[:6]) // 1 ms/char deferred layout
	flush := appSeg("word-sync-flush", 4_600_000, code, data)    // QUEUESYNC flush
	linger := appSeg("word-95-housekeeping", 1_000_000, code[:4], data[:2])
	qs := queueSyncSeg(sys.P)

	timerArmed := false
	armTimer := func(tc *kernel.TC) {
		if w.Pending > 0 && !timerArmed {
			tc.SetTimer(wordTimerPeriod, kernel.WMIdleWork, 0)
			timerArmed = true
		}
	}
	drainAll := func(tc *kernel.TC) {
		for w.Pending > 0 {
			tc.Compute(spell)
			w.Pending--
		}
		for w.LayoutPending > 0 {
			tc.Compute(layout)
			w.LayoutPending--
		}
	}

	w.thread = sys.SpawnApp("word", func(tc *kernel.TC) {
		sys.Win.BindApp(code)
		for {
			m := tc.GetMessage()
			switch m.Kind {
			case kernel.WMQuit:
				return
			case kernel.WMIdleWork:
				// Background work; not a user event, but under the
				// lingering persona it too is followed by housekeeping.
				timerArmed = false
				if w.Pending > 0 {
					tc.Compute(spell)
					w.Pending--
					w.BackgroundBursts++
				}
			case kernel.WMQueueSync:
				// Test's synchronization point: flush state and drain
				// the backlog synchronously.
				tc.Compute(qs)
				tc.Compute(flush)
				drainAll(tc)
			case kernel.WMChar:
				if m.Param == '\n' {
					tc.Compute(reformat)
					sys.Win.RepaintLines(tc, 10)
					drainAll(tc) // reformat needs spell state settled
				} else {
					tc.Compute(format)
					extra := min(w.rand.Exponential(wordTailMeanCycles), 6*wordTailMeanCycles)
					seg := format
					seg.Name = "word-rebreak"
					seg.BaseCycles = int64(extra)
					seg.Instructions = seg.BaseCycles / 2
					seg.DataRefs = seg.BaseCycles / 4
					tc.Compute(seg)
					tc.Compute(justify)
					sys.Win.RepaintLines(tc, 1)
					sys.Win.TextOut(tc, 1)
					w.Pending++
					w.LayoutPending++
				}
			case kernel.WMKeyDown:
				// Arrows/backspace: cursor work plus modest redraw.
				tc.Compute(justify)
				sys.Win.TextOut(tc, 1)
			}
			// Windows 95: keep grinding after the event (paper §5.1/5.4:
			// "the system does not become idle immediately after Word
			// finishes handling an event").
			if d := sys.P.WordLinger; d > 0 {
				chunks := int(d / (10 * simtime.Millisecond))
				for i := 0; i < chunks && !tc.HasMessage(); i++ {
					tc.Compute(linger)
				}
			}
			armTimer(tc)
		}
	})
	return w
}

// Thread returns the application's main thread.
func (w *Word) Thread() *kernel.Thread { return w.thread }
