package apps

import (
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/system"
)

// Notepad models the paper's §5.1 benchmark application: "a simple editor
// for ASCII text". Printable keystrokes insert into a flat buffer and
// echo one fixed-pitch glyph; newline and page-down refresh all or part
// of the screen — the two latency classes visible in Fig. 7 (>80% of
// total latency from sub-10 ms echo keystrokes, the rest from ≥28 ms
// refresh keystrokes).
//
// The paper used the same (Windows 95) Notepad binary on all three
// systems, so the application-side costs here are persona-independent;
// only the window system underneath differs.
type Notepad struct {
	sys    *system.System
	thread *kernel.Thread

	// Chars counts printable characters inserted.
	Chars int
	// Refreshes counts newline/page-down screen refreshes.
	Refreshes int
}

// refreshLines is the visible-line count repainted by newline scrolls and
// page movement; sized so refresh keystrokes land at ≥28 ms (paper §5.1).
const refreshLines = 26

// notepadDocBlock places Notepad's document on disk.
const notepadDocBlock = 250_000

// NewNotepad spawns Notepad editing a 56 KB document (14 pages); the
// file is read during startup so the editing session itself is
// compute-bound, as in the paper.
func NewNotepad(sys *system.System) *Notepad {
	n := &Notepad{sys: sys}
	code := pageRange(300, 5)
	data := pageRange(1000, 4)
	doc := sys.K.Cache().AddFile("notepad-doc.txt", notepadDocBlock, 14)

	insert := appSeg("notepad-insert", 16_000, code, data)
	caret := appSeg("notepad-caret", 9_000, code, data[:1])
	scrollPrep := appSeg("notepad-scroll", 22_000, code, data)
	qs := queueSyncSeg(sys.P)

	n.thread = sys.SpawnApp("notepad", func(tc *kernel.TC) {
		sys.Win.BindApp(code)
		tc.ReadFile(doc, 0, 14) // load the document
		for {
			m := tc.GetMessage()
			switch m.Kind {
			case kernel.WMQuit:
				return
			case kernel.WMQueueSync:
				tc.Compute(qs)
			case kernel.WMChar:
				if m.Param == '\n' {
					n.Refreshes++
					tc.Compute(scrollPrep)
					sys.Win.ScrollWindow(tc)
					sys.Win.RepaintLines(tc, refreshLines)
				} else {
					n.Chars++
					tc.Compute(insert)
					sys.Win.TextOut(tc, 1)
				}
			case kernel.WMKeyDown:
				switch m.Param {
				case input.VKPageDown:
					n.Refreshes++
					tc.Compute(scrollPrep)
					sys.Win.RepaintLines(tc, refreshLines)
				case input.VKBack:
					n.Chars++
					tc.Compute(insert)
					sys.Win.TextOut(tc, 1)
				case input.VKLeft, input.VKRight, input.VKUp, input.VKDown:
					tc.Compute(caret)
					sys.Win.DefWindowProc(tc)
				default:
					sys.Win.KeyTranslate(tc)
					sys.Win.DefWindowProc(tc)
				}
			}
		}
	})
	return n
}

// Thread returns the application's main thread.
func (n *Notepad) Thread() *kernel.Thread { return n.thread }
