package winsys

import (
	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

// Code-page layout for the window system itself (kernel device pages use
// 0-49; apps allocate from 300 up; op data windows from 50000 up).
var (
	gdiKernelPages = pageRange(100, 12) // NT 4.0 in-kernel win32
	serverPages    = pageRange(140, 40) // NT 3.51 user-level server (CSRSS image)
	pages16        = pageRange(180, 14) // Windows 95 16-bit USER/GDI
)

func pageRange(base uint64, n int) []uint64 {
	ps := make([]uint64, n)
	for i := range ps {
		ps[i] = base + uint64(i)
	}
	return ps
}

// opCursor tracks an operation's streaming-data window.
type opCursor struct {
	base   uint64
	window int
	pos    int
	hot    []uint64
	chunks []uint64
}

// WinSys is one persona's window system bound to a kernel instance.
type WinSys struct {
	k        *kernel.Kernel
	p        persona.P
	appPages []uint64
	// cursors holds each operation's cursor at its op id, created on
	// the operation's first call.
	cursors  [numOps]*opCursor
	nextBase uint64
	calls    int64
	batched  int64
	// free holds call sequences not in flight, for reuse.
	free []*callSeq
}

// New builds the window system for kernel k under persona p.
func New(k *kernel.Kernel, p persona.P) *WinSys {
	return &WinSys{k: k, p: p, nextBase: 50_000}
}

// Persona returns the persona this window system models.
func (w *WinSys) Persona() persona.P { return w.p }

// Calls returns the number of Win32 calls made so far.
func (w *WinSys) Calls() int64 { return w.calls }

// BatchedCalls returns how many calls were cost-reduced by request
// batching (input queued behind the event being handled).
func (w *WinSys) BatchedCalls() int64 { return w.batched }

// BindApp declares the foreground application's code working set, used
// as the application-side glue refilled after every server crossing.
func (w *WinSys) BindApp(codePages []uint64) { w.appPages = codePages }

// cursor returns o's cursor, creating it on o's first call with a
// streaming window for stream pages per call. Cursors take their base
// pages in first-use order.
func (w *WinSys) cursor(o op, stream int) *opCursor {
	if c := w.cursors[o.id]; c != nil {
		return c
	}
	// The streaming window must exceed the data TLB so cycling through it
	// keeps missing; 6x the per-call touch count is comfortably past 64
	// entries for redraw-scale operations.
	window := stream * 6
	if window < stream {
		window = stream
	}
	c := &opCursor{base: w.nextBase, window: window}
	// Both id lists share one array, sized once.
	ids := make([]uint64, o.hot+o.chunks)
	for i := 0; i < o.hot; i++ {
		ids[i] = w.nextBase + 3000 + uint64(i)
	}
	for i := 0; i < o.chunks; i++ {
		ids[o.hot+i] = (w.nextBase+3000)*8 + uint64(i)
	}
	c.hot = ids[:o.hot:o.hot]
	if o.chunks > 0 {
		c.chunks = ids[o.hot:]
	}
	w.nextBase += 4096
	w.cursors[o.id] = c
	return c
}

// op describes one Win32 operation's cost on the NT 4.0 baseline; the
// persona transforms it.
type op struct {
	// id indexes WinSys.cursors; each operation has its own.
	id   int
	name string
	// cycles is the base (warm, NT 4.0) path length.
	cycles int64
	// hot/stream/chunks are per-call working-set touch counts.
	hot    int
	stream int
	chunks int
	// scale16 is the op's relative path length under Shared16Bit
	// (0 means 1.0): 16-bit USER input paths are slow, while the
	// hand-tuned 16-bit text raster path is faster than NT's portable
	// GDI — which is why Windows 95 has the smallest cumulative latency
	// in the paper's Notepad run (Fig. 7) yet the worst simple-keystroke
	// latency (Fig. 6).
	scale16 float64
}

// The operations, on the NT 4.0 baseline, with ids 0 to numOps-1.
var (
	opKeyTranslate  = op{id: 0, name: "keytranslate", cycles: 18_000, hot: 4, scale16: 1.8}
	opDefWindowProc = op{id: 1, name: "defwindowproc", cycles: 14_000, hot: 4, scale16: 1.8}
	opMouseEvent    = op{id: 2, name: "mouseevent", cycles: 16_000, hot: 4, scale16: 1.8}
	opTextOut       = op{id: 3, name: "textout", cycles: 150_000, hot: 8, stream: 3, chunks: 12, scale16: 0.7}
	opScrollWindow  = op{id: 4, name: "scrollwindow", cycles: 420_000, hot: 8, stream: 24, chunks: 16}
	opRepaintLine   = op{id: 5, name: "repaintline", cycles: 105_000, hot: 8, stream: 10, chunks: 10}
	opDrawChart     = op{id: 6, name: "drawchart", cycles: 36_000, hot: 10, stream: 12, chunks: 8}
	opDrawFrame     = op{id: 7, name: "drawframe", cycles: 40_000, hot: 6, stream: 4, chunks: 6}
	opRepaintCell   = op{id: 8, name: "repaintcell", cycles: 190_000, hot: 8, stream: 14, chunks: 12}
	opOLESetup      = op{id: 9, name: "olesetup", cycles: 30_000, hot: 10, stream: 40, chunks: 12}
	opCreateWindow  = op{id: 10, name: "createwindow", cycles: 900_000, hot: 12, stream: 20, chunks: 24}
	opMaxPrep       = op{id: 11, name: "maxprep", cycles: 7_800_000, hot: 16, stream: 30, chunks: 30}
)

// numOps is the number of operations above.
const numOps = 12

// call performs n back-to-back Win32 calls of o under the persona's
// architecture, as one kernel loop (kernel.TC.Loop): one coroutine round
// trip for the lot instead of one per primitive. n = 1 is a single call.
func (w *WinSys) call(tc *kernel.TC, o op, n int) {
	if n <= 0 {
		return
	}
	var s *callSeq
	if last := len(w.free) - 1; last >= 0 {
		s, w.free = w.free[last], w.free[:last]
	} else {
		s = &callSeq{w: w}
		s.fn = s.next
	}
	if s.glue.Name == "" || s.o.id != o.id {
		s.glue = cpu.Segment{Name: o.name + "-glue", BaseCycles: 2000, Instructions: 1300, DataRefs: 500}
	}
	s.o, s.left, s.stage = o, n, stageGlue
	tc.Loop(s.fn)
}

// Stages of one call in a callSeq, in issue order.
const (
	stageGlue  uint8 = iota // application-side glue compute
	stageEnter              // batching check, segment build, first crossing or mode switch
	stageServe              // the window-system segment
	stageLeave              // NT 3.51's return crossing
	stageDone               // the call has completed
)

// callSeq is a run of calls of one op in flight: a kernel loop function
// that issues, call after call, the application glue, the entry into the
// window system, the server segment and (NT 3.51) the return crossing.
// Every step runs at the instant the calling thread would have run it
// between primitives, so the simulation cannot tell the run from the
// same calls made one primitive at a time. Sequences are recycled
// through WinSys.free, so a steady-state call allocates nothing.
type callSeq struct {
	w     *WinSys
	fn    func(lc *kernel.LoopTC) bool // next, bound once
	o     op
	left  int   // calls still to complete, the current one included
	stage uint8 // what the current call issues next
	glue  cpu.Segment
	seg   cpu.Segment
	pages []uint64 // seg.DataPages, reused call after call
}

func (s *callSeq) next(lc *kernel.LoopTC) bool {
	w := s.w
	for {
		switch s.stage {
		case stageGlue:
			w.calls++
			s.stage = stageEnter
			// Application-side glue (argument marshalling, dispatch); its
			// code pages are the app's, so NT 3.51's return crossing is
			// paid for here.
			if len(w.appPages) > 0 {
				s.glue.CodePages = w.appPages
				lc.Compute(s.glue)
				return true
			}
		case stageEnter:
			s.build(lc)
			s.stage = stageServe
			if w.p.Arch == persona.ServerProcess {
				lc.DomainCross()
			} else {
				lc.ModeSwitch()
			}
			return true
		case stageServe:
			lc.Compute(s.seg)
			s.stage = stageDone
			if w.p.Arch == persona.ServerProcess {
				s.stage = stageLeave
			}
			return true
		case stageLeave:
			lc.DomainCross()
			s.stage = stageDone
			return true
		case stageDone:
			if s.left--; s.left == 0 {
				w.free = append(w.free, s)
				return false
			}
			s.stage = stageGlue
		}
	}
}

// build prices the current call's window-system segment, after its glue.
func (s *callSeq) build(lc *kernel.LoopTC) {
	w, o := s.w, s.o
	base := int64(float64(o.cycles) * w.p.PathScale)
	if w.p.Arch == persona.Shared16Bit && o.scale16 != 0 {
		base = int64(float64(base) * o.scale16)
	}
	// Request batching: with more user input already queued, the window
	// system coalesces invalidations — throughput up, responsiveness
	// meaningless (§1.1). Realistically paced input never triggers this.
	if w.p.BatchScale < 1 && lc.PendingUserInput() {
		base = int64(float64(base) * w.p.BatchScale)
		w.batched++
	}
	stream := int(float64(o.stream) * w.p.DataWindowScale)
	c := w.cursor(o, stream)

	s.pages = append(s.pages[:0], c.hot...)
	for i := 0; i < stream; i++ {
		s.pages = append(s.pages, c.base+uint64((c.pos+i)%max(c.window, 1)))
	}
	c.pos = (c.pos + stream) % max(c.window, 1)

	s.seg = cpu.Segment{
		Name:         o.name,
		BaseCycles:   base,
		Instructions: base * 6 / 10,
		DataRefs:     base * 3 / 10,
		CacheChunks:  c.chunks,
		DataPages:    s.pages,
	}
	if w.p.SegLoadsPerKCycle > 0 {
		s.seg.SegmentLoads = int64(w.p.SegLoadsPerKCycle * float64(base) / 1000)
	}
	if w.p.UnalignedPerKCycle > 0 {
		s.seg.UnalignedAccesses = int64(w.p.UnalignedPerKCycle * float64(base) / 1000)
	}
	switch w.p.Arch {
	case persona.ServerProcess:
		s.seg.CodePages = serverPages
	case persona.KernelMode:
		s.seg.CodePages = gdiKernelPages
	case persona.Shared16Bit:
		s.seg.CodePages = pages16
	}
}

// KeyTranslate is the system-side processing of a raw key-down into a
// character event (TranslateMessage and friends).
func (w *WinSys) KeyTranslate(tc *kernel.TC) { w.call(tc, opKeyTranslate, 1) }

// DefWindowProc is the default handling of an unbound input event.
func (w *WinSys) DefWindowProc(tc *kernel.TC) { w.call(tc, opDefWindowProc, 1) }

// MouseEvent is the system-side processing of a mouse button event.
func (w *WinSys) MouseEvent(tc *kernel.TC) { w.call(tc, opMouseEvent, 1) }

// TextOut renders n characters at the caret (per-keystroke echo path:
// glyph lookup, raster op, caret move), one call per character.
func (w *WinSys) TextOut(tc *kernel.TC, n int) { w.call(tc, opTextOut, n) }

// ScrollWindow shifts the client area by one line (blit).
func (w *WinSys) ScrollWindow(tc *kernel.TC) { w.call(tc, opScrollWindow, 1) }

// RepaintLines redraws n text lines (scroll/page-down refresh), one call
// per line.
func (w *WinSys) RepaintLines(tc *kernel.TC, n int) { w.call(tc, opRepaintLine, n) }

// DrawChart renders an embedded graph of the given element count (the
// PowerPoint OLE graph of Figs. 8-10), one call per two elements.
func (w *WinSys) DrawChart(tc *kernel.TC, elements int) {
	w.call(tc, opDrawChart, (elements+1)/2)
}

// DrawFrame draws the animated window outline at growth step i (the
// maximize animation of Fig. 4); cost grows with the outline size.
func (w *WinSys) DrawFrame(tc *kernel.TC, step int) {
	o := opDrawFrame
	o.cycles += int64(step) * 25_000
	w.call(tc, o, 1)
}

// RepaintWindow redraws the full client area: cells scales the work (a
// maximized window redraw is the 200 ms burst in Fig. 4), one call per
// cell.
func (w *WinSys) RepaintWindow(tc *kernel.TC, cells int) { w.call(tc, opRepaintCell, cells) }

// OLESetup performs the GUI work of an OLE in-place activation: window
// re-parenting, menu merging, toolbar negotiation. It is call-heavy, so
// under the user-level-server persona the crossings and TLB refills of
// its calls add up — the §5.3/Fig. 10 mechanism writ large. Every
// persona makes the same calls: extra server round trips would widen
// Table 1's OLE gaps, but §5.3's attribution ("TLB misses account for at
// least 23-25% of the latency difference") constrains the non-TLB share.
func (w *WinSys) OLESetup(tc *kernel.TC, calls int) { w.call(tc, opOLESetup, calls) }

// CreateWindow sets up a new top-level window.
func (w *WinSys) CreateWindow(tc *kernel.TC) { w.call(tc, opCreateWindow, 1) }

// MaximizeAnimation performs the paper's §2.6 window-maximize sequence:
// an initial processing burst, `steps` animation frames paced by the
// clock tick (the 10 ms-aligned stair pattern of Fig. 4), then a full
// redraw burst.
func (w *WinSys) MaximizeAnimation(tc *kernel.TC, steps, redrawCells int) {
	// Initial input processing: ~80 ms of window-manager work.
	w.call(tc, opMaxPrep, 1)
	for i := 1; i <= steps; i++ {
		// Pace the animation: wait for the next clock tick.
		tc.Sleep(simtime.Nanosecond)
		w.DrawFrame(tc, i)
	}
	w.RepaintWindow(tc, redrawCells)
}
