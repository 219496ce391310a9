package apps

import (
	"latlab/internal/cpu"
	"latlab/internal/fscache"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/ole"
	"latlab/internal/system"
)

// PowerpointParams sizes the §5.2 presentation workload.
type PowerpointParams struct {
	// Slides is the deck length (the paper's deck: 46 pages).
	Slides int
	// ObjectSlides lists the slides carrying OLE embedded graph objects
	// (the paper's deck has three, of similar size and complexity).
	ObjectSlides []int
}

// DefaultPowerpointParams matches the paper's task scenario.
func DefaultPowerpointParams() PowerpointParams {
	return PowerpointParams{Slides: 46, ObjectSlides: []int{10, 20, 30}}
}

// The deck's sizes: the document in 4 KB pages (530 KB), each embedded
// object's storage and drawn-element count, and the application image
// and its startup resources (before the persona's BinaryScale).
const (
	pptDocPages    = 133
	pptObjectPages = 140
	pptElements    = 240
	pptExePages    = 1250
	pptFontPages   = 220
	pptLibPages    = 680
)

// Disk layout (block addresses) for the PowerPoint scenario's files.
const (
	pptExeBlock  = 900_000
	pptLibsBlock = 1_050_000
	pptDocBlock  = 300_000
	pptObj0Block = 400_000
	pptObjStride = 80_000
	pptTempBlock = 1_800_000
	pptMetaBlock = 64
)

// Powerpoint models the slide editor of §5.2: cold start, document open,
// page-down browsing with embedded-graph rendering, OLE in-place edit
// sessions, and a safe-save. All the long-latency events of Table 1 are
// driven through WMCommand messages so they are measurable as user
// events.
type Powerpoint struct {
	sys    *system.System
	thread *kernel.Thread
	params PowerpointParams

	exe, libs, doc   fscache.FileID
	temp, meta       fscache.FileID
	server           *ole.Server
	objects          []*ole.Object
	objectBySlide    map[int]*ole.Object
	started, opened  bool
	CurSlide         int
	editing          *ole.Object
	Launches, Saves  int
	PageDowns, Edits int
}

// NewPowerpoint registers the scenario's files and spawns the
// application. It performs no work until it receives CmdLaunch.
func NewPowerpoint(sys *system.System, params PowerpointParams) *Powerpoint {
	p := &Powerpoint{sys: sys, params: params, objectBySlide: make(map[int]*ole.Object)}
	scale := sys.P.BinaryScale
	cache := sys.K.Cache()
	exePages := int64(float64(pptExePages) * scale)
	fontPages := int64(float64(pptFontPages) * scale)
	libPages := int64(float64(pptLibPages) * scale)
	p.exe = cache.AddFile("powerpnt.exe", pptExeBlock, exePages+fontPages)
	p.libs = cache.AddFile("converters.dll", pptLibsBlock, libPages)
	p.doc = cache.AddFile("deck.ppt", pptDocBlock, pptDocPages)
	p.temp = cache.AddFile("~save.tmp", pptTempBlock, pptDocPages*2+64)
	p.meta = cache.AddFile("fs-meta", pptMetaBlock, 8)

	p.server = ole.NewServer(sys.Win, cache)
	for i, slide := range params.ObjectSlides {
		o := ole.NewObject(p.server, "graph-obj", pptObj0Block+int64(i)*pptObjStride,
			pptObjectPages, pptElements)
		p.objects = append(p.objects, o)
		p.objectBySlide[slide] = o
	}

	code := pageRange(360, 18)
	data := pageRange(1200, 12)
	initSeg := appSeg("ppt-init", 28_000_000, code, data) // ~280 ms startup compute
	parse := appSeg("ppt-parse", 2_400_000, code, data)   // per ~12 pages parsed
	slidePrep := appSeg("ppt-slideprep", 500_000, code, data[:4])
	qs := queueSyncSeg(sys.P)

	p.thread = sys.SpawnApp("powerpoint", func(tc *kernel.TC) {
		sys.Win.BindApp(code)
		for {
			m := tc.GetMessage()
			switch m.Kind {
			case kernel.WMQuit:
				return
			case kernel.WMQueueSync:
				tc.Compute(qs)
			case kernel.WMCommand:
				switch {
				case m.Param == CmdLaunch:
					p.launch(tc, exePages, fontPages, initSeg)
				case m.Param == CmdOpen:
					p.open(tc, libPages, parse)
				case m.Param == CmdSave:
					p.save(tc)
				case m.Param == CmdEndEdit:
					if p.editing != nil {
						p.editing.Deactivate(tc, sys.Win)
						p.editing = nil
					}
				case m.Param >= CmdEditObject:
					i := int(m.Param - CmdEditObject)
					if i >= 0 && i < len(p.objects) {
						p.Edits++
						p.editing = p.objects[i]
						p.editing.Activate(tc, sys.Win)
					}
				}
			case kernel.WMKeyDown:
				if m.Param == input.VKPageDown {
					p.pageDown(tc, slidePrep)
				}
			case kernel.WMChar:
				if p.editing != nil {
					p.editing.EditKeystroke(tc, sys.Win)
				} else {
					tc.Compute(slidePrep)
					sys.Win.TextOut(tc, 1)
				}
			}
		}
	})
	return p
}

// launch is the cold application start ("Start Powerpoint", Table 1):
// demand-page the image and fonts, initialize, build the frame window.
func (p *Powerpoint) launch(tc *kernel.TC, exePages, fontPages int64, initSeg cpu.Segment) {
	if p.started {
		return
	}
	p.started = true
	p.Launches++
	readChunked(tc, p.exe, 0, exePages, 2)
	p.sys.Win.CreateWindow(tc)
	tc.Compute(initSeg)
	readChunked(tc, p.exe, exePages, fontPages, 2)
	p.sys.Win.OLESetup(tc, 260) // toolbars, galleries
	p.sys.Win.RepaintLines(tc, 20)
}

// open is "Open document" (Table 1): converter libraries, the compound
// document read in small records, parsing, previews, first slide.
func (p *Powerpoint) open(tc *kernel.TC, libPages int64, parse cpu.Segment) {
	if p.opened || !p.started {
		return
	}
	p.opened = true
	readChunked(tc, p.libs, 0, libPages, 2)
	// The document page by page, parsing after every tenth, as one
	// kernel loop.
	off, parsing := int64(0), false
	tc.Loop(func(lc *kernel.LoopTC) bool {
		switch {
		case parsing:
			lc.Compute(parse)
			parsing = false
		case off < pptDocPages:
			lc.ReadFile(p.doc, off, 1)
			parsing = off%10 == 0
			off++
		default:
			return false
		}
		return true
	})
	p.CurSlide = 1
	p.sys.Win.RepaintLines(tc, 20)
	p.renderSlide(tc)
}

// save is "Save document" (Table 1): a safe-save that alternates data
// writes to a distant temp file with metadata updates near the start of
// the disk — long seeks dominate, and the persona's SaveScale sets the
// write volume (NT 4.0 writes more, making it slower than NT 3.51).
func (p *Powerpoint) save(tc *kernel.TC) {
	if !p.opened {
		return
	}
	p.Saves++
	pages := int64(float64(pptDocPages+30) * p.sys.P.SaveScale)
	// Each data page to the temp file followed by a metadata update, then
	// the copy back in larger runs, as one kernel loop.
	i, meta, back := int64(0), false, int64(0)
	tc.Loop(func(lc *kernel.LoopTC) bool {
		switch {
		case meta:
			lc.WriteFile(p.meta, i%8, 1)
			meta = false
			i++
		case i < pages:
			lc.WriteFile(p.temp, i%(pptDocPages*2), 1)
			meta = true
		case back+4 <= pptDocPages:
			lc.WriteFile(p.doc, back, 4)
			back += 4
		default:
			return false
		}
		return true
	})
}

// pageDown advances one slide and redraws it (the Fig. 9 operation when
// the slide carries an OLE graph).
func (p *Powerpoint) pageDown(tc *kernel.TC, prep cpu.Segment) {
	if !p.opened {
		return
	}
	p.PageDowns++
	p.CurSlide++
	if p.CurSlide > p.params.Slides {
		p.CurSlide = 1
	}
	tc.Compute(prep)
	p.renderSlide(tc)
}

func (p *Powerpoint) renderSlide(tc *kernel.TC) {
	p.sys.Win.RepaintLines(tc, 18)
	if o, ok := p.objectBySlide[p.CurSlide]; ok {
		o.Render(tc, p.sys.Win)
	}
}

// Thread returns the application's main thread.
func (p *Powerpoint) Thread() *kernel.Thread { return p.thread }

// Objects returns the embedded objects in document order.
func (p *Powerpoint) Objects() []*ole.Object { return p.objects }

// ObjectSlide returns the slide number of object i.
func (p *Powerpoint) ObjectSlide(i int) int { return p.params.ObjectSlides[i] }

// readChunked demand-pages [first, first+pages) of f in chunk-page
// requests, as one kernel loop.
func readChunked(tc *kernel.TC, f fscache.FileID, first, pages, chunk int64) {
	p, end := first, first+pages
	tc.Loop(func(lc *kernel.LoopTC) bool {
		if p >= end {
			return false
		}
		lc.ReadFile(f, p, min(chunk, end-p))
		p += chunk
		return true
	})
}
