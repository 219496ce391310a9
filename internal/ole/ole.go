// Package ole models OLE embedded objects and their in-place editing
// sessions — the PowerPoint workload's embedded Excel graphs (paper
// §5.2-5.3, Table 1, Figs. 8-10).
//
// The behaviour the paper leans on is buffer-cache warming across
// sessions: the first activation pages the object server in from disk
// (seconds); later activations find progressively more of it resident
// ("the effects of the file system cache are most clearly observed in
// the latency for starting the second OLE edit"). The model captures
// that with a server image read in small scattered requests, per-session
// working-set extensions that shrink as the environment warms, and
// per-object data that is always cold the first time.
package ole

import (
	"fmt"

	"latlab/internal/cpu"
	"latlab/internal/fscache"
	"latlab/internal/kernel"
	"latlab/internal/winsys"
)

// readChunkPages is the request granularity for demand paging: small
// requests mean many rotational delays, which is what makes cold starts
// cost seconds (Table 1).
const readChunkPages = 2

// Server is an OLE object-server application (the embedded-graph editor).
type Server struct {
	cache *fscache.Cache
	exe   fscache.FileID
	// corePages is the image working set paged in on first activation.
	corePages int64
	// sessionExtra lists additional unique pages faulted by successive
	// sessions (fonts, registry, per-session scratch); the shrinking
	// schedule produces Table 1's 2nd/3rd-edit warming.
	sessionExtra []int64
	// initCyclesPerCall is the server-side compute accompanying setup.
	initSeg cpu.Segment

	sessions  int
	codePages []uint64
}

// The server image: its file, where it sits on disk, the working set
// paged in on first activation and the unique pages each later session
// adds (before the persona's BinaryScale), and the GUI calls of one
// in-place activation. They model a mid-90s embedded-chart editor: a
// ~2.4 MB working set and shrinking per-session extras.
const (
	serverImage      = "graph-server.exe"
	serverBlock      = 1_200_000
	serverCorePages  = 900
	serverSetupCalls = 1200
)

var serverSessionExtra = [...]int64{120, 140, 6}

// NewServer registers the server image (scaled by the persona's
// BinaryScale) and returns the server.
func NewServer(w *winsys.WinSys, cache *fscache.Cache) *Server {
	scale := w.Persona().BinaryScale
	core := int64(float64(serverCorePages) * scale)
	extra := make([]int64, len(serverSessionExtra))
	var extraTotal int64
	for i, e := range serverSessionExtra {
		extra[i] = int64(float64(e) * scale)
		extraTotal += extra[i]
	}
	total := core + extraTotal
	s := &Server{
		cache:        cache,
		exe:          cache.AddFile(serverImage, serverBlock, total),
		corePages:    core,
		sessionExtra: extra,
		initSeg: cpu.Segment{Name: "ole-init", BaseCycles: 18_000,
			Instructions: 11_000, DataRefs: 5_000,
			CodePages: []uint64{500, 501, 502, 503}, DataPages: []uint64{520, 521}},
		codePages: []uint64{500, 501, 502, 503, 504, 505},
	}
	return s
}

// Sessions returns how many activations have run.
func (s *Server) Sessions() int { return s.sessions }

// pageIn demand-pages [first, first+pages) of the image in small chunks,
// with fix-up compute between chunks (relocation, import resolution).
func (s *Server) pageIn(tc *kernel.TC, first, pages int64) {
	fixup := cpu.Segment{Name: "ole-fixup", BaseCycles: 45_000,
		Instructions: 28_000, DataRefs: 11_000,
		CodePages: s.codePages[:2], DataPages: []uint64{522}}
	readComputing(tc, s.exe, first, pages, readChunkPages, fixup)
}

// readComputing reads [first, first+pages) of f in chunk-page requests,
// computing seg after each, as one kernel loop.
func readComputing(tc *kernel.TC, f fscache.FileID, first, pages, chunk int64, seg cpu.Segment) {
	p, end, computing := first, first+pages, false
	tc.Loop(func(lc *kernel.LoopTC) bool {
		switch {
		case computing:
			lc.Compute(seg)
			computing = false
		case p < end:
			lc.ReadFile(f, p, min(chunk, end-p))
			p += chunk
			computing = true
		default:
			return false
		}
		return true
	})
}

// Object is one embedded object instance inside a document.
type Object struct {
	Server *Server
	// data is the object's storage (chart data, cached metafile).
	data      fscache.FileID
	dataPages int64
	// Elements is the chart complexity (drawn elements).
	Elements int
	edits    int
}

// NewObject registers an object of dataPages pages at startBlock whose
// chart has the given element count.
func NewObject(s *Server, name string, startBlock, dataPages int64, elements int) *Object {
	return &Object{
		Server:    s,
		data:      s.cache.AddFile(name, startBlock, dataPages),
		dataPages: dataPages,
		Elements:  elements,
	}
}

// Render draws the object in place (the page-down path of Fig. 9): the
// cached presentation is drawn, no server activation.
func (o *Object) Render(tc *kernel.TC, w *winsys.WinSys) {
	w.DrawChart(tc, o.Elements)
}

// Activate starts an in-place editing session (Table 1's "start OLE edit
// session", Figs. 8/10): demand-page the server image (core only on
// first activation), fault in this session's unique pages, read the
// object's storage, then perform activation GUI work and redraw.
func (o *Object) Activate(tc *kernel.TC, w *winsys.WinSys) {
	s := o.Server
	if s.sessions == 0 {
		s.pageIn(tc, 0, s.corePages)
	}
	idx := s.sessions
	if idx >= len(s.sessionExtra) {
		idx = len(s.sessionExtra) - 1
	}
	if idx >= 0 && s.sessionExtra[idx] > 0 {
		off := s.corePages
		for i := 0; i < idx; i++ {
			off += s.sessionExtra[i]
		}
		s.pageIn(tc, off, s.sessionExtra[idx])
	}
	s.sessions++

	// Object storage: cold the first time this object is opened. Chart
	// records are small, so storage is read page-at-a-time — many
	// rotational delays, the dominant cost of warm-server activations.
	if o.edits == 0 {
		readComputing(tc, o.data, 0, o.dataPages, 1, s.initSeg)
	}
	o.edits++

	// In-place activation GUI work plus server-side init compute.
	w.OLESetup(tc, serverSetupCalls)
	tc.Compute(s.initSeg.Scale(40))
	o.Render(tc, w)
}

// EditKeystroke applies one modification to the activated object.
func (o *Object) EditKeystroke(tc *kernel.TC, w *winsys.WinSys) {
	if o.edits == 0 {
		panic(fmt.Sprintf("ole: keystroke in never-activated object %d", int(o.data)))
	}
	tc.Compute(o.Server.initSeg.Scale(3))
	w.DrawChart(tc, o.Elements/8+1)
}

// Deactivate ends the editing session: menu un-merge and host redraw.
func (o *Object) Deactivate(tc *kernel.TC, w *winsys.WinSys) {
	w.OLESetup(tc, serverSetupCalls/6)
	w.RepaintLines(tc, 8)
}
