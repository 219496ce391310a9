package winsys

import (
	"testing"

	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

// allOps lists every operation the window system issues.
var allOps = []op{
	opKeyTranslate, opDefWindowProc, opMouseEvent, opTextOut, opScrollWindow,
	opRepaintLine, opDrawChart, opDrawFrame, opRepaintCell, opOLESetup,
	opCreateWindow, opMaxPrep,
}

// TestOpIDsIndexCursors pins that the operations' ids are 0 to
// numOps-1, one each, so every operation has its own cursor slot.
func TestOpIDsIndexCursors(t *testing.T) {
	if len(allOps) != numOps {
		t.Fatalf("%d operations listed, numOps is %d", len(allOps), numOps)
	}
	for i, o := range allOps {
		if o.id != i {
			t.Errorf("%s has id %d, want %d", o.name, o.id, i)
		}
	}
}

// ascendingRuns returns how many maximal runs of consecutive ascending
// ids a page or chunk list holds.
func ascendingRuns(ids []uint64) int {
	runs := 0
	for i, id := range ids {
		if i == 0 || id != ids[i-1]+1 {
			runs++
		}
	}
	return runs
}

// TestServerSegmentsAreRuns issues every operation's call under every
// persona, eight times over so each streaming window wraps, and reads
// the window-system segment each call built from the recycled call
// sequence on the free list. Its code pages and cache chunks must be
// one ascending run each, and its data pages at most three: the hot
// pages, the stream, and the stream's wrap. The memory system prices a
// list per run (see cpu.Segment), so a list reordered by a later edit
// would stay correct but lose that; this test fails instead.
func TestServerSegmentsAreRuns(t *testing.T) {
	for _, p := range persona.All() {
		k := kernel.New(p.Kernel)
		w := New(k, p)
		w.BindApp(appPages)
		calls := 0
		k.Spawn("app", 1, 8, func(tc *kernel.TC) {
			for _, o := range allOps {
				for i := 0; i < 8; i++ {
					w.call(tc, o, 1)
					calls++
					seg := w.free[len(w.free)-1].seg
					if r := ascendingRuns(seg.CodePages); r != 1 {
						t.Errorf("%s %s: code pages %v are %d runs, want 1", p.Short, o.name, seg.CodePages, r)
					}
					if r := ascendingRuns(seg.CacheChunks); len(seg.CacheChunks) > 0 && r != 1 {
						t.Errorf("%s %s: cache chunks %v are %d runs, want 1", p.Short, o.name, seg.CacheChunks, r)
					}
					if r := ascendingRuns(seg.DataPages); r > 3 {
						t.Errorf("%s %s: data pages %v are %d runs, want at most 3", p.Short, o.name, seg.DataPages, r)
					}
				}
			}
		})
		k.Run(simtime.Time(60 * simtime.Second))
		k.Shutdown()
		if calls != 8*len(allOps) {
			t.Fatalf("%s: %d calls completed, want %d", p.Short, calls, 8*len(allOps))
		}
	}
}
