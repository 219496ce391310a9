package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"latlab/internal/machine"
)

func TestLRUBasic(t *testing.T) {
	l := NewLRU(2)
	if l.Touch(1) {
		t.Fatalf("first touch should miss")
	}
	if !l.Touch(1) {
		t.Fatalf("second touch should hit")
	}
	l.Touch(2)
	if l.Len() != 2 || l.Cap() != 2 {
		t.Fatalf("len/cap = %d/%d", l.Len(), l.Cap())
	}
	// Touch order was 1, 1, 2, so 1 is least recently used and a miss
	// on the full set evicts it.
	l.Touch(3)
	if l.Contains(1) {
		t.Fatalf("1 should have been evicted")
	}
	if !l.Contains(2) || !l.Contains(3) {
		t.Fatalf("2 and 3 should be resident")
	}
}

// lruSink keeps NewLRU's result live in the allocation test.
var lruSink *LRU

// NewLRU must not allocate in proportion to capacity: an m2026 L2 has
// 131,072 lines, and every booted machine builds one.
func TestNewLRUAllocationIndependentOfCapacity(t *testing.T) {
	small := testing.AllocsPerRun(100, func() { lruSink = NewLRU(1) })
	large := testing.AllocsPerRun(100, func() { lruSink = NewLRU(1 << 17) })
	if large > small {
		t.Fatalf("NewLRU(1<<17) allocates %.0f times, NewLRU(1) %.0f", large, small)
	}
}

// Once a set has grown to its working set, Touch allocates nothing: not
// on a hit, on a miss that evicts, or refilling after a flush.
func TestLRUTouchSteadyStateAllocationFree(t *testing.T) {
	l := NewLRU(64)
	pass := func() {
		for k := uint64(0); k < 90; k++ {
			l.Touch(50_000 + k)
			l.Touch(50_000 + k/2)
		}
		l.Flush()
	}
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("a pass of touches and a flush allocates %.1f times", allocs)
	}
}

// The operations the equivalence tests drive, numbered as an op byte
// selects them.
const (
	opTouch = iota
	opInsert
	opContains
	opEvictOldest
	opFlush
	opTouchList
	numOps
)

// lruPair drives LRU and the per-identifier oracle (lru_oracle_test.go)
// with one op stream and fails at the first disagreement. It counts
// which paths and list shapes the stream reached, so a generator can
// show it reached them all.
type lruPair struct {
	tb   testing.TB
	got  *LRU
	want *oracleLRU
	// resident counts the oracle's resident ids per window number, kept
	// by wantTouch, wantEvict and flush, and windows is its length: the
	// windows LRU must index, counted without looking at LRU. peakWins
	// and peakWinsEver are the most windows resident at once since the
	// last flush and since NewLRU, taken after every op and, inside a
	// list touch, after every run.
	resident                 map[uint64]int
	windows                  int
	peakWins, peakWinsEver   int
	peakBlocks               int      // the block slab's bound since the last flush (see check)
	wrapNums                 []uint64 // buffer reused by noteWrapped
	before                   []bool   // buffer reused by touchList
	freeWinHead, freeBlkHead int32    // the released-slot chains' heads before the op
	// Buffers reused by check: per window slot, the union of its
	// blocks and of their start bits; per slot, whether a walk met it.
	union, starts      []uint64
	winSeen, blockSeen []bool
	// order is AppendRecency's buffer.
	order []uint64

	evicted, flushes int // misses on a full set; flushes
	// winReuses and blockReuses count ops after which the slot heading
	// a released-slot chain before the op is in use again.
	winReuses, blockReuses int
	// splits counts single-id hits strictly inside a block (a split
	// into three); crossings, list ids that continue a run into the
	// next window; overCap, runs inside a window longer than the
	// capacity; ownEvictions, list ids resident before the list that
	// missed because earlier misses of their own run evicted them
	// first; repeats and descents, list ids equal to or below the one
	// before.
	splits, crossings, overCap, ownEvictions, repeats, descents int
	// longRuns counts ops that left a probe cluster (a run of occupied
	// index entries) of at least longRun, wraps ops after which some
	// entry's probe had run off the end of the index, and wrapShifts
	// ops whose backward-shift delete carried an entry from the start
	// of the index back across its end.
	longRuns, wraps, wrapShifts int
}

// longRun is the probe cluster length the equivalence tests must reach:
// at load ½ a probe for an absent key crosses 2.5 entries on average.
const longRun = 8

func newLRUPair(tb testing.TB, capacity int) *lruPair {
	return &lruPair{tb: tb, got: NewLRU(capacity), want: newOracleLRU(capacity), resident: make(map[uint64]int)}
}

// wantTouch touches id in the oracle and keeps resident and windows.
func (p *lruPair) wantTouch(id uint64) bool {
	w := p.want
	if !w.Contains(id) && w.Len() == w.cap {
		p.leave(w.nodes[w.tail].id)
	}
	hit := w.Touch(id)
	if !hit {
		if p.resident[id>>6]++; p.resident[id>>6] == 1 {
			p.windows++
		}
	}
	return hit
}

// wantEvict evicts up to n ids from the oracle and keeps resident and
// windows.
func (p *lruPair) wantEvict(n int) int {
	for k, i := p.want.tail, 0; k != noSlot && i < n; k, i = p.want.nodes[k].prev, i+1 {
		p.leave(p.want.nodes[k].id)
	}
	return p.want.EvictOldest(n)
}

func (p *lruPair) leave(id uint64) {
	if p.resident[id>>6]--; p.resident[id>>6] == 0 {
		delete(p.resident, id>>6)
		p.windows--
	}
}

// notePeak takes the resident window count into the peaks.
func (p *lruPair) notePeak() {
	p.peakWins = max(p.peakWins, p.windows)
	p.peakWinsEver = max(p.peakWinsEver, p.windows)
}

// do applies one single-id op to both sets: id is the Touch/Insert/
// Contains argument and n the EvictOldest count.
func (p *lruPair) do(op int, id uint64, n int) {
	p.tb.Helper()
	tableLen := p.noteWrapped()
	p.noteFree()
	switch op {
	case opTouch, opInsert:
		if !p.want.Contains(id) && p.want.Len() == p.got.Cap() {
			p.evicted++
		}
		if w, b := p.got.window(id>>6), uint(id&63); w != noSlot && p.got.wins[w].mask>>b&1 != 0 {
			if bk := p.got.blocks[p.got.blockAt(w, b)]; uint(bk.lo) < b && b < uint(bk.hi) {
				p.splits++
			}
		}
		if op == opInsert {
			p.got.Insert(id)
			p.wantTouch(id)
		} else if g, w := p.got.Touch(id), p.wantTouch(id); g != w {
			p.tb.Fatalf("Touch(%d) = %v, oracle %v", id, g, w)
		}
	case opContains: // compared below, after every op
	case opEvictOldest:
		if g, w := p.got.EvictOldest(n), p.wantEvict(n); g != w {
			p.tb.Fatalf("EvictOldest(%d) = %d, oracle %d", n, g, w)
		}
	case opFlush:
		p.got.Flush()
		p.want.Flush()
		clear(p.resident)
		p.windows, p.peakWins, p.peakBlocks = 0, 0, 0
		p.flushes++
	}
	if g, w := p.got.Contains(id), p.want.Contains(id); g != w {
		p.tb.Fatalf("Contains(%d) = %v, oracle %v", id, g, w)
	}
	p.notePeak()
	p.after(tableLen, false)
}

// touchList touches ids as one list in LRU (touchAll, the path behind
// System.TouchCode and its siblings) and one id at a time in the
// oracle, and compares the miss counts. It takes the resident windows
// into the peaks after each run, a maximal ascending run of consecutive
// ids inside one window: LRU prices a run's stretches so that its
// windows never outnumber those resident before or after the run, but
// one run can add a window that a later run's evictions drop.
func (p *lruPair) touchList(ids []uint64) {
	p.tb.Helper()
	tableLen := p.noteWrapped()
	p.noteFree()
	p.before = p.before[:0]
	run := 0 // length of the ascending run inside one window that ids[i] ends
	for i, id := range ids {
		p.before = append(p.before, p.want.Contains(id))
		switch {
		case i > 0 && id == ids[i-1]+1 && id&63 == 0:
			p.crossings++
			run = 1
		case i > 0 && id == ids[i-1]+1:
			run++
		default:
			if i > 0 && id == ids[i-1] {
				p.repeats++
			} else if i > 0 && id < ids[i-1] {
				p.descents++
			}
			run = 1
		}
		if run == p.got.Cap()+1 {
			p.overCap++
		}
	}
	got, want := touchAll(p.got, ids), 0
	missedInRun := false
	for i, id := range ids {
		if i > 0 && (id != ids[i-1]+1 || id&63 == 0) {
			p.notePeak()
			missedInRun = false
		}
		if !p.wantTouch(id) {
			want++
			if p.before[i] && missedInRun {
				p.ownEvictions++
			}
			missedInRun = true
		}
	}
	p.notePeak()
	if got != want {
		p.tb.Fatalf("touchAll(%v) = %d misses, oracle %d", ids, got, want)
	}
	p.after(tableLen, true)
}

// noteFree remembers the heads of the released-slot chains before an op.
func (p *lruPair) noteFree() {
	p.freeWinHead, p.freeBlkHead = p.got.freeWin, p.got.freeBlock
}

// noteWrapped remembers the window numbers whose probe wrapped, to see
// whether the op shifts one back across the end of the index, and
// returns the index length before the op. Only the run at the start of
// the index can hold such entries.
func (p *lruPair) noteWrapped() int {
	tableLen := len(p.got.table)
	p.wrapNums = p.wrapNums[:0]
	for i := 0; i < tableLen && p.got.table[i].slot != 0; i++ {
		if e := p.got.table[i]; p.got.home(e.num) > i {
			p.wrapNums = append(p.wrapNums, e.num)
		}
	}
	return tableLen
}

// after checks the sets once an op is done and counts a wrapped entry
// shifted back across the end of an index that kept its length. list
// tells check the op was a list touch.
func (p *lruPair) after(tableLen int, list bool) {
	p.check(list)
	if len(p.got.table) == tableLen {
		for _, num := range p.wrapNums {
			if i, ok := p.got.find(num); ok && p.got.home(num) <= i {
				p.wrapShifts++
				break
			}
		}
	}
}

// indexLen is the index length LRU must have after a peak of peak
// resident windows: none before the first insert, then the smallest
// doubling of minTable that keeps the load at or below ½.
func indexLen(peak int) int {
	if peak == 0 {
		return 0
	}
	n := minTable
	for n < 2*peak {
		n *= 2
	}
	return n
}

// zeroed returns s resized to n elements, all zero.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// check holds LRU to the oracle and to its own invariants after every
// op. The recency list, its blocks expanded MRU first from each block's
// top id down, equals the oracle's order, with intact back links and
// tail. Blocks are non-empty, ascending and inside one window, no two
// share an id, and each is the block its window records at its start
// bit. Len is the sum of the block lengths. Each window's mask is the
// union of its blocks and its start mask the union of their start bits.
// The index holds exactly one entry per window the oracle holds an id
// of, each pointing at that window's slot and reachable from its home
// without crossing an empty entry; its load is at most ½ and its length
// follows the most windows resident at once since NewLRU (a flush
// clears it in place), not cap. Released window and block slots are
// chained, hold nothing, and with the live ones fill their slabs. The
// window slab is as long as the most windows resident at once since the
// last flush. The block slab is as long as the most blocks listed at
// once since the last flush: a single-id op never lists more blocks
// midway than before or after it, but a list touch's runs can, unseen
// by check, so after a list touch the bound is taken to be the slab
// itself, and only a later single-id op can show the slab outgrowing it.
func (p *lruPair) check(list bool) {
	g, w := p.got, p.want
	if g.Len() != w.Len() {
		p.tb.Fatalf("Len = %d, oracle %d", g.Len(), w.Len())
	}
	p.union = zeroed(p.union, len(g.wins))
	p.starts = zeroed(p.starts, len(g.wins))
	p.winSeen = zeroed(p.winSeen, len(g.wins))
	p.blockSeen = zeroed(p.blockSeen, len(g.blocks))

	prev, pos, blocks := noSlot, 0, 0
	wi := w.head
	for k := g.head; k != noSlot; k = g.blocks[k].next {
		if k < 0 || int(k) >= len(g.blocks) || p.blockSeen[k] {
			p.tb.Fatalf("recency list reaches block slot %d twice or outside a slab of %d", k, len(g.blocks))
		}
		p.blockSeen[k] = true
		bk := g.blocks[k]
		if bk.prev != prev {
			p.tb.Fatalf("back link broken at block %d", blocks)
		}
		if bk.lo > bk.hi || bk.hi > 63 || bk.w < 0 || int(bk.w) >= len(g.wins) {
			p.tb.Fatalf("block slot %d holds bits %d..%d of window slot %d", k, bk.lo, bk.hi, bk.w)
		}
		s := span(uint(bk.lo), uint(bk.hi))
		if p.union[bk.w]&s != 0 {
			p.tb.Fatalf("block slot %d (bits %d..%d) overlaps another block of window slot %d", k, bk.lo, bk.hi, bk.w)
		}
		p.union[bk.w] |= s
		p.starts[bk.w] |= 1 << bk.lo
		win := &g.wins[bk.w]
		if win.at[bk.lo] != k {
			p.tb.Fatalf("window slot %d records block %d at bit %d, not block %d starting there", bk.w, win.at[bk.lo], bk.lo, k)
		}
		for b := int(bk.hi); b >= int(bk.lo); b-- {
			id := win.num<<6 | uint64(b)
			if wi == noSlot || w.nodes[wi].id != id {
				p.tb.Fatalf("MRU→LRU order diverges from the oracle at position %d (LRU has id %d)", pos, id)
			}
			wi = w.nodes[wi].next
			pos++
		}
		prev = k
		blocks++
	}
	if wi != noSlot || pos != g.Len() || g.tail != prev {
		p.tb.Fatalf("recency list holds %d ids ending at block %d, want Len %d ending at tail %d, and the oracle's whole list", pos, prev, g.Len(), g.tail)
	}
	p.order = g.AppendRecency(p.order[:0])
	wi = w.head
	for i, id := range p.order {
		if wi == noSlot || w.nodes[wi].id != id {
			p.tb.Fatalf("AppendRecency diverges from the oracle's MRU→LRU order at position %d (id %d)", i, id)
		}
		wi = w.nodes[wi].next
	}
	if wi != noSlot {
		p.tb.Fatalf("AppendRecency lists %d ids, the oracle more", len(p.order))
	}
	if h := p.freeBlkHead; h != noSlot && int(h) < len(g.blocks) && p.blockSeen[h] {
		p.blockReuses++
	}
	freeBlocks := 0
	for k := g.freeBlock; k != noSlot; k = g.blocks[k].next {
		if k < 0 || int(k) >= len(g.blocks) || p.blockSeen[k] {
			p.tb.Fatalf("released block slot %d is listed, chained twice or outside the slab", k)
		}
		p.blockSeen[k] = true
		freeBlocks++
	}
	if list {
		p.peakBlocks = max(p.peakBlocks, len(g.blocks))
	} else {
		p.peakBlocks = max(p.peakBlocks, blocks)
	}
	if blocks+freeBlocks != len(g.blocks) || len(g.blocks) != p.peakBlocks || len(g.blocks) > g.Cap() {
		p.tb.Fatalf("block slab has %d slots for %d listed and %d released blocks, want %d (cap %d)", len(g.blocks), blocks, freeBlocks, p.peakBlocks, g.Cap())
	}

	// Walk the index from an empty entry, so no run of occupied entries
	// is split at the end of the table. An entry is reachable when its
	// home lies in the run of occupied entries that ends at it.
	mask, start := len(g.table)-1, 0
	for start < len(g.table) && g.table[start].slot != 0 {
		start++
	}
	entries, run, longest, wrapped := 0, 0, 0, false
	for t := 1; t <= len(g.table); t++ {
		i := (start + t) & mask
		e := g.table[i]
		if e.slot == 0 {
			run = 0
			continue
		}
		entries++
		run++
		longest = max(longest, run)
		s := int(e.slot - 1)
		if s >= len(g.wins) || p.winSeen[s] || g.wins[s].num != e.num {
			p.tb.Fatalf("index entry %d maps window %d to slot %d, which is not that window's or is mapped twice", i, e.num, s)
		}
		p.winSeen[s] = true
		if win := &g.wins[s]; win.mask == 0 || win.mask != p.union[s] || win.starts != p.starts[s] {
			p.tb.Fatalf("window %d (slot %d) has mask %#x and starts %#x; its blocks cover %#x and start at %#x", e.num, s, win.mask, win.starts, p.union[s], p.starts[s])
		}
		h := g.home(e.num)
		if (i-h)&mask >= run {
			p.tb.Fatalf("window %d at index entry %d is unreachable: an empty entry lies after its home %d", e.num, i, h)
		}
		wrapped = wrapped || i < h
	}
	for s, u := range p.union {
		if u != 0 && !p.winSeen[s] {
			p.tb.Fatalf("window slot %d holds blocks but no index entry maps to it", s)
		}
	}
	if h := p.freeWinHead; h != noSlot && int(h) < len(g.wins) && p.winSeen[h] {
		p.winReuses++
	}
	freeWins := 0
	for s := g.freeWin; s != noSlot; s = g.wins[s].at[0] {
		if s < 0 || int(s) >= len(g.wins) || p.winSeen[s] || g.wins[s].mask != 0 {
			p.tb.Fatalf("released window slot %d is indexed, chained twice, outside the slab or not empty", s)
		}
		p.winSeen[s] = true
		freeWins++
	}
	if entries != p.windows || entries+freeWins != len(g.wins) || len(g.wins) != p.peakWins {
		p.tb.Fatalf("window slab has %d slots for %d indexed and %d released windows; the oracle holds ids of %d windows, at most %d at once since the flush",
			len(g.wins), entries, freeWins, p.windows, p.peakWins)
	}
	if len(g.table) != indexLen(p.peakWinsEver) || 2*entries > len(g.table) {
		p.tb.Fatalf("index has %d entries for %d resident windows and a peak of %d, want %d", len(g.table), entries, p.peakWinsEver, indexLen(p.peakWinsEver))
	}
	if longest >= longRun {
		p.longRuns++
	}
	if wrapped {
		p.wraps++
	}
}

// idShapes map an alphabet index k to an identifier of the kind a
// caller feeds an LRU, so the index and the run splitting meet each
// structure the simulator gives its keys.
var idShapes = []struct {
	name string
	id   func(k uint64) uint64
}{
	// Consecutive indices are consecutive ids, crossing a window every 64.
	{"dense", func(k uint64) uint64 { return k }},
	// fscache's pageKey: file<<40 | page, 16 pages a file.
	{"fscache", func(k uint64) uint64 { return (1+k/16)<<40 | k%16 }},
	// winsys's streaming windows: runs of 48 consecutive pages, one run
	// every 4096 pages above 50,000.
	{"winsys", func(k uint64) uint64 { return 50_000 + k/48*4096 + k%48 }},
	// Ids that agree on their low 48 bits: every id its own window.
	{"pow2", func(k uint64) uint64 { return 0x5a5a + k<<48 }},
}

// fuzzList builds a list touch from a fuzz op's 16-bit argument: an
// ascending run of 1 + bits 10..14 alphabet indices from bits 0..9
// (modulo the alphabet), and, when bit 15 is set, its first id again
// and the two indices below the start, descending.
func fuzzList(dst []uint64, shape func(uint64) uint64, alphabet uint64, arg int) []uint64 {
	start, n := uint64(arg&0x3ff), 1+(arg>>10)&31
	for i := 0; i < n; i++ {
		dst = append(dst, shape((start+uint64(i))%alphabet))
	}
	if arg&0x8000 != 0 {
		dst = append(dst, dst[0], shape((start+alphabet-1)%alphabet), shape((start+alphabet-2)%alphabet))
	}
	return dst
}

// FuzzLRUEquivalence drives LRU and the oracle with a fuzzer-chosen
// capacity (byte 0: 255 picks the paper's 8192-line L2, any other value
// v picks v+1), id shape (byte 1, an index into idShapes) and op stream
// (three bytes an op: the op, then a little-endian argument that is the
// alphabet index of the id, taken modulo an alphabet a little larger
// than the capacity, the EvictOldest count, or a list touch as fuzzList
// builds it).
func FuzzLRUEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, opTouch, 0, 0, opTouch, 1, 0, opTouch, 2, 0, opTouch, 0, 0})
	f.Add([]byte{3, 0, opTouch, 1, 0, opInsert, 2, 0, opEvictOldest, 1, 0, opTouch, 3, 0, opTouch, 4, 0, opTouch, 5, 0})
	f.Add([]byte{0, 0, opTouch, 7, 0, opFlush, 0, 0, opContains, 7, 0, opTouch, 7, 0})
	f.Add([]byte{255, 0, opTouch, 1, 2, opTouch, 3, 4, opEvictOldest, 1, 0, opTouch, 5, 6, opFlush, 0, 0, opTouch, 1, 2})
	// One structured family per shape: scan a 64-entry set past its
	// capacity so misses evict, bulk-evict half, and again twice, then
	// flush.
	for shape := range idShapes {
		seed := []byte{63, byte(shape)}
		for _, from := range []int{0, 0, 32} {
			for k := from; k < 90; k++ {
				seed = append(seed, opTouch, byte(k), 0)
			}
			seed = append(seed, opEvictOldest, 32, 0)
		}
		f.Add(append(seed, opFlush, 0, 0, opTouch, 5, 0))
	}
	// And one list family per shape, a data TLB streaming: a 64-entry
	// set, a hot run of 8 and a run of 10 sliding through 60 ids above
	// it, so each stream run finds its top ids at the LRU end; then a
	// run longer than the set, and a run with a repeat and a descent.
	for shape := range idShapes {
		seed := []byte{63, byte(shape)}
		list := func(start, n, mode int) {
			arg := start | (n-1)<<10 | mode<<15
			seed = append(seed, opTouchList, byte(arg), byte(arg>>8))
		}
		for call := 0; call < 16; call++ {
			list(0, 8, 0)
			pos := call * 10 % 60
			list(8+pos, min(10, 60-pos), 0)
			if pos+10 > 60 {
				list(8, pos+10-60, 0)
			}
		}
		list(60, 32, 0)
		list(60, 32, 0)
		list(100, 20, 1)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := int(data[0]) + 1
		if data[0] == 255 {
			capacity = 8192
		}
		shape := idShapes[int(data[1])%len(idShapes)].id
		alphabet := uint64(capacity + capacity/4 + 2)
		p := newLRUPair(t, capacity)
		var ids []uint64
		for i := 2; i+2 < len(data); i += 3 {
			arg := int(data[i+1]) | int(data[i+2])<<8
			if op := int(data[i]) % numOps; op == opTouchList {
				ids = fuzzList(ids[:0], shape, alphabet, arg)
				p.touchList(ids)
			} else {
				p.do(op, shape(uint64(arg)%alphabet), arg%(capacity+2))
			}
		}
	})
}

// listGen draws the list touches of TestLRUEquivalenceRandom as
// alphabet indices, in four kinds a quarter each:
//   - an ascending run of up to twice the capacity (capped at 160)
//     from a random start, so runs cross windows and outgrow small sets;
//   - a data TLB's call as winsys builds it: a hot run, then a run
//     sliding through a region that with the hot run just overflows the
//     set, split in two where it wraps. A run comes back to ids it
//     touched longest ago, whose top part is resident at the LRU end
//     while its lower part was evicted, so its own misses evict the top
//     part first;
//   - a run whose start steps down by half its length, so its top half
//     is the previous run's lower half;
//   - a short list of repeated and descending ids around a random one.
type listGen struct {
	capacity, alphabet int
	hot, region, pos   int // the winsys kind: hot run [0, hot), region [hot, hot+region)
	down               int // the stepping-down kind's next start
}

func newListGen(capacity, alphabet int) *listGen {
	hot := max(1, capacity/8)
	return &listGen{capacity: capacity, alphabet: alphabet, hot: hot, region: capacity - hot + 1 + capacity/16, down: alphabet / 2}
}

func (g *listGen) next(r *rand.Rand, dst []int) []int {
	switch r.Intn(4) {
	case 0:
		start, n := r.Intn(g.alphabet), 1+r.Intn(min(2*g.capacity+2, 160))
		for i := 0; i < n; i++ {
			dst = append(dst, (start+i)%g.alphabet)
		}
	case 1:
		for i := 0; i < g.hot; i++ {
			dst = append(dst, i)
		}
		n := max(1, g.region/6)
		for i := 0; i < n; i++ {
			dst = append(dst, g.hot+(g.pos+i)%g.region)
		}
		g.pos = (g.pos + n) % g.region
	case 2:
		n := 2 + r.Intn(min(g.capacity+2, 64))
		for i := 0; i < n; i++ {
			dst = append(dst, (g.down+i)%g.alphabet)
		}
		g.down = (g.down + g.alphabet - n/2) % g.alphabet
	default:
		k := r.Intn(g.alphabet)
		for _, d := range []int{0, 0, -1, 1, 2, 2, -2, -3} {
			dst = append(dst, (k+d+g.alphabet)%g.alphabet)
		}
	}
	return dst
}

// TestLRUEquivalenceRandom is the always-on cousin of
// FuzzLRUEquivalence: seeded op streams over random capacities under
// every id shape, and over the 8192-line L2 under the dense shape (each
// op's check walks the whole index and list), with an alphabet a
// quarter larger than the capacity. Until a set first evicts, its ids
// scan the alphabet in order, so it fills in about one capacity's worth
// of ops; after that half the ids are drawn at random, and flushes and
// bulk evictions join in. Small evictions keep released slots coming
// back throughout, and a fifth of the ops are list touches (listGen).
func TestLRUEquivalenceRandom(t *testing.T) {
	caps := []int{1, 2, 3, 8192}
	r := rand.New(rand.NewSource(1))
	for len(caps) < 40 {
		caps = append(caps, 1+r.Intn(300))
	}
	var total lruPair
	var idx []int
	var ids []uint64
	for _, shape := range idShapes {
		for i, capacity := range caps {
			if capacity == 8192 && shape.name != "dense" {
				continue
			}
			r := rand.New(rand.NewSource(int64(i + 1)))
			p := newLRUPair(t, capacity)
			alphabet := capacity + capacity/4 + 2
			lists := newListGen(capacity, alphabet)
			next := 0
			for step := 0; step < alphabet+2000; step++ {
				filled := p.evicted > 0
				k := r.Intn(alphabet)
				if !filled || r.Intn(2) == 0 {
					k = next % alphabet
					next++
				}
				id := shape.id(uint64(k))
				switch {
				case filled && r.Intn(4*capacity) == 0:
					p.do(opFlush, id, 0)
				case filled && r.Intn(8*capacity) == 0:
					p.do(opEvictOldest, id, r.Intn(capacity+2))
				case r.Intn(50) == 0:
					p.do(opEvictOldest, id, r.Intn(4))
				case filled && r.Intn(5) == 0:
					idx = lists.next(r, idx[:0])
					ids = ids[:0]
					for _, k := range idx {
						ids = append(ids, shape.id(uint64(k)))
					}
					p.touchList(ids)
				default:
					p.do([]int{opTouch, opTouch, opTouch, opInsert, opContains}[r.Intn(5)], id, 0)
				}
			}
			if p.evicted == 0 {
				t.Errorf("%s ids, capacity %d: never filled and evicted", shape.name, capacity)
			}
			total.flushes += p.flushes
			total.winReuses += p.winReuses
			total.blockReuses += p.blockReuses
			total.splits += p.splits
			total.crossings += p.crossings
			total.overCap += p.overCap
			total.ownEvictions += p.ownEvictions
			total.repeats += p.repeats
			total.descents += p.descents
			total.longRuns += p.longRuns
			total.wraps += p.wraps
			total.wrapShifts += p.wrapShifts
		}
	}
	if total.flushes == 0 || total.splits == 0 {
		t.Errorf("streams flushed %d times and split a block in three %d times, want both > 0", total.flushes, total.splits)
	}
	if total.winReuses == 0 || total.blockReuses == 0 {
		t.Errorf("streams reused a released window slot %d times and a released block slot %d times, want both > 0", total.winReuses, total.blockReuses)
	}
	if total.crossings == 0 || total.overCap == 0 || total.ownEvictions == 0 || total.repeats == 0 || total.descents == 0 {
		t.Errorf("list touches crossed a window %d times, ran past the capacity %d times, evicted ids later in their own run %d times, repeated %d and descended %d, want all > 0",
			total.crossings, total.overCap, total.ownEvictions, total.repeats, total.descents)
	}
	if total.longRuns == 0 || total.wraps == 0 || total.wrapShifts == 0 {
		t.Errorf("streams left a probe cluster of %d+ entries after %d ops, a wrapped probe after %d and shifted an entry back across the end of the index in %d, want all > 0",
			longRun, total.longRuns, total.wraps, total.wrapShifts)
	}
	t.Logf("window slot reuses %d, block slot reuses %d, splits %d, crossings %d, over capacity %d, own evictions %d, repeats %d, descents %d, long clusters %d, wraps %d, wrap shifts %d",
		total.winReuses, total.blockReuses, total.splits, total.crossings, total.overCap, total.ownEvictions, total.repeats, total.descents, total.longRuns, total.wraps, total.wrapShifts)
}

// TestSystemResident pins System.Resident: true only when every listed
// page and chunk is resident, without touching anything.
func TestSystemResident(t *testing.T) {
	s := NewSystem(ConfigFor(machine.Pentium100()))
	code, data, chunks := []uint64{1, 2}, []uint64{100}, []uint64{7}
	if !s.Resident(nil, nil, nil) {
		t.Fatalf("an empty working set is resident")
	}
	s.TouchCode(code)
	s.TouchData(data)
	if s.Resident(code, data, chunks) {
		t.Fatalf("Resident with an absent cache chunk")
	}
	s.TouchCache(chunks)
	before := s.ITLB.AppendRecency(nil)
	if !s.Resident(code, data, chunks) {
		t.Fatalf("not Resident after touching every page and chunk")
	}
	if after := s.ITLB.AppendRecency(nil); after[0] != before[0] {
		t.Fatalf("Resident moved the ITLB's most recent entry from %d to %d", before[0], after[0])
	}
	if s.Resident([]uint64{3}, data, chunks) || s.Resident(code, []uint64{101}, chunks) {
		t.Fatalf("Resident with an absent page")
	}
	noL2 := NewSystem(Config{ITLBEntries: 4, DTLBEntries: 4})
	if noL2.Resident(nil, nil, chunks) {
		t.Fatalf("a cache chunk is resident on a machine with no L2")
	}
}

func TestLRURecencyUpdate(t *testing.T) {
	l := NewLRU(2)
	l.Touch(1)
	l.Touch(2)
	l.Touch(1) // 2 becomes LRU
	l.Touch(3) // evicts 2
	if l.Contains(2) {
		t.Fatalf("2 should have been evicted after recency update")
	}
	if !l.Contains(1) || !l.Contains(3) {
		t.Fatalf("1 and 3 should be resident")
	}
}

func TestLRUFlush(t *testing.T) {
	l := NewLRU(4)
	for i := uint64(0); i < 4; i++ {
		l.Touch(i)
	}
	l.Flush()
	if l.Len() != 0 {
		t.Fatalf("flush should empty the set")
	}
	if l.Touch(0) {
		t.Fatalf("post-flush touch should miss")
	}
}

func TestLRUInsert(t *testing.T) {
	l := NewLRU(2)
	l.Insert(5)
	if !l.Contains(5) {
		t.Fatalf("Insert should make id resident")
	}
}

func TestLRUCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewLRU(0)
}

// Property: Len never exceeds Cap, and a working set within capacity hits
// on every touch after the first pass.
func TestLRUProperties(t *testing.T) {
	f := func(ids []uint64, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		l := NewLRU(capacity)
		for _, id := range ids {
			l.Touch(id)
			if l.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLRUWorkingSetWithinCapacityAlwaysHits(t *testing.T) {
	l := NewLRU(8)
	ws := []uint64{10, 20, 30, 40}
	touchAll(l, ws) // cold pass
	for pass := 0; pass < 5; pass++ {
		if misses := touchAll(l, ws); misses != 0 {
			t.Fatalf("pass %d: %d misses for resident working set", pass, misses)
		}
	}
}

func TestLRUWorkingSetLargerThanCapacityAlwaysMisses(t *testing.T) {
	// Sequential scan of cap+1 items through an LRU misses every time.
	l := NewLRU(3)
	ws := []uint64{1, 2, 3, 4}
	touchAll(l, ws)
	for pass := 0; pass < 3; pass++ {
		if misses := touchAll(l, ws); misses != len(ws) {
			t.Fatalf("pass %d: %d misses, want %d (LRU thrash)", pass, misses, len(ws))
		}
	}
}

func TestSystem(t *testing.T) {
	s := NewSystem(ConfigFor(machine.Pentium100()))
	if s.ITLB.Cap() != 32 || s.DTLB.Cap() != 64 || s.Cache.Cap() != 8192 {
		t.Fatalf("default capacities wrong")
	}
	code := []uint64{1, 2, 3}
	data := []uint64{100, 101}
	if got := s.TouchCode(code); got != 3 {
		t.Fatalf("cold code misses = %d, want 3", got)
	}
	if got := s.TouchData(data); got != 2 {
		t.Fatalf("cold data misses = %d, want 2", got)
	}
	if got := s.TouchCode(code); got != 0 {
		t.Fatalf("warm code misses = %d, want 0", got)
	}
	// A domain crossing flushes both TLBs but not the cache.
	chunks := []uint64{7, 8}
	s.TouchCache(chunks)
	s.FlushTLBs()
	if got := s.TouchCode(code); got != 3 {
		t.Fatalf("post-flush code misses = %d, want 3", got)
	}
	if got := s.TouchData(data); got != 2 {
		t.Fatalf("post-flush data misses = %d, want 2", got)
	}
	if got := s.TouchCache(chunks); got != 0 {
		t.Fatalf("cache should survive TLB flush, got %d misses", got)
	}
}

// BenchmarkLRUTouch is the 8192-line cache (the paper's 256 KB L2)
// scanned one id at a time by a working set a bit larger than its
// capacity, so every touch misses on a full set. Single-id misses make
// singleton blocks, so each touch takes Touch's dedicated miss path:
// the oldest block, a singleton, is unlinked and reused in place for
// the new id, and a window leaves the index every 64 touches as its
// last id is evicted.
func BenchmarkLRUTouch(b *testing.B) {
	l := NewLRU(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Touch(uint64(i % 10000))
	}
}

// BenchmarkLRUTouchTLB is a data TLB under NT 3.51: a 64-entry set
// whose working set, 90 pages above a high base drawn at random, is
// about 1.4x its capacity, so misses evict, flushed every 200 touches
// as protection-domain crossings flush it. The 90 pages lie in two
// windows and arrive one at a time, so every block is a singleton:
// hits take Touch's move path, and misses on the full set its in-place
// reuse of the oldest block.
func BenchmarkLRUTouchTLB(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = 50_000 + uint64(r.Intn(90))
	}
	l := NewLRU(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Touch(ids[i%len(ids)])
		if i%200 == 199 {
			l.Flush()
		}
	}
}

// pageRun returns the n consecutive ids from base.
func pageRun(base uint64, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = base + uint64(i)
	}
	return ids
}

// repaintLineCall returns one RepaintLines call's page lists as the
// window system builds them for its first operation on a p100
// (internal/winsys: an operation's stream window at 50,000, its hot
// pages and cache chunks 3,000 pages above): code, the server's
// 40-page run under NT 3.51 (flush) or the 12-page in-kernel GDI run
// under NT 4.0; data, 8 hot pages then 10 stream pages sliding through
// a 60-page window; and 10 cache chunks. Under NT 3.51 the crossings
// into and out of the server flush both TLBs around the segment. Each
// call of the returned function is one call's worth of touches.
func repaintLineCall(s *System, flush bool) func() {
	code := pageRun(140, 40)
	if !flush {
		code = pageRun(100, 12)
	}
	hot, chunks := pageRun(53_000, 8), pageRun(53_000*8, 10)
	data := make([]uint64, 0, len(hot)+10)
	pos := 0
	return func() {
		if flush {
			s.FlushTLBs()
		}
		s.TouchCode(code)
		data = append(data[:0], hot...)
		for i := 0; i < 10; i++ {
			data = append(data, 50_000+uint64((pos+i)%60))
		}
		pos = (pos + 10) % 60
		s.TouchData(data)
		s.TouchCache(chunks)
		if flush {
			s.FlushTLBs()
		}
	}
}

// List touches on a warm set allocate nothing, with or without the
// flushes that empty both TLBs around every call.
func TestTouchListsSteadyStateAllocationFree(t *testing.T) {
	for _, flush := range []bool{true, false} {
		call := repaintLineCall(NewSystem(ConfigFor(machine.Pentium100())), flush)
		for i := 0; i < 6; i++ {
			call()
		}
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Fatalf("flush %v: a warm call's list touches allocate %.1f times", flush, allocs)
		}
	}
}

// BenchmarkTouchPages prices one RepaintLines call's page lists per op
// (repaintLineCall) on a p100 memory system: nt351 flushes, refills the
// ITLB with the server's 40-page run and flushes again; nt40 touches a
// 12-page code run and never flushes, so its stream pages find their
// own run's top ids at the DTLB's LRU end. Every list is one to three
// ascending runs, the shape the sets price per run.
func BenchmarkTouchPages(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flush bool
	}{{"nt351", true}, {"nt40", false}} {
		b.Run(bc.name, func(b *testing.B) {
			call := repaintLineCall(NewSystem(ConfigFor(machine.Pentium100())), bc.flush)
			call()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}

func BenchmarkLRUFlush(b *testing.B) {
	l := NewLRU(64)
	for i := uint64(0); i < 64; i++ {
		l.Touch(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Touch(uint64(i & 63))
		if i&63 == 63 {
			l.Flush()
		}
	}
}

func TestTaggedTLBSurvivesFlush(t *testing.T) {
	cfg := ConfigFor(machine.Pentium100())
	cfg.TaggedTLB = true
	s := NewSystem(cfg)
	if !s.Tagged() {
		t.Fatalf("Tagged() should report the config")
	}
	code := []uint64{1, 2, 3}
	data := []uint64{100, 101}
	s.TouchCode(code)
	s.TouchData(data)
	s.FlushTLBs() // no-op on a tagged machine
	if got := s.TouchCode(code); got != 0 {
		t.Fatalf("tagged ITLB lost entries across flush: %d misses", got)
	}
	if got := s.TouchData(data); got != 0 {
		t.Fatalf("tagged DTLB lost entries across flush: %d misses", got)
	}
}

func TestNoL2EveryCacheReferenceMisses(t *testing.T) {
	cfg := ConfigFor(machine.Pentium100())
	cfg.CacheLines = 0
	s := NewSystem(cfg)
	if s.Cache != nil {
		t.Fatalf("CacheLines=0 should build no cache")
	}
	chunks := []uint64{7, 8, 9}
	if got := s.TouchCache(chunks); got != 3 {
		t.Fatalf("no-L2 misses = %d, want all %d", got, len(chunks))
	}
	if got := s.TouchCache(chunks); got != 3 {
		t.Fatalf("no-L2 machine must never warm up, got %d misses", got)
	}
	// The TLBs still work without an L2.
	s.TouchCode([]uint64{1})
	if got := s.TouchCode([]uint64{1}); got != 0 {
		t.Fatalf("TLBs should still warm up on a no-L2 machine")
	}
}
