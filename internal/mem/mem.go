// Package mem models the memory-system state that the paper's analysis
// attributes latency differences to: TLBs that are flushed on every
// protection-domain crossing (Pentium has no tagged TLB, [5] in the
// paper), and a cache whose warmth distinguishes first-run from
// steady-state behaviour.
//
// The model is deliberately coarse — LRU sets of page and line
// identifiers — because the methodology only needs miss *counts* that
// respond correctly to working-set size, reuse, and flushes. The sets
// are exact: every hit, miss, eviction and recency order is what a
// per-identifier LRU list gives. They are laid out for the shape of
// the simulator's page lists, ascending runs of consecutive
// identifiers, so a list costs a few operations per run, not per
// identifier (see LRU).
package mem

import (
	"math/bits"

	"latlab/internal/machine"
	"latlab/internal/spans"
)

// LRU is a fixed-capacity LRU set of 64-bit identifiers. Touch reports
// hit or miss and makes the identifier most-recently-used, evicting the
// least-recently-used entry on overflow. The zero value is unusable; use
// NewLRU.
//
// The set is laid out for the traffic it gets: page and chunk lists in
// ascending runs of consecutive identifiers (a server's code pages, a
// data window streaming through the DTLB, an operation's cache chunks).
// Identifiers are grouped into aligned windows of 64, and residency is
// one 64-bit mask per window that holds a resident identifier. The
// recency list holds blocks, not identifiers: a block is a run of
// consecutive resident identifiers inside one window whose recency
// ascends with the identifier, so the list expands, most recent first,
// into each block's identifiers from its top down. A list touch
// (touchAll, behind System.TouchCode and its siblings) splits the list
// into maximal ascending runs within a window and prices each run in
// stretches of uniform residency. An absent stretch evicts at the LRU
// end what it overflows, then becomes one block at the front, or
// extends the front block when that one ends just below it. A resident
// stretch inside one block moves the block, or splits it into at most
// three. Because each stretch evicts before the next one is examined,
// a run's own misses can evict its later identifiers first, exactly as
// touching them one by one would. So a run costs a few block
// operations whatever its length. A single Touch costs about what a
// per-identifier list did: a hit on a singleton block is a move, and a
// miss on a full set whose oldest block is a singleton takes that
// block over in place.
//
// Windows and blocks live in two slabs that grow to their peak count
// since the last flush and never past cap, with released slots chained
// through the slabs themselves. So a machine pays for the lines it
// touches, not for the capacity it models (an m2026 L2 has 131,072
// lines; a campaign session ends holding a few dozen). Each window
// records where its blocks start (a start mask, and the block starting
// at each start bit), so the block holding a resident identifier is one
// masked bit search away.
//
// The index from window number to window slot is an open-addressed
// table with linear probing. It holds exactly one entry per resident
// window, and no empty entry lies between an entry and its home, the
// position the top bits of the window number's Fibonacci hash pick. So
// a lookup stops at the first empty entry, and a delete shifts later
// entries of its run back over the hole instead of leaving a
// tombstone. The table starts empty and doubles whenever the window
// slab outgrows half of it, so its load never exceeds ½ and its length
// follows the peak number of resident windows, not cap. A flush
// truncates both slabs and clears the table in place, keeping all
// three allocations for the refill: TLBs are flushed on every
// protection-domain crossing, so both paths are hot.
type LRU struct {
	cap    int
	n      int      // resident identifiers
	table  []entry  // the index: empty, or a power-of-two length at least minTable
	shift  uint     // 64 - log2(len(table)), so a hash's top bits pick the home entry
	wins   []window // one slot per resident window
	blocks []block  // the recency list's nodes
	// freeWin and freeBlock head the chains of released slots, linked
	// through window.at[0] and block.next; noSlot when empty. A release
	// pushes and an allocation pops, so a slot released by an eviction
	// is the one the same miss then takes.
	freeWin, freeBlock int32
	head, tail         int32 // most and least recently used blocks, noSlot when empty
}

// window is the residency of one aligned window of 64 identifiers.
type window struct {
	num    uint64    // the window number: its identifiers shifted right by 6
	mask   uint64    // bit b is set when identifier num<<6|b is resident
	starts uint64    // bit b is set when a block starts at b
	at     [64]int32 // at[b] is the block starting at b, for each bit of starts
}

// block is one node of the recency list: identifiers lo..hi of the
// window in slot w, hi the most recently used. prev and next are block
// slots, noSlot for none.
type block struct {
	w          int32
	lo, hi     uint8
	prev, next int32
}

// entry is one index entry: a resident window's number and its slot
// plus one, so the zero entry is empty and clear empties the table.
type entry struct {
	num  uint64
	slot int32
}

const (
	noSlot int32 = -1

	// minTable is the index length the first insert allocates.
	minTable = 8
	// minBlocks is the block slab capacity the first block allocates.
	minBlocks = 8
	// fibonacci is 2^64 divided by the golden ratio. Multiplying by it
	// carries every bit of a window number into the product's top bits,
	// so consecutive windows and numbers that differ only in high bits
	// (a buffer-cache file number) still spread over the table.
	fibonacci = 0x9E3779B97F4A7C15
)

// NewLRU returns an empty LRU set with the given capacity. It allocates
// nothing in proportion to capacity.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("mem: non-positive LRU capacity")
	}
	return &LRU{cap: capacity, freeWin: noSlot, freeBlock: noSlot, head: noSlot, tail: noSlot}
}

// Cap returns the capacity.
func (l *LRU) Cap() int { return l.cap }

// Len returns the number of resident identifiers.
func (l *LRU) Len() int { return l.n }

// Contains reports residency without updating recency.
func (l *LRU) Contains(id uint64) bool {
	w := l.window(id >> 6)
	return w != noSlot && l.wins[w].mask>>(id&63)&1 != 0
}

// AppendRecency appends the resident identifiers to dst, most recently
// used first, and returns the extended slice. It changes nothing: it is
// how a test compares the recency order two machines leave, which no
// hit or miss shows until an eviction reaches the entries that differ.
func (l *LRU) AppendRecency(dst []uint64) []uint64 {
	for k := l.head; k != noSlot; k = l.blocks[k].next {
		bk := l.blocks[k]
		num := l.wins[bk.w].num
		for b := int(bk.hi); b >= int(bk.lo); b-- {
			dst = append(dst, num<<6|uint64(b))
		}
	}
	return dst
}

// Touch references id, returning true on a hit. On a miss the id is
// inserted, evicting the LRU entry if the set is full.
//
// A hit on a singleton block is a move. A miss makes id a singleton
// block at the front without merging it into the front block, so
// single-id traffic keeps singleton blocks and stays on these two
// paths; on a full set whose oldest block is a singleton, that block's
// slot is taken over in place.
func (l *LRU) Touch(id uint64) bool {
	num, b := id>>6, uint(id&63)
	w := l.window(num)
	if w != noSlot {
		// A block starting at b holds b, and a singleton one needs no
		// bit search.
		win := &l.wins[w]
		if win.starts>>b&1 != 0 {
			if k := win.at[b]; uint(l.blocks[k].hi) == b {
				l.moveToFront(k)
				return true
			}
		}
		if win.mask>>b&1 != 0 {
			l.touchResident(l.blockAt(w, b), b, b)
			return true
		}
	}
	k := noSlot
	if l.n == l.cap {
		if t := l.tail; l.blocks[t].lo == l.blocks[t].hi {
			tw, bit := l.blocks[t].w, uint64(1)<<l.blocks[t].lo
			l.unlink(t)
			l.wins[tw].mask &^= bit
			l.wins[tw].starts &^= bit
			if l.wins[tw].mask == 0 {
				l.dropWindow(tw)
				if tw == w {
					w = noSlot
				}
			}
			l.n--
			k = t
		} else {
			l.evict(1)
			if w != noSlot && l.wins[w].mask == 0 {
				w = noSlot
			}
		}
	}
	if w == noSlot {
		w = l.addWindow(num)
	}
	if k == noSlot {
		k = l.allocBlock()
	}
	win := &l.wins[w]
	win.mask |= 1 << b
	win.starts |= 1 << b
	win.at[b] = k
	l.blocks[k] = block{w: w, lo: uint8(b), hi: uint8(b)}
	l.pushFront(k)
	l.n++
	return false
}

// Insert makes id resident without reporting hit/miss (prefetch).
func (l *LRU) Insert(id uint64) { l.Touch(id) }

// Flush empties the set (a TLB flush on protection-domain crossing).
func (l *LRU) Flush() {
	clear(l.table)
	l.wins = l.wins[:0]
	l.blocks = l.blocks[:0]
	l.n = 0
	l.freeWin, l.freeBlock = noSlot, noSlot
	l.head, l.tail = noSlot, noSlot
}

// EvictOldest discards up to n least-recently-used entries, returning
// how many were removed.
func (l *LRU) EvictOldest(n int) int { return l.evict(n) }

// touchRun references identifiers a..c of window num in ascending
// order, returning the miss count. It takes the run a stretch at a
// time, re-reading the window's mask before each, because an absent
// stretch's evictions can reach identifiers later in the run.
func (l *LRU) touchRun(num uint64, a, c uint) int {
	misses := 0
	w := l.window(num)
	for a <= c {
		var mask uint64
		if w != noSlot {
			mask = l.wins[w].mask
		}
		if mask>>a&1 != 0 {
			// Resident up to the end of the block holding a: every
			// identifier of a block is resident.
			k := l.blockAt(w, a)
			end := min(c, uint(l.blocks[k].hi))
			l.touchResident(k, a, end)
			a = end + 1
			continue
		}
		end := c
		if above := mask >> a; above != 0 {
			end = min(c, a+uint(bits.TrailingZeros64(above))-1)
		}
		misses += int(end - a + 1)
		w = l.touchAbsent(num, w, a, end)
		a = end + 1
	}
	return misses
}

// touchAbsent references identifiers a..c of window num, none of them
// resident, in ascending order. It evicts at the LRU end what they
// overflow, then marks them resident and places them at the front as
// one block. A stretch longer than the set would evict its own lower
// identifiers, so only its upper cap are placed. w is the window's
// slot, or noSlot if none of its identifiers is resident; the window's
// slot afterwards is returned.
func (l *LRU) touchAbsent(num uint64, w int32, a, c uint) int32 {
	if int(c-a+1) > l.cap {
		a = c + 1 - uint(l.cap)
	}
	if over := l.n + int(c-a+1) - l.cap; over > 0 {
		l.evict(over)
		// The evictions may have emptied the window and released its
		// slot; a released slot's mask is zero.
		if w != noSlot && l.wins[w].mask == 0 {
			w = noSlot
		}
	}
	if w == noSlot {
		w = l.addWindow(num)
	}
	l.wins[w].mask |= span(a, c)
	l.n += int(c - a + 1)
	l.pushRun(w, a, c, noSlot)
	return w
}

// touchResident references identifiers a..c of block k, all resident,
// in ascending order. They become the front block, and what remains of
// k stays where k was: its part above c, which is more recent, then its
// part below a.
func (l *LRU) touchResident(k int32, a, c uint) {
	bk := l.blocks[k]
	lo, hi := uint(bk.lo), uint(bk.hi)
	if k == l.head && c == hi {
		// hi..a already lead the list, followed by k's part below a.
		return
	}
	if a == lo && c == hi {
		l.unlink(k)
		l.pushRun(bk.w, a, c, k)
		return
	}
	win := &l.wins[bk.w]
	switch {
	case a == lo: // k keeps its part above c; a's start bit passes to pushRun
		l.blocks[k].lo = uint8(c + 1)
		win.starts |= 1 << (c + 1)
		win.at[c+1] = k
	case c == hi: // k keeps its part below a
		l.blocks[k].hi = uint8(a - 1)
	default: // k keeps its part below a; its part above c goes just before it
		u := l.allocBlock()
		l.blocks[u] = block{w: bk.w, lo: uint8(c + 1), hi: uint8(hi)}
		l.insertBefore(u, k)
		l.blocks[k].hi = uint8(a - 1)
		win.starts |= 1 << (c + 1)
		win.at[c+1] = u
	}
	l.pushRun(bk.w, a, c, noSlot)
}

// pushRun puts identifiers a..c of the window in slot w, already marked
// resident, at the front of the recency list. When the front block is
// in the same window and ends at a-1 it is extended and k, if any, is
// released; otherwise k, or a fresh block when k is noSlot, holds them.
func (l *LRU) pushRun(w int32, a, c uint, k int32) {
	if h := l.head; h != noSlot && l.blocks[h].w == w && uint(l.blocks[h].hi)+1 == a {
		l.blocks[h].hi = uint8(c)
		l.wins[w].starts &^= 1 << a
		if k != noSlot {
			l.release(k)
		}
		return
	}
	if k == noSlot {
		k = l.allocBlock()
	}
	l.blocks[k] = block{w: w, lo: uint8(a), hi: uint8(c)}
	l.wins[w].starts |= 1 << a
	l.wins[w].at[a] = k
	l.pushFront(k)
}

// evict removes up to n identifiers from the LRU end, returning how
// many it removed. A window left with none leaves the index and its
// slot is released.
func (l *LRU) evict(n int) int {
	removed := 0
	for removed < n && l.tail != noSlot {
		t := l.tail
		bk := &l.blocks[t]
		w, lo, hi := bk.w, uint(bk.lo), uint(bk.hi)
		m := min(hi-lo+1, uint(n-removed))
		win := &l.wins[w]
		win.mask &^= span(lo, lo+m-1)
		win.starts &^= 1 << lo
		if lo+m <= hi {
			bk.lo = uint8(lo + m)
			win.starts |= 1 << (lo + m)
			win.at[lo+m] = t
		} else {
			l.unlink(t)
			l.release(t)
		}
		if win.mask == 0 {
			l.dropWindow(w)
		}
		removed += int(m)
	}
	l.n -= removed
	return removed
}

// span returns the mask of bits a..c.
func span(a, c uint) uint64 { return ^uint64(0) >> (63 - c) &^ (1<<a - 1) }

// blockAt returns the block holding resident identifier b of the window
// in slot w: the one starting at the window's highest start bit at or
// below b.
func (l *LRU) blockAt(w int32, b uint) int32 {
	win := &l.wins[w]
	return win.at[bits.Len64(win.starts<<(63-b))+int(b)-64]
}

// window returns the slot of window num, or noSlot when none of its
// identifiers is resident. It repeats find's probe rather than calling
// it so that it stays small enough to inline into Touch.
func (l *LRU) window(num uint64) int32 {
	if len(l.table) == 0 {
		return noSlot
	}
	mask := len(l.table) - 1
	for i := l.home(num); ; i = (i + 1) & mask {
		if e := l.table[i]; e.slot == 0 || e.num == num {
			return e.slot - 1 // noSlot for the empty entry that ends the probe
		}
	}
}

// addWindow gives window num a slot, reusing a released one before
// growing the slab, and enters it in the index.
func (l *LRU) addWindow(num uint64) int32 {
	w := l.freeWin
	if w != noSlot {
		l.freeWin = l.wins[w].at[0]
	} else {
		// Extend the slab over storage a flush kept without zeroing
		// it: at is read only at start bits, which are set first.
		w = int32(len(l.wins))
		if len(l.wins) < cap(l.wins) {
			l.wins = l.wins[:w+1]
		} else {
			l.wins = append(l.wins, window{})
		}
		if 2*len(l.wins) > len(l.table) {
			l.grow()
		}
	}
	win := &l.wins[w]
	win.num, win.mask, win.starts = num, 0, 0
	i, _ := l.find(num)
	l.table[i] = entry{num: num, slot: w + 1}
	return w
}

// dropWindow removes the emptied window in slot w from the index and
// releases its slot.
func (l *LRU) dropWindow(w int32) {
	i, _ := l.find(l.wins[w].num)
	l.remove(i)
	l.wins[w].at[0] = l.freeWin
	l.freeWin = w
}

// allocBlock returns a block slot, reusing a released one before
// growing the slab.
func (l *LRU) allocBlock() int32 {
	if k := l.freeBlock; k != noSlot {
		l.freeBlock = l.blocks[k].next
		return k
	}
	if l.blocks == nil {
		// One allocation for the first blocks instead of the doublings
		// from one: every booted machine's TLBs need several.
		l.blocks = make([]block, 0, min(l.cap, minBlocks))
	}
	l.blocks = append(l.blocks, block{})
	return int32(len(l.blocks) - 1)
}

// release chains block slot k, already off the recency list, for reuse.
func (l *LRU) release(k int32) {
	l.blocks[k].next = l.freeBlock
	l.freeBlock = k
}

// home returns the table position num's probe starts at.
func (l *LRU) home(num uint64) int { return int(num * fibonacci >> l.shift) }

// find returns the position of window num's entry and true, or the
// empty position that ends its probe and false. The load bound
// guarantees an empty entry, so the probe terminates.
func (l *LRU) find(num uint64) (int, bool) {
	if len(l.table) == 0 {
		return 0, false
	}
	mask := len(l.table) - 1
	for i := l.home(num); ; i = (i + 1) & mask {
		switch e := l.table[i]; {
		case e.slot == 0:
			return i, false
		case e.num == num:
			return i, true
		}
	}
}

// remove deletes the entry at position i by backward shift: each later
// entry of the run whose home does not lie cyclically in (hole, its
// position] moves into the hole, and the hole moves to where it was, so
// every remaining entry stays reachable from its home.
func (l *LRU) remove(i int) {
	mask := len(l.table) - 1
	for j := (i + 1) & mask; l.table[j].slot != 0; j = (j + 1) & mask {
		if (j-l.home(l.table[j].num))&mask >= (j-i)&mask {
			l.table[i] = l.table[j]
			i = j
		}
	}
	l.table[i] = entry{}
}

// grow doubles the table, or allocates the first one, and re-inserts
// every entry.
func (l *LRU) grow() {
	old := l.table
	l.table = make([]entry, max(2*len(old), minTable))
	l.shift = 64 - uint(bits.TrailingZeros(uint(len(l.table))))
	for _, e := range old {
		if e.slot != 0 {
			i, _ := l.find(e.num)
			l.table[i] = e
		}
	}
}

func (l *LRU) pushFront(k int32) {
	l.blocks[k].prev = noSlot
	l.blocks[k].next = l.head
	if l.head != noSlot {
		l.blocks[l.head].prev = k
	}
	l.head = k
	if l.tail == noSlot {
		l.tail = k
	}
}

// insertBefore links block u into the recency list just before block k.
func (l *LRU) insertBefore(u, k int32) {
	p := l.blocks[k].prev
	l.blocks[u].prev, l.blocks[u].next = p, k
	if p != noSlot {
		l.blocks[p].next = u
	} else {
		l.head = u
	}
	l.blocks[k].prev = u
}

func (l *LRU) unlink(k int32) {
	prev, next := l.blocks[k].prev, l.blocks[k].next
	if prev != noSlot {
		l.blocks[prev].next = next
	} else {
		l.head = next
	}
	if next != noSlot {
		l.blocks[next].prev = prev
	} else {
		l.tail = prev
	}
}

// moveToFront makes listed block k the most recent. A block behind the
// head has a predecessor, so the unlink needs no head test.
func (l *LRU) moveToFront(k int32) {
	h := l.head
	if h == k {
		return
	}
	prev, next := l.blocks[k].prev, l.blocks[k].next
	l.blocks[prev].next = next
	if next != noSlot {
		l.blocks[next].prev = prev
	} else {
		l.tail = prev
	}
	l.blocks[k].prev, l.blocks[k].next = noSlot, h
	l.blocks[h].prev = k
	l.head = k
}

// System bundles the memory structures of the simulated machine. The
// capacities default to the paper's Pentium: 32-entry instruction TLB,
// 64-entry data TLB, and a 256 KB L2 modelled as 8192 32-byte lines
// (identified at a coarser "chunk" granularity by callers). Cache is
// nil on a machine with no L2 — every cache reference then misses.
type System struct {
	ITLB  *LRU
	DTLB  *LRU
	Cache *LRU

	tagged bool
	rec    *spans.Recorder
}

// SetRecorder attaches a span recorder; nil restores the untraced path.
func (s *System) SetRecorder(rec *spans.Recorder) { s.rec = rec }

// Config sets the capacities of a System. CacheLines <= 0 means no L2:
// the System is built without a cache and every chunk reference pays
// the miss penalty. TaggedTLB makes FlushTLBs a no-op — entries carry
// an address-space tag, so they survive protection-domain crossings.
type Config struct {
	ITLBEntries int
	DTLBEntries int
	CacheLines  int
	TaggedTLB   bool
}

// ConfigFor derives the memory-system capacities from a hardware
// profile.
func ConfigFor(p machine.Profile) Config {
	p = p.OrDefault()
	return Config{
		ITLBEntries: p.ITLBEntries,
		DTLBEntries: p.DTLBEntries,
		CacheLines:  p.CacheLines(),
		TaggedTLB:   p.TaggedTLB,
	}
}

// NewSystem builds a System from cfg.
func NewSystem(cfg Config) *System {
	s := &System{
		ITLB:   NewLRU(cfg.ITLBEntries),
		DTLB:   NewLRU(cfg.DTLBEntries),
		tagged: cfg.TaggedTLB,
	}
	if cfg.CacheLines > 0 {
		s.Cache = NewLRU(cfg.CacheLines)
	}
	return s
}

// Tagged reports whether the TLBs are address-space tagged.
func (s *System) Tagged() bool { return s.tagged }

// FlushTLBs empties both TLBs, as the Pentium does on every protection-
// domain crossing (paper §5.3). The cache survives. On a tagged-TLB
// machine this is a no-op: entries are qualified by address-space tag
// instead of being discarded (page identifiers are globally unique in
// this simulator, so surviving entries never alias across processes).
func (s *System) FlushTLBs() {
	if s.tagged {
		return
	}
	if s.rec != nil {
		// Count records the mappings discarded — the future TLB misses
		// this flush manufactures.
		s.rec.Charge(spans.CauseTLBFlush, "flush", 0, int64(s.ITLB.Len()+s.DTLB.Len()))
	}
	s.ITLB.Flush()
	s.DTLB.Flush()
}

// Resident reports whether every code page, data page and cache chunk
// listed is resident, so touching them would hit throughout, without
// updating recency. With no L2 a cache chunk is never resident.
func (s *System) Resident(code, data, chunks []uint64) bool {
	for _, id := range code {
		if !s.ITLB.Contains(id) {
			return false
		}
	}
	for _, id := range data {
		if !s.DTLB.Contains(id) {
			return false
		}
	}
	if len(chunks) > 0 && s.Cache == nil {
		return false
	}
	for _, id := range chunks {
		if !s.Cache.Contains(id) {
			return false
		}
	}
	return true
}

// TouchCode references a set of code pages, returning the miss count.
func (s *System) TouchCode(pages []uint64) int {
	return touchAll(s.ITLB, pages)
}

// TouchData references a set of data pages, returning the miss count.
func (s *System) TouchData(pages []uint64) int {
	return touchAll(s.DTLB, pages)
}

// TouchCache references a set of cache chunks, returning the miss
// count. With no L2 every reference misses.
func (s *System) TouchCache(chunks []uint64) int {
	if s.Cache == nil {
		return len(chunks)
	}
	return touchAll(s.Cache, chunks)
}

// touchAll references ids in order, returning the miss count. It
// splits them into maximal ascending runs of consecutive identifiers
// inside one window: a run of one is a Touch, a longer one touchRun.
// A list of one id, what interrupt handlers, the context switch and
// the idle loop touch, goes straight to Touch: the run scan would make
// such a list cost about a quarter more.
func touchAll(l *LRU, ids []uint64) int {
	if len(ids) == 1 {
		if l.Touch(ids[0]) {
			return 0
		}
		return 1
	}
	misses := 0
	for i := 0; i < len(ids); {
		// The run ends at the list's end, the window's end, or the
		// first id that does not continue it.
		id, j := ids[i], i+1
		for end := min(len(ids), i+64-int(id&63)); j < end && ids[j] == id+uint64(j-i); {
			j++
		}
		if j == i+1 {
			if !l.Touch(id) {
				misses++
			}
		} else {
			b := uint(id & 63)
			misses += l.touchRun(id>>6, b, b+uint(j-i-1))
		}
		i = j
	}
	return misses
}
