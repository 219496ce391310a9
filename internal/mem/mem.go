// Package mem models the memory-system state that the paper's analysis
// attributes latency differences to: TLBs that are flushed on every
// protection-domain crossing (Pentium has no tagged TLB, [5] in the
// paper), and a cache whose warmth distinguishes first-run from
// steady-state behaviour.
//
// The model is deliberately coarse — LRU sets of page and line
// identifiers — because the methodology only needs miss *counts* that
// respond correctly to working-set size, reuse, and flushes.
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
// The recency list is intrusive over a node slab that grows to the peak
// working set and never past cap, so a machine pays for the lines it
// touches, not for the capacity it models (an m2026 L2 has 131,072
// lines; a campaign session ends holding a few dozen). The free list
// holds only slots that EvictOldest released. A miss reuses one of
// those, else appends a slot while the slab is below cap, else evicts
// the LRU entry into its slot.
//
// The index from identifier to slot is an open-addressed table with
// linear probing. It holds exactly one entry per resident identifier,
// and no empty entry lies between an entry and its home, the position
// the top bits of the identifier's Fibonacci hash pick. So a lookup
// stops at the first empty entry, and a delete shifts later entries of
// its run back over the hole instead of leaving a tombstone. The table
// starts empty and doubles whenever the slab outgrows half of it, so
// its load never exceeds ½ and its length follows the peak working
// set, not cap. A flush truncates the slab and the free list and clears
// the table in place, keeping all three allocations for the refill:
// TLBs are flushed on every protection-domain crossing, so both paths
// are hot.
type LRU struct {
	cap   int
	table []entry // the index: empty, or a power-of-two length at least minTable
	shift uint    // 64 - log2(len(table)), so a hash's top bits pick the home entry
	nodes []node  // grows to at most cap slots
	free  []int32 // slots released by EvictOldest, reused before appending
	head  int32   // most recently used, -1 when empty
	tail  int32   // least recently used, -1 when empty
}

// node is one slab slot of the intrusive recency list; prev/next are
// slot indices, -1 for none.
type node struct {
	id         uint64
	prev, next int32
}

// entry is one index entry: a resident identifier and its slab slot
// plus one, so the zero entry is empty and clear empties the table.
type entry struct {
	id   uint64
	slot int32
}

const (
	noSlot int32 = -1

	// minTable is the index length the first insert allocates.
	minTable = 8
	// fibonacci is 2^64 divided by the golden ratio. Multiplying by it
	// carries every bit of an identifier into the product's top bits,
	// so consecutive pages and ids that differ only in high bits (a
	// buffer-cache file number) still spread over the table.
	fibonacci = 0x9E3779B97F4A7C15
)

// NewLRU returns an empty LRU set with the given capacity. It allocates
// nothing in proportion to capacity.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("mem: non-positive LRU capacity")
	}
	return &LRU{cap: capacity, head: noSlot, tail: noSlot}
}

// Cap returns the capacity.
func (l *LRU) Cap() int { return l.cap }

// Len returns the number of resident identifiers.
func (l *LRU) Len() int { return len(l.nodes) - len(l.free) }

// Contains reports residency without updating recency.
func (l *LRU) Contains(id uint64) bool {
	_, ok := l.find(id)
	return ok
}

// Touch references id, returning true on a hit. On a miss the id is
// inserted, evicting the LRU entry if the set is full.
func (l *LRU) Touch(id uint64) bool {
	i, ok := l.find(id)
	if ok {
		l.moveToFront(l.table[i].slot - 1)
		return true
	}
	var slot int32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
	} else if len(l.nodes) < l.cap {
		slot = int32(len(l.nodes))
		l.nodes = append(l.nodes, node{})
		if 2*len(l.nodes) > len(l.table) {
			l.grow()
			i, _ = l.find(id)
		}
	} else {
		// The delete's backward shift may move the empty entry that
		// ended id's probe.
		slot = l.evict()
		i, _ = l.find(id)
	}
	l.nodes[slot].id = id
	l.table[i] = entry{id: id, slot: slot + 1}
	l.pushFront(slot)
	return false
}

// Insert makes id resident without reporting hit/miss (prefetch).
func (l *LRU) Insert(id uint64) { l.Touch(id) }

// Flush empties the set (a TLB flush on protection-domain crossing).
func (l *LRU) Flush() {
	clear(l.table)
	l.nodes = l.nodes[:0]
	l.free = l.free[:0]
	l.head, l.tail = noSlot, noSlot
}

// home returns the table position id's probe starts at.
func (l *LRU) home(id uint64) int { return int(id * fibonacci >> l.shift) }

// find returns the position of id's entry and true, or the empty
// position that ends its probe and false. The load bound guarantees an
// empty entry, so the probe terminates.
func (l *LRU) find(id uint64) (int, bool) {
	if len(l.table) == 0 {
		return 0, false
	}
	mask := len(l.table) - 1
	for i := l.home(id); ; i = (i + 1) & mask {
		switch e := l.table[i]; {
		case e.slot == 0:
			return i, false
		case e.id == id:
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
		if (j-l.home(l.table[j].id))&mask >= (j-i)&mask {
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
			i, _ := l.find(e.id)
			l.table[i] = e
		}
	}
}

func (l *LRU) pushFront(n int32) {
	l.nodes[n].prev = noSlot
	l.nodes[n].next = l.head
	if l.head != noSlot {
		l.nodes[l.head].prev = n
	}
	l.head = n
	if l.tail == noSlot {
		l.tail = n
	}
}

func (l *LRU) unlink(n int32) {
	prev, next := l.nodes[n].prev, l.nodes[n].next
	if prev != noSlot {
		l.nodes[prev].next = next
	} else {
		l.head = next
	}
	if next != noSlot {
		l.nodes[next].prev = prev
	} else {
		l.tail = prev
	}
	l.nodes[n].prev, l.nodes[n].next = noSlot, noSlot
}

func (l *LRU) moveToFront(n int32) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

// evict removes the LRU entry and returns its freed slot.
func (l *LRU) evict() int32 {
	victim := l.tail
	l.unlink(victim)
	i, _ := l.find(l.nodes[victim].id)
	l.remove(i)
	return victim
}

// EvictOldest discards up to n least-recently-used entries, returning
// how many were removed. Freed slots rejoin the free list.
func (l *LRU) EvictOldest(n int) int {
	evicted := 0
	for evicted < n && l.tail != noSlot {
		l.free = append(l.free, l.evict())
		evicted++
	}
	return evicted
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

// DefaultConfig matches the experimental machine in paper §2.1.
func DefaultConfig() Config {
	return Config{ITLBEntries: 32, DTLBEntries: 64, CacheLines: 8192}
}

// ConfigFor derives the memory-system capacities from a hardware
// profile. ConfigFor(machine.Pentium100()) equals DefaultConfig.
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

func touchAll(l *LRU, ids []uint64) int {
	misses := 0
	for _, id := range ids {
		if !l.Touch(id) {
			misses++
		}
	}
	return misses
}
