package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	numOps
)

// lruPair drives LRU and the pre-allocating oracle (lru_oracle_test.go)
// with one op stream and fails at the first disagreement. It counts
// which path each LRU miss took, and which index shapes the stream
// built, so a generator can show it reached them all.
type lruPair struct {
	tb       testing.TB
	got      *LRU
	want     *oracleLRU
	peak     int      // largest Len since the last flush
	peakEver int      // largest Len since NewLRU: a flush keeps the index's length
	wrapIDs  []uint64 // buffer reused by do
	onList   []bool   // buffer reused by check: listed slots no index entry took yet

	fromFree, appended, evicted, flushes int
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
	return &lruPair{tb: tb, got: NewLRU(capacity), want: newOracleLRU(capacity)}
}

// do applies one op to both sets: id is the Touch/Insert/Contains
// argument and n the EvictOldest count.
func (p *lruPair) do(op int, id uint64, n int) {
	p.tb.Helper()
	// Only the run at the start of the index can hold entries whose
	// probe wrapped; remember them to see whether a delete shifts one
	// back across the end.
	tableLen := len(p.got.table)
	p.wrapIDs = p.wrapIDs[:0]
	for i := 0; i < tableLen && p.got.table[i].slot != 0; i++ {
		if e := p.got.table[i]; p.got.home(e.id) > i {
			p.wrapIDs = append(p.wrapIDs, e.id)
		}
	}
	switch op {
	case opTouch, opInsert:
		if !p.got.Contains(id) {
			switch {
			case len(p.got.free) > 0:
				p.fromFree++
			case len(p.got.nodes) < p.got.Cap():
				p.appended++
			default:
				p.evicted++
			}
		}
		if op == opInsert {
			p.got.Insert(id)
			p.want.Insert(id)
		} else if g, w := p.got.Touch(id), p.want.Touch(id); g != w {
			p.tb.Fatalf("Touch(%d) = %v, oracle %v", id, g, w)
		}
	case opContains: // compared below, after every op
	case opEvictOldest:
		if g, w := p.got.EvictOldest(n), p.want.EvictOldest(n); g != w {
			p.tb.Fatalf("EvictOldest(%d) = %d, oracle %d", n, g, w)
		}
	case opFlush:
		p.got.Flush()
		p.want.Flush()
		p.flushes++
		p.peak = 0
	}
	if g, w := p.got.Contains(id), p.want.Contains(id); g != w {
		p.tb.Fatalf("Contains(%d) = %v, oracle %v", id, g, w)
	}
	p.peak = max(p.peak, p.got.Len())
	p.peakEver = max(p.peakEver, p.got.Len())
	p.check()
	if len(p.got.table) == tableLen {
		for _, id := range p.wrapIDs {
			if i, ok := p.got.find(id); ok && p.got.home(id) <= i {
				p.wrapShifts++
				break
			}
		}
	}
}

// indexLen is the index length LRU must have after a peak working set
// of peak entries: none before the first insert, then the smallest
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

// check compares Len and the full MRU→LRU order, holds LRU's back links
// and tail to that order, and holds the slab and the index to their
// invariants. The slab has exactly as many slots as the peak working
// set since the last flush (so never more than cap), each holding an
// entry or waiting on the free list. The index holds exactly Len
// entries, one per resident id, each pointing at its id's slot and
// reachable from its home without crossing an empty entry; its load is
// at most ½, and its length follows the peak working set since NewLRU
// (a flush clears it in place), not cap.
func (p *lruPair) check() {
	p.tb.Helper()
	g, w := p.got, p.want
	if g.Len() != w.Len() {
		p.tb.Fatalf("Len = %d, oracle %d", g.Len(), w.Len())
	}
	if len(g.nodes) != p.peak || g.Len()+len(g.free) != len(g.nodes) {
		p.tb.Fatalf("slab has %d slots, %d free, for %d entries; peak since flush %d", len(g.nodes), len(g.free), g.Len(), p.peak)
	}
	prev, k := noSlot, 0
	p.onList = append(p.onList[:0], make([]bool, len(g.nodes))...)
	for gi, wi := g.head, w.head; gi != noSlot || wi != noSlot; k++ {
		if gi == noSlot || wi == noSlot || g.nodes[gi].id != w.nodes[wi].id {
			p.tb.Fatalf("MRU→LRU order diverges from the oracle at position %d", k)
		}
		if g.nodes[gi].prev != prev {
			p.tb.Fatalf("back link broken at position %d", k)
		}
		p.onList[gi] = true
		prev, gi, wi = gi, g.nodes[gi].next, w.nodes[wi].next
	}
	if k != g.Len() || g.tail != prev {
		p.tb.Fatalf("recency list holds %d entries ending at slot %d, want Len %d ending at tail %d", k, prev, g.Len(), g.tail)
	}

	if len(g.table) != indexLen(p.peakEver) || 2*g.Len() > len(g.table) {
		p.tb.Fatalf("index has %d entries for %d resident ids and a peak of %d, want %d", len(g.table), g.Len(), p.peakEver, indexLen(p.peakEver))
	}
	// Walk the index from an empty entry, so no run of occupied entries
	// is split at the end of the table. Each entry must take a listed
	// slot no other entry took, holding its id, so with Len entries the
	// index maps every resident id exactly once. An entry is reachable
	// when its home lies in the run of occupied entries that ends at it.
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
		if s >= len(g.nodes) || !p.onList[s] || g.nodes[s].id != e.id {
			p.tb.Fatalf("index entry %d maps id %d to slot %d, which is not that id's or is mapped twice", i, e.id, s)
		}
		p.onList[s] = false
		h := g.home(e.id)
		if (i-h)&mask >= run {
			p.tb.Fatalf("id %d at index entry %d is unreachable: an empty entry lies after its home %d", e.id, i, h)
		}
		wrapped = wrapped || i < h
	}
	if entries != g.Len() {
		p.tb.Fatalf("index holds %d entries, Len %d", entries, g.Len())
	}
	if longest >= longRun {
		p.longRuns++
	}
	if wrapped {
		p.wraps++
	}
}

// idShapes map an alphabet index k to an identifier of the kind a
// caller feeds an LRU, so the index meets each structure the simulator
// gives its keys.
var idShapes = []struct {
	name string
	id   func(k uint64) uint64
}{
	{"dense", func(k uint64) uint64 { return k }},
	// fscache's pageKey: file<<40 | page, 16 pages a file.
	{"fscache", func(k uint64) uint64 { return (1+k/16)<<40 | k%16 }},
	// winsys's streaming windows: runs of 48 consecutive pages, one run
	// every 4096 pages above 50,000.
	{"winsys", func(k uint64) uint64 { return 50_000 + k/48*4096 + k%48 }},
	// Ids that agree on their low 48 bits.
	{"pow2", func(k uint64) uint64 { return 0x5a5a + k<<48 }},
}

// FuzzLRUEquivalence drives LRU and the oracle with a fuzzer-chosen
// capacity (byte 0: 255 picks the paper's 8192-line L2, any other value
// v picks v+1), id shape (byte 1, an index into idShapes) and op stream
// (three bytes an op: the op, then a little-endian argument that is the
// alphabet index of the id, taken modulo an alphabet a little larger
// than the capacity, or the EvictOldest count).
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
		for i := 2; i+2 < len(data); i += 3 {
			arg := int(data[i+1]) | int(data[i+2])<<8
			p.do(int(data[i])%numOps, shape(uint64(arg)%alphabet), arg%(capacity+2))
		}
	})
}

// TestLRUEquivalenceRandom is the always-on cousin of
// FuzzLRUEquivalence: seeded op streams over random capacities under
// every id shape, and over the 8192-line L2 under the dense shape (each
// op's check walks the whole index), with an alphabet a quarter larger
// than the capacity. Until a set first evicts, its ids scan the
// alphabet in order, so it fills in about one capacity's worth of ops;
// after that half the ids are drawn at random, and flushes and bulk
// evictions join in. Small evictions keep freed slots coming back
// throughout.
func TestLRUEquivalenceRandom(t *testing.T) {
	caps := []int{1, 2, 3, 8192}
	r := rand.New(rand.NewSource(1))
	for len(caps) < 40 {
		caps = append(caps, 1+r.Intn(300))
	}
	var fromFree, flushes, longRuns, wraps, wrapShifts int
	for _, shape := range idShapes {
		for i, capacity := range caps {
			if capacity == 8192 && shape.name != "dense" {
				continue
			}
			r := rand.New(rand.NewSource(int64(i + 1)))
			p := newLRUPair(t, capacity)
			alphabet := capacity + capacity/4 + 2
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
				default:
					p.do([]int{opTouch, opTouch, opTouch, opInsert, opContains}[r.Intn(5)], id, 0)
				}
			}
			if p.evicted == 0 {
				t.Errorf("%s ids, capacity %d: never filled and evicted", shape.name, capacity)
			}
			fromFree += p.fromFree
			flushes += p.flushes
			longRuns += p.longRuns
			wraps += p.wraps
			wrapShifts += p.wrapShifts
		}
	}
	if fromFree == 0 || flushes == 0 {
		t.Errorf("streams reused %d freed slots and flushed %d times, want both > 0", fromFree, flushes)
	}
	if longRuns == 0 || wraps == 0 || wrapShifts == 0 {
		t.Errorf("streams left a probe cluster of %d+ entries after %d ops, a wrapped probe after %d and shifted an entry back across the end of the index in %d, want all > 0",
			longRun, longRuns, wraps, wrapShifts)
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
	s := NewSystem(DefaultConfig())
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

func BenchmarkLRUTouch(b *testing.B) {
	// 8192-line cache (the paper's 256 KB L2) under a working set a bit
	// larger than capacity: every miss exercises the evict/recycle path.
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
// as protection-domain crossings flush it.
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
	cfg := DefaultConfig()
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
	cfg := DefaultConfig()
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
