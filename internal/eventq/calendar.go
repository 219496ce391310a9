package eventq

import (
	"math/bits"

	"latlab/internal/simtime"
)

// Calendar queue. The queue's pop order is the total order (at, seq) —
// seq is unique — so any layout that yields the minimum of that order is
// simulation-equivalent to a plain binary heap; the differential fuzzer
// (FuzzQueueEquivalence) holds the calendar to a test-only 4-ary heap
// under arbitrary schedule/cancel/pop interleavings.
//
// Layout: a power-of-two ring of buckets, each covering 1<<shift
// nanoseconds of simulated time. An event at instant `at` lives in
// logical bucket at>>shift; the ring holds the window
// [base, base+len(buckets)) of logical buckets, and events beyond the
// horizon wait in an unordered overflow list until the cursor advances
// far enough to admit them. Events for logical buckets before the
// cursor (legal: base advances to the earliest *occupied* bucket, and
// a later Schedule may target an earlier instant that is still in the
// future) are clamped into the base bucket; the min-scan inspects every
// entry of the first occupied bucket, so clamping never reorders pops.
type calendar struct {
	shift    uint
	mask     int64
	buckets  [][]entry
	occupied []uint64 // bitset over physical bucket indices
	base     int64    // logical index of the earliest possibly-occupied bucket
	count    int      // entries in buckets + overflow (incl. not-yet-skipped cancelled)
	overflow []entry
	// ovMin is a conservative lower bound on the earliest overflow
	// entry's instant (it may refer to a cancelled entry); Never when
	// the overflow list is empty.
	ovMin simtime.Time
	// memo caches the last minLocate result so the NextTime-then-Pop
	// pattern pays for one scan, not two. Any mutation that could
	// displace the minimum — schedule, removeAt, Cancel — clears it.
	memoOK bool
	memoP  int64
	memoI  int
}

// Default calendar geometry: 512 buckets of ~0.5 ms give a ~268 ms
// horizon — wide enough that clock ticks, quanta, completions, and the
// background-thread sleeps all land in-window, while input scripts
// installed seconds ahead ride in overflow until the cursor nears them.
const (
	defaultCalendarShift   = 19  // bucket width 1<<19 ns ≈ 524 µs
	defaultCalendarBuckets = 512 // a power of two: mask indexes the ring
)

// init allocates an empty ring in the default geometry.
func (c *calendar) init() {
	*c = calendar{
		shift:    defaultCalendarShift,
		mask:     defaultCalendarBuckets - 1,
		buckets:  make([][]entry, defaultCalendarBuckets),
		occupied: make([]uint64, (defaultCalendarBuckets+63)/64),
		ovMin:    simtime.Never,
	}
}

// SkipSeq advances the internal sequence counter by n without
// scheduling anything, replicating the seq numbering of n elided
// Schedule calls — the bulk idle-skip fast path uses it so elided and
// simulated runs assign identical (at, seq) keys to every later event.
func (q *Queue) SkipSeq(n uint64) { q.seq += n }

func (c *calendar) logicalIndex(at simtime.Time) int64 {
	idx := int64(at) >> c.shift
	if idx < c.base {
		idx = c.base
	}
	return idx
}

func (c *calendar) setBit(p int64)   { c.occupied[p>>6] |= 1 << uint(p&63) }
func (c *calendar) clearBit(p int64) { c.occupied[p>>6] &^= 1 << uint(p&63) }

func (c *calendar) schedule(e entry) {
	idx := c.logicalIndex(e.at)
	if idx >= c.base+c.mask+1 {
		// Overflow entries fire at or beyond the window horizon, which
		// every in-window memo entry precedes — the memo stays valid.
		if e.at < c.ovMin {
			c.ovMin = e.at
		}
		c.overflow = append(c.overflow, e)
	} else {
		p := idx & c.mask
		c.buckets[p] = append(c.buckets[p], e)
		c.setBit(p)
		// Keep the memo coherent instead of dropping it: the new entry
		// displaces the memoized minimum only if it fires strictly
		// earlier (its seq is necessarily larger, so ties lose). The
		// dominant schedule-then-peek pattern then never rescans.
		if c.memoOK {
			if e.at < c.buckets[c.memoP][c.memoI].at {
				c.memoP, c.memoI = p, len(c.buckets[p])-1
			}
		}
	}
	c.count++
}

// migrate moves overflow entries that now fall inside the bucket window
// into their buckets. Each entry migrates at most once, so the cost is
// amortized O(1) per scheduled event.
func (c *calendar) migrate() {
	if c.ovMin == simtime.Never || int64(c.ovMin)>>c.shift >= c.base+c.mask+1 {
		return
	}
	kept := c.overflow[:0]
	min := simtime.Never
	for _, e := range c.overflow {
		idx := c.logicalIndex(e.at)
		if idx < c.base+c.mask+1 {
			p := idx & c.mask
			c.buckets[p] = append(c.buckets[p], e)
			c.setBit(p)
		} else {
			if e.at < min {
				min = e.at
			}
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(c.overflow); i++ {
		c.overflow[i] = entry{} // drop fn references of migrated entries
	}
	c.overflow = kept
	c.ovMin = min
}

// minLocate finds the physical bucket and index of the earliest live
// entry, pruning cancelled entries (releasing their tickets via q) as
// it scans and advancing the base cursor past empty buckets. ok is
// false when no live entry remains.
func (c *calendar) minLocate(q *Queue) (p int64, at int, ok bool) {
	if c.memoOK {
		return c.memoP, c.memoI, true
	}
	if c.count == 0 { // also covers the zero Queue's unallocated ring
		return 0, 0, false
	}
	for {
		// Admit overflow entries the advancing cursor has brought inside
		// the window first: an admitted entry may precede everything
		// currently bucketed. migrate is a single compare when the
		// overflow is empty or still beyond the horizon.
		c.migrate()
		// Scan logical buckets [base, base+n) in order. The first
		// non-empty bucket (after pruning) holds the global minimum:
		// clamped entries only ever land in the base bucket, and every
		// entry in a later bucket starts at or after that bucket's
		// nominal instant, which follows every instant reachable from an
		// earlier bucket. Empty stretches are skipped a 64-bucket bitset
		// word at a time — with analytic idle skipping the live event
		// population is sparse (tens of empty buckets between clock
		// ticks), so the word hop, not the per-bucket probe, sets the
		// scan's cost.
		n := c.mask + 1
		for off := int64(0); off < n; {
			logical := c.base + off
			p := logical & c.mask
			w := c.occupied[p>>6] >> uint(p&63)
			if w == 0 {
				off += 64 - (p & 63)
				continue
			}
			if skip := int64(bits.TrailingZeros64(w)); skip > 0 {
				off += skip
				continue
			}
			b := c.buckets[p]
			// Prune cancelled entries in place (swap-remove keeps the
			// scan O(len)); bucket-internal order is irrelevant because
			// the min is selected by (at, seq). The slice header is only
			// stored back when pruning shrank it — skipping the store on
			// the common no-cancel path avoids a pointer write barrier
			// per scan.
			pruned := false
			for i := 0; i < len(b); {
				if q.tickets[b[i].slot].cancelled {
					q.release(b[i].slot)
					last := len(b) - 1
					b[i] = b[last]
					b[last] = entry{}
					b = b[:last]
					c.count--
					pruned = true
				} else {
					i++
				}
			}
			if pruned {
				c.buckets[p] = b
			}
			if len(b) == 0 {
				c.clearBit(p)
				continue
			}
			best := 0
			for i := 1; i < len(b); i++ {
				if b[i].at < b[best].at || (b[i].at == b[best].at && b[i].seq < b[best].seq) {
					best = i
				}
			}
			// Advance the cursor to the first occupied bucket so the next
			// scan starts here; entries scheduled for earlier instants
			// clamp into this bucket and are still found by the min-scan.
			c.base = logical
			c.memoOK, c.memoP, c.memoI = true, p, best
			return p, best, true
		}
		// Window empty. Jump to the overflow's earliest bucket (ovMin is
		// a lower bound, so the jump never overshoots a live entry) and
		// admit what now fits; if the overflow is empty too, so is the
		// queue.
		if c.ovMin == simtime.Never {
			return 0, 0, false
		}
		c.base = int64(c.ovMin) >> c.shift
		c.migrate()
	}
}

func (c *calendar) removeAt(q *Queue, p int64, i int) entry {
	c.memoOK = false
	b := c.buckets[p]
	e := b[i]
	q.release(e.slot)
	last := len(b) - 1
	b[i] = b[last]
	b[last] = entry{}
	c.buckets[p] = b[:last]
	if last == 0 {
		c.clearBit(p)
	}
	c.count--
	return e
}
