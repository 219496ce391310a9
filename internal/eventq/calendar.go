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
// Layout: a ring of calendarBuckets buckets, each covering
// 1<<calendarShift nanoseconds of simulated time. An event at instant
// `at` lives in logical bucket at>>calendarShift; the ring holds the
// window [base, base+calendarBuckets) of logical buckets, and events
// beyond the horizon wait in an unordered overflow list until the cursor
// advances far enough to admit them. Events for logical buckets before
// the cursor (legal: base advances to the earliest *occupied* bucket,
// and a later Schedule may target an earlier instant that is still in
// the future) are clamped into the base bucket; the min-scan inspects
// every node of the first occupied bucket, so clamping never reorders
// pops.
//
// Storage: every bucket and the overflow list are singly linked lists
// threaded through the Queue's node slab, so the ring itself is two
// fixed arrays — a list head per bucket and an occupancy bitset — and
// nothing grows per bucket. A node joins the front of its list;
// order within a list is irrelevant, because the min-scan selects by
// (at, seq).
type calendar struct {
	heads    [calendarBuckets]int32
	occupied [calendarBuckets / 64]uint64 // bitset over physical bucket indices
	base     int64                        // logical index of the earliest possibly-occupied bucket
	// overflow heads the list of nodes beyond the window horizon. ovMin
	// is a conservative lower bound on its earliest instant (it may
	// refer to a cancelled node), meaningful only while the list is
	// non-empty.
	overflow int32
	ovMin    simtime.Time
	// memo caches the last minLocate result — the node, its predecessor
	// in its bucket list (0 when it is the head) and its physical bucket
	// — so the peek-then-Pop pattern pays for one scan, not two. Any
	// mutation that could displace the minimum — a Pop, a Cancel — clears
	// it; a schedule keeps it coherent.
	memoOK   bool
	memo     int32
	memoPrev int32
	memoP    int64
}

// Calendar geometry: 512 buckets of ~0.5 ms give a ~268 ms horizon —
// wide enough that clock ticks, quanta, interrupt handlers and the
// background-thread sleeps all land in-window, while input scripts
// installed seconds ahead ride in overflow until the cursor nears them.
const (
	calendarShift   = 19  // bucket width 1<<19 ns ≈ 524 µs
	calendarBuckets = 512 // a power of two: calendarMask indexes the ring
	calendarMask    = calendarBuckets - 1
)

func (c *calendar) logicalIndex(at simtime.Time) int64 {
	idx := int64(at) >> calendarShift
	if idx < c.base {
		idx = c.base
	}
	return idx
}

func (c *calendar) setBit(p int64)   { c.occupied[p>>6] |= 1 << uint(p&63) }
func (c *calendar) clearBit(p int64) { c.occupied[p>>6] &^= 1 << uint(p&63) }

// insert links node i into its bucket, or into the overflow list when
// it lies beyond the window.
func (q *Queue) insert(i int32) {
	n := &q.nodes[i]
	idx := q.logicalIndex(n.at)
	if idx > q.base+calendarMask {
		// Overflow nodes fire at or beyond the window horizon, which
		// every in-window memo node precedes — the memo stays valid.
		if q.overflow == 0 || n.at < q.ovMin {
			q.ovMin = n.at
		}
		n.next = q.overflow
		q.overflow = i
		return
	}
	p := idx & calendarMask
	n.next = q.heads[p]
	q.heads[p] = i
	q.setBit(p)
	// Keep the memo coherent instead of dropping it: the new node becomes
	// the memo's predecessor when it joins the front of the memo's list,
	// and displaces the memo only if it fires strictly earlier (its seq
	// is necessarily larger, so ties lose). The dominant
	// schedule-then-peek pattern then never rescans.
	if q.memoOK {
		if p == q.memoP && q.memoPrev == 0 {
			q.memoPrev = i
		}
		if n.at < q.nodes[q.memo].at {
			q.memo, q.memoPrev, q.memoP = i, 0, p
		}
	}
}

// migrate moves overflow nodes that now fall inside the bucket window
// into their buckets. Each node migrates at most once, so the cost is
// amortized O(1) per scheduled event.
func (q *Queue) migrate() {
	if q.overflow == 0 || int64(q.ovMin)>>calendarShift > q.base+calendarMask {
		return
	}
	i := q.overflow
	q.overflow = 0
	for i != 0 {
		next := q.nodes[i].next
		q.insert(i) // back into overflow, recomputing ovMin, if still beyond
		i = next
	}
}

// minLocate finds the earliest live node and memoizes it with its
// list position, pruning cancelled nodes (releasing them to the free
// list) as it scans and advancing the base cursor past empty buckets.
// ok is false when no live node remains.
func (q *Queue) minLocate() (i int32, ok bool) {
	if q.memoOK {
		return q.memo, true
	}
	if q.count == 0 {
		return 0, false
	}
	for {
		// Admit overflow nodes the advancing cursor has brought inside
		// the window first: an admitted node may precede everything
		// currently bucketed. migrate is a single compare when the
		// overflow is empty or still beyond the horizon.
		q.migrate()
		// Scan logical buckets [base, base+n) in order. The first
		// non-empty bucket (after pruning) holds the global minimum:
		// clamped nodes only ever land in the base bucket, and every
		// node in a later bucket starts at or after that bucket's
		// nominal instant, which follows every instant reachable from an
		// earlier bucket. Empty stretches are skipped a 64-bucket bitset
		// word at a time — with analytic idle skipping the live event
		// population is sparse (tens of empty buckets between clock
		// ticks), so the word hop, not the per-bucket probe, sets the
		// scan's cost.
		for off := int64(0); off < calendarBuckets; {
			logical := q.base + off
			p := logical & calendarMask
			w := q.occupied[p>>6] >> uint(p&63)
			if w == 0 {
				off += 64 - (p & 63)
				continue
			}
			if skip := int64(bits.TrailingZeros64(w)); skip > 0 {
				off += skip
				continue
			}
			// Walk the bucket's list once, unlinking cancelled nodes and
			// selecting the (at, seq) minimum of the rest.
			var best, bestPrev, prev int32
			for j := q.heads[p]; j != 0; {
				n := &q.nodes[j]
				next := n.next
				if n.cancelled {
					if prev == 0 {
						q.heads[p] = next
					} else {
						q.nodes[prev].next = next
					}
					q.release(j)
					q.count--
				} else {
					if best == 0 || n.at < q.nodes[best].at ||
						(n.at == q.nodes[best].at && n.seq < q.nodes[best].seq) {
						best, bestPrev = j, prev
					}
					prev = j
				}
				j = next
			}
			if best == 0 {
				q.clearBit(p)
				continue
			}
			// Advance the cursor to the first occupied bucket so the next
			// scan starts here; nodes scheduled for earlier instants
			// clamp into this bucket and are still found by the min-scan.
			q.base = logical
			q.memoOK, q.memo, q.memoPrev, q.memoP = true, best, bestPrev, p
			return best, true
		}
		// Window empty. Jump to the overflow's earliest bucket (ovMin is
		// a lower bound, so the jump never overshoots a live node) and
		// admit what now fits on the next pass; if the overflow is empty
		// too, so is the queue.
		if q.overflow == 0 {
			return 0, false
		}
		q.base = int64(q.ovMin) >> calendarShift
	}
}

// unlinkMemo removes the memoized minimum from its bucket list; the
// caller releases the node.
func (q *Queue) unlinkMemo() {
	q.memoOK = false
	p := q.memoP
	next := q.nodes[q.memo].next
	if q.memoPrev == 0 {
		q.heads[p] = next
	} else {
		q.nodes[q.memoPrev].next = next
	}
	if q.heads[p] == 0 {
		q.clearBit(p)
	}
}
