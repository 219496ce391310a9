package mem

// oracleLRU is the LRU the package shipped before the slab grew on
// demand: a capacity-hinted index map, a node slab of every slot and a
// free list filled with every slot, all allocated at construction, and a
// flush that refills the free list. One node holds one identifier, and a
// list is touched one identifier at a time. It is kept, test-only, as
// the oracle that FuzzLRUEquivalence and TestLRUEquivalenceRandom hold
// LRU to: slots, windows and blocks are never observable, so the two
// must agree on every hit, miss and recency order.
type oracleLRU struct {
	cap   int
	index map[uint64]int32
	nodes []node // fixed slab of cap slots
	free  []int32
	head  int32
	tail  int32
}

// node is one slab slot of the oracle's intrusive recency list; prev
// and next are slot indices, noSlot for none.
type node struct {
	id         uint64
	prev, next int32
}

func newOracleLRU(capacity int) *oracleLRU {
	o := &oracleLRU{
		cap:   capacity,
		index: make(map[uint64]int32, capacity),
		nodes: make([]node, capacity),
		free:  make([]int32, capacity),
		head:  noSlot,
		tail:  noSlot,
	}
	o.resetFree()
	return o
}

// resetFree refills the free list with every slot.
func (o *oracleLRU) resetFree() {
	o.free = o.free[:0]
	for i := o.cap - 1; i >= 0; i-- {
		o.free = append(o.free, int32(i))
	}
}

func (o *oracleLRU) Len() int { return len(o.index) }

func (o *oracleLRU) Contains(id uint64) bool {
	_, ok := o.index[id]
	return ok
}

func (o *oracleLRU) Touch(id uint64) bool {
	if n, ok := o.index[id]; ok {
		if o.head != n {
			o.unlink(n)
			o.pushFront(n)
		}
		return true
	}
	var slot int32
	if n := len(o.free); n > 0 {
		slot = o.free[n-1]
		o.free = o.free[:n-1]
	} else {
		slot = o.evict()
	}
	o.nodes[slot].id = id
	o.index[id] = slot
	o.pushFront(slot)
	return false
}

func (o *oracleLRU) Insert(id uint64) { o.Touch(id) }

func (o *oracleLRU) Flush() {
	clear(o.index)
	o.head, o.tail = noSlot, noSlot
	o.resetFree()
}

func (o *oracleLRU) EvictOldest(n int) int {
	evicted := 0
	for evicted < n && o.tail != noSlot {
		o.free = append(o.free, o.evict())
		evicted++
	}
	return evicted
}

func (o *oracleLRU) pushFront(n int32) {
	o.nodes[n].prev = noSlot
	o.nodes[n].next = o.head
	if o.head != noSlot {
		o.nodes[o.head].prev = n
	}
	o.head = n
	if o.tail == noSlot {
		o.tail = n
	}
}

func (o *oracleLRU) unlink(n int32) {
	prev, next := o.nodes[n].prev, o.nodes[n].next
	if prev != noSlot {
		o.nodes[prev].next = next
	} else {
		o.head = next
	}
	if next != noSlot {
		o.nodes[next].prev = prev
	} else {
		o.tail = prev
	}
	o.nodes[n].prev, o.nodes[n].next = noSlot, noSlot
}

func (o *oracleLRU) evict() int32 {
	victim := o.tail
	o.unlink(victim)
	delete(o.index, o.nodes[victim].id)
	return victim
}
