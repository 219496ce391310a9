package cpu

import (
	"testing"
	"testing/quick"

	"latlab/internal/machine"
	"latlab/internal/simtime"
	"latlab/internal/spans"
)

func TestEventKindStrings(t *testing.T) {
	if Instructions.String() != "instructions" || SegmentLoads.String() != "segment_loads" {
		t.Fatalf("event names wrong")
	}
	if EventKind(200).String() == "" {
		t.Fatalf("unknown kind should still format")
	}
	if len(EventKinds()) != int(NumEventKinds) {
		t.Fatalf("EventKinds length wrong")
	}
	for i, k := range EventKinds() {
		if int(k) != i {
			t.Fatalf("EventKinds out of order")
		}
	}
}

func TestExecuteWarmVsCold(t *testing.T) {
	c := NewFor(machine.Pentium100())
	seg := Segment{
		Name:         "op",
		BaseCycles:   1000,
		CodePages:    []uint64{1, 2},
		DataPages:    []uint64{10},
		CacheChunks:  []uint64{100, 101, 102},
		Instructions: 800,
		DataRefs:     300,
	}
	coldCycles, coldDur := c.Execute(seg)
	wantCold := int64(1000) + 3*c.Penalties.TLBMiss + 3*c.Penalties.CacheMiss
	if coldCycles != wantCold {
		t.Fatalf("cold cycles = %d, want %d", coldCycles, wantCold)
	}
	if coldDur != c.Freq.DurationOf(wantCold) {
		t.Fatalf("cold duration = %v", coldDur)
	}
	warmCycles, _ := c.Execute(seg)
	if warmCycles != 1000 {
		t.Fatalf("warm cycles = %d, want 1000 (all hits)", warmCycles)
	}
	if c.Count(Instructions) != 1600 || c.Count(DataRefs) != 600 {
		t.Fatalf("instruction/dataref counters wrong: %d/%d", c.Count(Instructions), c.Count(DataRefs))
	}
	if c.Count(ITLBMisses) != 2 || c.Count(DTLBMisses) != 1 || c.Count(CacheMisses) != 3 {
		t.Fatalf("miss counters wrong: %d/%d/%d", c.Count(ITLBMisses), c.Count(DTLBMisses), c.Count(CacheMisses))
	}
}

func TestDomainCrossCausesTLBMissesButNotCacheMisses(t *testing.T) {
	c := NewFor(machine.Pentium100())
	seg := Segment{
		BaseCycles:  100,
		CodePages:   []uint64{1, 2, 3},
		DataPages:   []uint64{10, 11},
		CacheChunks: []uint64{50},
	}
	c.Execute(seg) // warm everything
	warm, _ := c.Execute(seg)

	crossCycles, _ := c.DomainCross()
	if crossCycles != c.Penalties.DomainCrossing {
		t.Fatalf("crossing cost = %d", crossCycles)
	}
	if c.Count(DomainCrossings) != 1 {
		t.Fatalf("crossing not counted")
	}

	after, _ := c.Execute(seg)
	wantAfter := warm + 5*c.Penalties.TLBMiss // 3 code + 2 data pages refill
	if after != wantAfter {
		t.Fatalf("post-crossing cycles = %d, want %d (TLB refill only)", after, wantAfter)
	}
	if c.Count(CacheMisses) != 1 {
		t.Fatalf("cache should survive the crossing; misses = %d", c.Count(CacheMisses))
	}
}

func TestSegment16BitCosts(t *testing.T) {
	c := NewFor(machine.Pentium100())
	seg := Segment{BaseCycles: 100, SegmentLoads: 10, UnalignedAccesses: 20}
	cycles, _ := c.Execute(seg)
	want := int64(100) + 10*c.Penalties.SegmentLoad + 20*c.Penalties.Unaligned
	if cycles != want {
		t.Fatalf("16-bit cycles = %d, want %d", cycles, want)
	}
	if c.Count(SegmentLoads) != 10 || c.Count(UnalignedAccesses) != 20 {
		t.Fatalf("16-bit counters wrong")
	}
}

func TestSegmentScale(t *testing.T) {
	seg := Segment{BaseCycles: 10, Instructions: 8, DataRefs: 3, SegmentLoads: 1,
		UnalignedAccesses: 2, CodePages: []uint64{1}}
	s3 := seg.Scale(3)
	if s3.BaseCycles != 30 || s3.Instructions != 24 || s3.DataRefs != 9 ||
		s3.SegmentLoads != 3 || s3.UnalignedAccesses != 6 {
		t.Fatalf("scale wrong: %+v", s3)
	}
	if len(s3.CodePages) != 1 {
		t.Fatalf("working set should be unchanged by Scale")
	}
	if seg.BaseCycles != 10 {
		t.Fatalf("Scale mutated the receiver")
	}
}

func TestAddAndSnapshot(t *testing.T) {
	c := NewFor(machine.Pentium100())
	c.Add(Interrupts, 5)
	if c.Count(Interrupts) != 5 {
		t.Fatalf("Add not reflected")
	}
	snap := c.Snapshot()
	c.Add(Interrupts, 1)
	if snap[Interrupts] != 5 {
		t.Fatalf("snapshot should be a copy")
	}
}

func TestCycleAt(t *testing.T) {
	c := NewFor(machine.Pentium100())
	if got := c.CycleAt(simtime.Time(simtime.Millisecond)); got != 100_000 {
		t.Fatalf("CycleAt(1ms) = %d", got)
	}
}

// Property: executing any segment twice back-to-back is never more
// expensive the second time (warmth is monotone) as long as the working
// set fits in the memory structures.
func TestWarmthMonotoneProperty(t *testing.T) {
	f := func(nCode, nData, nChunk uint8, base uint16) bool {
		c := NewFor(machine.Pentium100())
		seg := Segment{BaseCycles: int64(base)}
		for i := uint8(0); i < nCode%16; i++ {
			seg.CodePages = append(seg.CodePages, uint64(i))
		}
		for i := uint8(0); i < nData%16; i++ {
			seg.DataPages = append(seg.DataPages, uint64(i))
		}
		for i := uint8(0); i < nChunk%64; i++ {
			seg.CacheChunks = append(seg.CacheChunks, uint64(i))
		}
		cold, _ := c.Execute(seg)
		warm, _ := c.Execute(seg)
		return warm <= cold && warm == seg.BaseCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterFileModeRestrictions(t *testing.T) {
	c := NewFor(machine.Pentium100())
	f := NewCounterFile(c)

	// Cycle counter: any mode.
	if got := f.ReadCycles(simtime.Time(simtime.Second)); got != 100_000_000 {
		t.Fatalf("ReadCycles = %d", got)
	}

	// Event counters: system mode only (paper §2.2).
	if err := f.Configure(UserMode, 0, ITLBMisses); err != ErrPrivileged {
		t.Fatalf("user-mode Configure err = %v, want ErrPrivileged", err)
	}
	if _, err := f.Read(UserMode, 0); err != ErrPrivileged {
		t.Fatalf("user-mode Read err = %v, want ErrPrivileged", err)
	}
	if err := f.Configure(SystemMode, 2, ITLBMisses); err != ErrBadCounter {
		t.Fatalf("bad index err = %v", err)
	}
	if err := f.Configure(SystemMode, 0, NumEventKinds); err == nil {
		t.Fatalf("unknown event should error")
	}
}

func TestCounterFileMeasurement(t *testing.T) {
	c := NewFor(machine.Pentium100())
	f := NewCounterFile(c)
	seg := Segment{BaseCycles: 10, CodePages: []uint64{1, 2}}
	c.Execute(seg) // activity before configuration must not leak in

	if err := f.Configure(SystemMode, 0, ITLBMisses); err != nil {
		t.Fatal(err)
	}
	if err := f.Configure(SystemMode, 1, Instructions); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Read(SystemMode, 0); v != 0 {
		t.Fatalf("configured counter should start at 0, got %d", v)
	}

	c.Mem.FlushTLBs()
	c.Execute(seg)
	if v, _ := f.Read(SystemMode, 0); v != 2 {
		t.Fatalf("ITLB counter = %d, want 2", v)
	}
	k, on := f.Selected(0)
	if !on || k != ITLBMisses {
		t.Fatalf("Selected = %v,%v", k, on)
	}
	if _, on := f.Selected(5); on {
		t.Fatalf("out-of-range Selected should be off")
	}
	// Unconfigured counters read as zero.
	f2 := NewCounterFile(c)
	if v, err := f2.Read(SystemMode, 1); err != nil || v != 0 {
		t.Fatalf("unconfigured read = %d, %v", v, err)
	}
}

func TestNewForTaggedTLBSurvivesDomainCross(t *testing.T) {
	c := NewFor(machine.PentiumTaggedTLB())
	seg := Segment{BaseCycles: 100, CodePages: []uint64{1, 2}, DataPages: []uint64{10}}
	c.Execute(seg) // warm
	c.DomainCross()
	after, _ := c.Execute(seg)
	if after != seg.BaseCycles {
		t.Fatalf("tagged machine paid %d cycles after crossing, want warm %d", after, seg.BaseCycles)
	}
	// The crossing's direct cost is still paid; only the refill vanishes.
	if c.Count(DomainCrossings) != 1 {
		t.Fatalf("crossing not counted")
	}
}

func TestNewForNoL2NeverWarms(t *testing.T) {
	c := NewFor(machine.P100NoL2())
	seg := Segment{BaseCycles: 100, CacheChunks: []uint64{1, 2, 3}}
	c.Execute(seg)
	warm, _ := c.Execute(seg)
	if want := int64(100) + 3*c.Penalties.CacheMiss; warm != want {
		t.Fatalf("no-L2 second run = %d cycles, want %d (cache never warms)", warm, want)
	}
}

// The profile indirection must not reintroduce allocations on the hot
// path: warm execution, a domain crossing, and the TLB refill it causes
// all recycle LRU slots instead of allocating.
func TestExecuteHotPathAllocFree(t *testing.T) {
	for _, prof := range machine.All() {
		c := NewFor(prof)
		seg := Segment{
			BaseCycles:  1000,
			CodePages:   []uint64{1, 2, 3},
			DataPages:   []uint64{10, 11},
			CacheChunks: []uint64{50, 51},
		}
		c.Execute(seg) // populate the slabs
		if avg := testing.AllocsPerRun(200, func() {
			c.Execute(seg)
			c.DomainCross()
			c.Execute(seg)
		}); avg != 0 {
			t.Fatalf("%s: execute/cross/execute allocates %.1f per run", prof.Short, avg)
		}
	}
}

// With a recorder attached the hot path may append spans but must not
// allocate once the recorder's slab is pre-grown; detaching it restores
// the exact untraced path (zero appends, zero allocations).
func TestExecuteTracedAllocBounded(t *testing.T) {
	c := NewFor(machine.Pentium100())
	rec := spans.NewRecorder(func() simtime.Time { return 0 })
	rec.Grow(1 << 16)
	c.SetRecorder(rec, func() simtime.Time { return 0 })
	seg := Segment{
		Name:        "seg",
		BaseCycles:  1000,
		CodePages:   []uint64{1, 2, 3},
		DataPages:   []uint64{10, 11},
		CacheChunks: []uint64{50, 51},
	}
	c.Execute(seg)
	if avg := testing.AllocsPerRun(200, func() {
		c.Execute(seg)
		c.DomainCross()
		c.Execute(seg)
	}); avg != 0 {
		t.Fatalf("traced execute/cross/execute allocates %.1f per run", avg)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}

	c.SetRecorder(nil, nil)
	before := rec.Len()
	c.Execute(seg)
	c.DomainCross()
	if rec.Len() != before {
		t.Fatal("detached recorder still captured spans")
	}
}

// The traced cost model must charge exactly what the untraced one does.
func TestTracedExecuteCostIdentical(t *testing.T) {
	seg := Segment{
		Name:              "seg",
		BaseCycles:        1000,
		CodePages:         []uint64{1, 2, 3},
		DataPages:         []uint64{10, 11},
		CacheChunks:       []uint64{50, 51},
		SegmentLoads:      4,
		UnalignedAccesses: 7,
		Instructions:      500,
		DataRefs:          200,
	}
	plain := NewFor(machine.Pentium100())
	traced := NewFor(machine.Pentium100())
	rec := spans.NewRecorder(func() simtime.Time { return 0 })
	traced.SetRecorder(rec, func() simtime.Time { return 0 })
	for i := 0; i < 3; i++ {
		pc, pd := plain.Execute(seg)
		tc2, td := traced.Execute(seg)
		if pc != tc2 || pd != td {
			t.Fatalf("run %d: traced (%d, %v) != untraced (%d, %v)", i, tc2, td, pc, pd)
		}
		plain.DomainCross()
		traced.DomainCross()
	}
	if plain.Snapshot() != traced.Snapshot() {
		t.Fatalf("counters diverged:\nplain  %v\ntraced %v", plain.Snapshot(), traced.Snapshot())
	}
}
