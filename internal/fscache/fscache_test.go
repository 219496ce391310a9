package fscache

import (
	"testing"

	"latlab/internal/disk"
	"latlab/internal/eventq"
	"latlab/internal/machine"
	"latlab/internal/simtime"
)

type fakeSched struct {
	now simtime.Time
	q   eventq.Queue
}

func (s *fakeSched) Now() simtime.Time { return s.now }
func (s *fakeSched) After(d simtime.Duration, fn func(simtime.Time)) {
	s.q.Schedule(s.now.Add(d), fn)
}
func (s *fakeSched) run() {
	for {
		at := s.q.NextTime()
		e, ok := s.q.Pop()
		if !ok {
			return
		}
		s.now = at
		e.Fire(s.now)
	}
}

func newCache(pages int) (*Cache, *fakeSched) {
	s := &fakeSched{}
	d := disk.New(machine.Pentium100().Disk, s, 7)
	return New(d, pages), s
}

func TestColdReadThenWarmRead(t *testing.T) {
	c, s := newCache(128)
	f := c.AddFile("app.exe", 10_000, 64)

	done := false
	miss := c.Read(f, 0, 16, func(simtime.Time, error) { done = true })
	if miss != 16 {
		t.Fatalf("cold misses = %d, want 16", miss)
	}
	if done {
		t.Fatalf("cold read completed synchronously")
	}
	s.run()
	if !done {
		t.Fatalf("cold read never completed")
	}
	if c.ResidentCount(f, 64) != 16 {
		t.Fatalf("resident = %d, want 16", c.ResidentCount(f, 64))
	}

	// Warm read: synchronous completion, zero misses.
	done = false
	miss = c.Read(f, 0, 16, func(simtime.Time, error) { done = true })
	if miss != 0 || !done {
		t.Fatalf("warm read: miss=%d done=%v", miss, done)
	}
	if c.Hits() != 16 || c.Misses() != 16 {
		t.Fatalf("hit/miss counters = %d/%d", c.Hits(), c.Misses())
	}
}

func TestPartialHitCoalescing(t *testing.T) {
	c, s := newCache(128)
	f := c.AddFile("doc", 0, 32)
	// Warm pages 4..7 and 12..15, then read 0..15: misses are two runs
	// (0..3, 8..11), so exactly two disk requests should be issued.
	c.Read(f, 4, 4, func(simtime.Time, error) {})
	c.Read(f, 12, 4, func(simtime.Time, error) {})
	s.run()

	servedBefore := diskOf(c).Served()
	fired := false
	miss := c.Read(f, 0, 16, func(simtime.Time, error) { fired = true })
	if miss != 8 {
		t.Fatalf("misses = %d, want 8", miss)
	}
	s.run()
	if !fired {
		t.Fatalf("read never completed")
	}
	if got := diskOf(c).Served() - servedBefore; got != 2 {
		t.Fatalf("disk requests = %d, want 2 coalesced runs", got)
	}
	if c.ResidentCount(f, 16) != 16 {
		t.Fatalf("all 16 pages should be resident")
	}
}

// diskOf exposes the cache's disk for assertions.
func diskOf(c *Cache) *disk.Disk { return c.disk }

func TestLRUEviction(t *testing.T) {
	c, s := newCache(8)
	f := c.AddFile("big", 0, 64)
	c.Read(f, 0, 8, func(simtime.Time, error) {})
	s.run()
	if c.ResidentCount(f, 64) != 8 {
		t.Fatalf("resident = %d", c.ResidentCount(f, 64))
	}
	// Reading 8 more pages evicts the first 8.
	c.Read(f, 8, 8, func(simtime.Time, error) {})
	s.run()
	if c.Resident(f, 0) {
		t.Fatalf("page 0 should have been evicted")
	}
	if !c.Resident(f, 15) {
		t.Fatalf("page 15 should be resident")
	}
}

func TestWriteThrough(t *testing.T) {
	c, s := newCache(64)
	f := c.AddFile("save.ppt", 50_000, 32)
	var doneAt simtime.Time
	c.Write(f, 0, 32, func(now simtime.Time, _ error) { doneAt = now })
	if c.ResidentCount(f, 32) != 32 {
		t.Fatalf("written pages should be resident immediately")
	}
	if doneAt != 0 {
		t.Fatalf("write completed before disk I/O")
	}
	s.run()
	if doneAt <= 0 {
		t.Fatalf("write never reached the disk")
	}
	if c.Writes() != 32 {
		t.Fatalf("writes = %d", c.Writes())
	}
	// Subsequent read is all hits.
	if miss := c.Read(f, 0, 32, func(simtime.Time, error) {}); miss != 0 {
		t.Fatalf("read-after-write misses = %d", miss)
	}
}

func TestEvictAll(t *testing.T) {
	c, s := newCache(64)
	f := c.AddFile("x", 0, 8)
	c.Read(f, 0, 8, func(simtime.Time, error) {})
	s.run()
	c.EvictAll()
	if c.ResidentCount(f, 8) != 0 {
		t.Fatalf("EvictAll left residents")
	}
}

func TestColdReadSlowerThanWarm(t *testing.T) {
	// The Table 1 mechanism: the same OLE activation is much slower cold.
	c, s := newCache(1024)
	f := c.AddFile("ole_server.exe", 800_000, 256)

	var coldDone simtime.Time
	start := s.Now()
	c.Read(f, 0, 256, func(now simtime.Time, _ error) { coldDone = now })
	s.run()
	coldLatency := coldDone.Sub(start)

	start2 := s.Now()
	sync := false
	c.Read(f, 0, 256, func(simtime.Time, error) { sync = true })
	if !sync {
		t.Fatalf("warm read should complete synchronously")
	}
	warmLatency := s.Now().Sub(start2)
	if coldLatency < 100*warmLatency+simtime.FromMillis(10) {
		t.Fatalf("cold %v should dwarf warm %v", coldLatency, warmLatency)
	}
}

func TestReadValidation(t *testing.T) {
	c, _ := newCache(8)
	f := c.AddFile("f", 0, 4)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("unregistered", func() { c.Read(FileID(99), 0, 1, func(simtime.Time, error) {}) })
	mustPanic("past end", func() { c.Read(f, 3, 2, func(simtime.Time, error) {}) })
	mustPanic("zero pages", func() { c.Read(f, 0, 0, func(simtime.Time, error) {}) })
	mustPanic("write unregistered", func() { c.Write(FileID(99), 0, 1, func(simtime.Time, error) {}) })
	mustPanic("write past end", func() { c.Write(f, 4, 1, func(simtime.Time, error) {}) })
}

func TestFileMetadata(t *testing.T) {
	c, _ := newCache(8)
	f := c.AddFile("notepad.exe", 0, 40)
	if c.FileName(f) != "notepad.exe" || c.FilePages(f) != 40 {
		t.Fatalf("metadata wrong")
	}
	if c.FilePages(FileID(9)) != 0 {
		t.Fatalf("unknown file size should be 0")
	}
	if c.FileName(FileID(9)) == "" {
		t.Fatalf("unknown file name should format")
	}
}
