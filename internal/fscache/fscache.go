package fscache

import (
	"fmt"

	"latlab/internal/disk"
	"latlab/internal/mem"
	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// PageBlocks is the number of 512-byte disk blocks per cache page (4 KB).
const PageBlocks = 8

// FileID names a registered file.
type FileID int

// file records where a file's pages live on disk.
type file struct {
	name       string
	startBlock int64
	pages      int64
}

// Cache is the buffer cache. Not safe for concurrent use.
type Cache struct {
	disk  *disk.Disk
	lru   *mem.LRU
	files map[FileID]*file
	next  FileID

	hits      int64
	misses    int64
	writes    int64
	evictions int64
	ioErrs    int64

	rec *spans.Recorder
}

// SetRecorder attaches a span recorder; nil restores the untraced path.
func (c *Cache) SetRecorder(rec *spans.Recorder) { c.rec = rec }

// New creates a cache of capacityPages pages over d.
func New(d *disk.Disk, capacityPages int) *Cache {
	return &Cache{
		disk:  d,
		lru:   mem.NewLRU(capacityPages),
		files: make(map[FileID]*file),
	}
}

// AddFile registers a file of sizePages pages starting at startBlock and
// returns its id. Layout is the caller's concern; the experiments place
// application binaries, documents, and OLE servers at spread-out
// locations so cold starts pay realistic seeks.
func (c *Cache) AddFile(name string, startBlock, sizePages int64) FileID {
	id := c.next
	c.next++
	c.files[id] = &file{name: name, startBlock: startBlock, pages: sizePages}
	return id
}

// FileName returns the registered name of id.
func (c *Cache) FileName(id FileID) string {
	if f, ok := c.files[id]; ok {
		return f.name
	}
	return fmt.Sprintf("file(%d)", int(id))
}

// FilePages returns the size of id in pages.
func (c *Cache) FilePages(id FileID) int64 {
	if f, ok := c.files[id]; ok {
		return f.pages
	}
	return 0
}

// Hits reports page-level cache hits.
func (c *Cache) Hits() int64 { return c.hits }

// Misses reports page-level cache misses.
func (c *Cache) Misses() int64 { return c.misses }

// Writes counts pages written through.
func (c *Cache) Writes() int64 { return c.writes }

// ForcedEvictions counts pages evicted through EvictOldest (fault-layer
// pressure), excluding ordinary capacity evictions.
func (c *Cache) ForcedEvictions() int64 { return c.evictions }

// IOErrors counts page reads/writes that completed with a device error.
func (c *Cache) IOErrors() int64 { return c.ioErrs }

// pageKey builds the LRU identifier for (file, page).
func pageKey(id FileID, page int64) uint64 {
	return uint64(id)<<40 | uint64(page)
}

// Resident reports whether a page is cached, without touching recency.
func (c *Cache) Resident(id FileID, page int64) bool {
	return c.lru.Contains(pageKey(id, page))
}

// ResidentCount returns how many of the first n pages of id are cached.
func (c *Cache) ResidentCount(id FileID, n int64) int64 {
	var r int64
	for p := int64(0); p < n; p++ {
		if c.Resident(id, p) {
			r++
		}
	}
	return r
}

// Read fetches pages [firstPage, firstPage+nPages) of id. Cached pages
// cost nothing here (the caller models CPU copy cost); missing pages are
// read from disk as one request per contiguous run. done fires once all
// pages are resident — immediately (before Read returns) when everything
// hits. It reports the number of page misses. When any underlying disk
// request fails, done receives the first error; pages from failed runs
// are not inserted.
func (c *Cache) Read(id FileID, firstPage, nPages int64, done func(now simtime.Time, err error)) (missing int64) {
	f, ok := c.files[id]
	if !ok {
		panic(fmt.Sprintf("fscache: read of unregistered file %d", id))
	}
	if firstPage < 0 || nPages <= 0 || firstPage+nPages > f.pages {
		panic(fmt.Sprintf("fscache: read [%d,+%d) outside %q (%d pages)", firstPage, nPages, f.name, f.pages))
	}

	// Collect missing pages, touching hits for recency.
	var missPages []int64
	for p := firstPage; p < firstPage+nPages; p++ {
		key := pageKey(id, p)
		if c.lru.Contains(key) {
			c.lru.Touch(key)
			c.hits++
		} else {
			missPages = append(missPages, p)
			c.misses++
		}
	}
	missing = int64(len(missPages))
	if c.rec != nil {
		if hits := nPages - missing; hits > 0 {
			c.rec.Charge(spans.CauseFSHit, f.name, 0, hits)
		}
		if missing > 0 {
			c.rec.Charge(spans.CauseFSMiss, f.name, 0, missing)
		}
	}
	if missing == 0 {
		done(0, nil) // caller context; "now" unused for synchronous hits
		return 0
	}

	// Coalesce contiguous runs into single disk requests.
	outstanding := 0
	var firstErr error
	var fire func(now simtime.Time, err error)
	for i := 0; i < len(missPages); {
		j := i
		for j+1 < len(missPages) && missPages[j+1] == missPages[j]+1 {
			j++
		}
		run := missPages[i : j+1]
		outstanding++
		c.disk.Submit(disk.Request{
			Op:     disk.Read,
			Block:  f.startBlock + run[0]*PageBlocks,
			Blocks: int64(len(run)) * PageBlocks,
			Done: func(now simtime.Time, err error) {
				if err == nil {
					for _, p := range run {
						c.lru.Insert(pageKey(id, p))
					}
				} else {
					c.ioErrs++
					if firstErr == nil {
						firstErr = err
					}
				}
				outstanding--
				if outstanding == 0 {
					fire(now, firstErr)
				}
			},
		})
		i = j + 1
	}
	fire = done
	return missing
}

// Write stores pages [firstPage, firstPage+nPages) of id write-through:
// the pages become resident and a disk write is issued; done fires when
// the write reaches the platter (the sync-save case of Table 1).
func (c *Cache) Write(id FileID, firstPage, nPages int64, done func(now simtime.Time, err error)) {
	f, ok := c.files[id]
	if !ok {
		panic(fmt.Sprintf("fscache: write of unregistered file %d", id))
	}
	if firstPage < 0 || nPages <= 0 || firstPage+nPages > f.pages {
		panic(fmt.Sprintf("fscache: write [%d,+%d) outside %q (%d pages)", firstPage, nPages, f.name, f.pages))
	}
	for p := firstPage; p < firstPage+nPages; p++ {
		c.lru.Insert(pageKey(id, p))
	}
	c.writes += nPages
	c.rec.Charge(spans.CauseFSWrite, f.name, 0, nPages)
	c.disk.Submit(disk.Request{
		Op:     disk.Write,
		Block:  f.startBlock + firstPage*PageBlocks,
		Blocks: nPages * PageBlocks,
		Done: func(now simtime.Time, err error) {
			if err != nil {
				c.ioErrs++
			}
			done(now, err)
		},
	})
}

// EvictAll empties the cache (models a cold boot without rebuilding the
// file table).
func (c *Cache) EvictAll() { c.lru.Flush() }

// EvictOldest discards up to n least-recently-used pages and returns how
// many were evicted. The fault layer uses it to model memory pressure
// from a competing workload collapsing the hit rate.
func (c *Cache) EvictOldest(n int) int {
	evicted := c.lru.EvictOldest(n)
	c.evictions += int64(evicted)
	if evicted > 0 {
		c.rec.Charge(spans.CauseFSEvict, "pressure", 0, int64(evicted))
	}
	return evicted
}
