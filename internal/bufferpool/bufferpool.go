// Package bufferpool implements the LRU buffer manager employed for every
// index in the paper's experiments (Section 4.1: "The LRU buffer manager
// was employed for the indexes"). It caches fixed-size pages of one
// pagefile, charges simulated time for misses and dirty-page write-backs,
// and exposes hit/miss counters.
//
// Two write policies are provided:
//
//   - WriteBack (steal/no-force): dirtied frames are written when evicted,
//     producing the mingled read/write pattern the paper blames for the
//     B-link tree's concurrency penalty (Section 4.2);
//   - WriteThrough: writes go straight to the device and frames are never
//     dirty, matching the PIO B-tree's "no dirty buffers" property.
package bufferpool

import (
	"fmt"

	"repro/internal/pagefile"
	"repro/internal/vtime"
)

// Policy selects the write policy of a Pool.
type Policy uint8

const (
	// WriteBack defers page writes until eviction or Flush.
	WriteBack Policy = iota
	// WriteThrough writes pages immediately and keeps frames clean.
	WriteThrough
)

// Stats exposes the pool's counters.
type Stats struct {
	Hits, Misses  int64
	Evictions     int64
	DirtyWrites   int64
	LogicalReads  int64
	LogicalWrites int64
}

// HitRatio returns hits/(hits+misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type frame struct {
	id    pagefile.PageID
	data  []byte
	dirty bool
	pins  int
	// LRU ring links (see Pool.lru). The list is intrusive so a recycled
	// frame brings its own links: a miss at capacity allocates nothing.
	prev, next *frame
}

// Pool is an LRU page cache over one pagefile. Not safe for concurrent
// use; simulated threads are serialized by the vtime scheduler and real
// concurrent wrappers add their own locking.
type Pool struct {
	pf       *pagefile.PageFile
	capacity int
	policy   Policy

	frames map[pagefile.PageID]*frame
	lru    frame // ring sentinel: lru.next = most, lru.prev = least recently used
	stats  Stats
}

// New creates a pool of capacity pages (capacity >= 1) over pf.
func New(pf *pagefile.PageFile, capacity int, policy Policy) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("bufferpool: capacity must be >= 1, got %d", capacity)
	}
	p := &Pool{
		pf:       pf,
		capacity: capacity,
		policy:   policy,
		frames:   make(map[pagefile.PageID]*frame, capacity),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p, nil
}

// unlink takes fr out of the LRU ring.
func (p *Pool) unlink(fr *frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// pushFront links a detached frame in as the most recently used.
func (p *Pool) pushFront(fr *frame) {
	fr.prev, fr.next = &p.lru, p.lru.next
	fr.prev.next, fr.next.prev = fr, fr
}

// touch marks a resident frame most recently used.
func (p *Pool) touch(fr *frame) {
	p.unlink(fr)
	p.pushFront(fr)
}

// install makes a detached frame the resident, most recently used copy of
// page id.
func (p *Pool) install(fr *frame, id pagefile.PageID) {
	fr.id = id
	p.frames[id] = fr
	p.pushFront(fr)
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Resize changes the pool capacity, evicting (and writing back) as needed
// at virtual time at; it returns the time after any write-backs.
func (p *Pool) Resize(at vtime.Ticks, capacity int) (vtime.Ticks, error) {
	if capacity < 1 {
		return at, fmt.Errorf("bufferpool: capacity must be >= 1, got %d", capacity)
	}
	p.capacity = capacity
	var err error
	for len(p.frames) > p.capacity {
		_, at, err = p.evictOne(at)
		if err != nil {
			return at, err
		}
	}
	return at, nil
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats { return p.stats }

// evictOne removes the least recently used unpinned frame, writing it back
// if dirty, and returns it detached and clean for the caller to refill or
// drop. It fails if every frame is pinned.
func (p *Pool) evictOne(at vtime.Ticks) (*frame, vtime.Ticks, error) {
	for fr := p.lru.prev; fr != &p.lru; fr = fr.prev {
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			var err error
			at, err = p.pf.WritePage(at, fr.id, fr.data)
			if err != nil {
				return nil, at, err
			}
			fr.dirty = false
			p.stats.DirtyWrites++
		}
		p.unlink(fr)
		delete(p.frames, fr.id)
		p.stats.Evictions++
		return fr, at, nil
	}
	return nil, at, fmt.Errorf("bufferpool: all %d frames pinned", len(p.frames))
}

// freeFrame makes space for one more page and returns a detached frame to
// hold it: at capacity the evicted victim's own frame and buffer, whose
// old contents the caller overwrites; below capacity a new one.
func (p *Pool) freeFrame(at vtime.Ticks) (*frame, vtime.Ticks, error) {
	var fr *frame
	var err error
	for len(p.frames) >= p.capacity {
		fr, at, err = p.evictOne(at)
		if err != nil {
			return nil, at, err
		}
	}
	if fr == nil {
		fr = &frame{data: make([]byte, p.pf.PageSize())}
	}
	return fr, at, nil
}

// Get returns the page contents, reading from the device on a miss. The
// returned slice aliases the frame, and a later miss refills an evicted
// frame in place: unless the page is pinned, the slice is valid only until
// the next pool call, after which it may hold another page's bytes.
func (p *Pool) Get(at vtime.Ticks, id pagefile.PageID) ([]byte, vtime.Ticks, error) {
	p.stats.LogicalReads++
	if fr, ok := p.frames[id]; ok {
		p.stats.Hits++
		p.touch(fr)
		return fr.data, at, nil
	}
	p.stats.Misses++
	fr, at, err := p.freeFrame(at)
	if err != nil {
		return nil, at, err
	}
	// The frame stays detached until the fill succeeds, so a failed read
	// leaves no half-filled page resident.
	at, err = p.pf.ReadPage(at, id, fr.data)
	if err != nil {
		return nil, at, err
	}
	p.install(fr, id)
	return fr.data, at, nil
}

// Contains reports whether the page is cached (no LRU effect).
func (p *Pool) Contains(id pagefile.PageID) bool {
	_, ok := p.frames[id]
	return ok
}

// Put stores new page contents through the pool. Under WriteThrough the
// device write happens immediately; under WriteBack the frame is dirtied.
func (p *Pool) Put(at vtime.Ticks, id pagefile.PageID, data []byte) (vtime.Ticks, error) {
	if len(data) != p.pf.PageSize() {
		return at, fmt.Errorf("bufferpool: put %d bytes, want %d", len(data), p.pf.PageSize())
	}
	p.stats.LogicalWrites++
	fr, ok := p.frames[id]
	if !ok {
		var err error
		fr, at, err = p.freeFrame(at)
		if err != nil {
			return at, err
		}
		p.install(fr, id)
	} else {
		p.touch(fr)
	}
	copy(fr.data, data)
	if p.policy == WriteThrough {
		var err error
		at, err = p.pf.WritePage(at, id, fr.data)
		if err != nil {
			return at, err
		}
		fr.dirty = false
		return at, nil
	}
	fr.dirty = true
	return at, nil
}

// InsertClean installs page contents as a clean frame without any
// simulated I/O: the caller already paid for the transfer out of band
// (e.g. a psync batch read or write that bypassed the pool). Room is made
// by evicting clean frames; a dirty victim would need a timed write, so
// dirty victims are skipped (pools used with InsertClean are write-through
// and never hold dirty frames).
func (p *Pool) InsertClean(id pagefile.PageID, data []byte) {
	if len(data) != p.pf.PageSize() {
		return
	}
	if fr, ok := p.frames[id]; ok {
		copy(fr.data, data)
		fr.dirty = false
		p.touch(fr)
		return
	}
	for len(p.frames) >= p.capacity {
		evicted := false
		for fr := p.lru.prev; fr != &p.lru; fr = fr.prev {
			if fr.pins > 0 || fr.dirty {
				continue
			}
			p.unlink(fr)
			delete(p.frames, fr.id)
			p.stats.Evictions++
			evicted = true
			break
		}
		if !evicted {
			return // nothing evictable; skip caching
		}
	}
	p.install(&frame{data: append([]byte(nil), data...)}, id)
}

// Invalidate drops a page from the cache without writing it back (used
// after out-of-band page rewrites, e.g. psync batch writes that bypass the
// pool).
func (p *Pool) Invalidate(id pagefile.PageID) {
	if fr, ok := p.frames[id]; ok {
		p.unlink(fr)
		delete(p.frames, id)
	}
}

// Pin prevents eviction of a page until Unpin; the page must be resident.
func (p *Pool) Pin(id pagefile.PageID) error {
	fr, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("bufferpool: pin of non-resident page %d", id)
	}
	fr.pins++
	return nil
}

// Unpin releases one pin.
func (p *Pool) Unpin(id pagefile.PageID) error {
	fr, ok := p.frames[id]
	if !ok || fr.pins == 0 {
		return fmt.Errorf("bufferpool: unpin of unpinned page %d", id)
	}
	fr.pins--
	return nil
}

// Flush writes all dirty frames back at virtual time at (one sync write
// each, matching a conventional buffer manager's cleaner).
func (p *Pool) Flush(at vtime.Ticks) (vtime.Ticks, error) {
	var err error
	for fr := p.lru.prev; fr != &p.lru; fr = fr.prev {
		if !fr.dirty {
			continue
		}
		at, err = p.pf.WritePage(at, fr.id, fr.data)
		if err != nil {
			return at, err
		}
		fr.dirty = false
		p.stats.DirtyWrites++
	}
	return at, nil
}

// DirtyCount returns the number of dirty frames.
func (p *Pool) DirtyCount() int {
	n := 0
	for _, fr := range p.frames {
		if fr.dirty {
			n++
		}
	}
	return n
}

// Len returns the number of resident frames.
func (p *Pool) Len() int { return len(p.frames) }
