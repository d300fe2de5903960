package core

import (
	"slices"

	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// The read side of a tree: Search's leaf run (tree.go), MPSearch
// (SearchMany) and prange (RangeSearch). Every timed read lands in the
// tree's arena and is searched in place through internalView and leafView;
// nothing is decoded, and the slices the readers work in are the tree's
// own, so on a warm tree a scan allocates only its result.

// arena is a tree's read scratch. Every tree read resets it, so a view over
// its bytes is valid until the tree's next read — the contract Pool.Get
// gives a frame. It holds one read at a time: a leaf run, an internal
// level, or a psync call of at most PioMax leaves (with a pool batch's
// hits).
type arena struct {
	buf []byte
	off int
}

// reset rewinds the arena and makes room for n bytes.
func (a *arena) reset(n int) {
	if len(a.buf) < n {
		a.buf = make([]byte, n)
	}
	a.off = 0
}

// take returns the next n bytes of the room reset made.
func (a *arena) take(n int) []byte {
	b := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// flushArena is a tree's flush scratch, kept apart from the read arena
// because bupdate's internal-node reads reset that one mid-flush. Every
// buffer a flushBatch reads leaves into or writes from is taken here, and
// one reset at the top of flushBatch frees them all: a buffer is valid
// until the tree's next flushBatch. That outlives a group flush's data
// gang, where the writes wait in groupIO.reqs — and a transient gang retry
// resubmits those same buffers. The arena grows by whole blocks and never
// moves one, so growth cannot pull bytes from under a queued write the way
// arena.reset's reallocation would.
type flushArena struct {
	blocks   [][]byte
	blk, off int // the block being carved, and the bytes of it taken
}

// flushBlock is the flush arena's block size; a larger take gets a block
// of its own size.
const flushBlock = 16 << 10

func (a *flushArena) reset() { a.blk, a.off = 0, 0 }

// take returns n bytes that no take since the last reset has returned. Its
// contents are whatever an earlier flush left there.
func (a *flushArena) take(n int) []byte {
	if a.blk < len(a.blocks) && a.off+n > len(a.blocks[a.blk]) {
		a.blk, a.off = a.blk+1, 0
	}
	switch {
	case a.blk == len(a.blocks):
		a.blocks = append(a.blocks, make([]byte, max(flushBlock, n)))
	case len(a.blocks[a.blk]) < n:
		// No take since the reset reached this block, so nothing queued
		// points into it.
		a.blocks[a.blk] = make([]byte, n)
	}
	b := a.blocks[a.blk][a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// readScratch holds the slices the read side reuses from call to call.
type readScratch struct {
	frontier, next []pagefile.PageID // a descent's level and the one below
	spans, nexts   [][]kv.Key        // SearchMany: the keys routed to each frontier node
	keys           []kv.Key          // SearchMany: the keys the OPQ did not answer
	ops, tail      []kv.Entry        // RangeSearch: the OPQ overlay; appendLive's tail

	// The batch readers'.
	missAt []int
	misses []pagefile.PageID
	pages  [][]byte
	bufs   [][]byte
	upto   []int
	leaves []leafView
	runs   []pagefile.RunReq
}

// flushScratch holds the flush arena and the slices a flushBatch reuses
// from call to call; whatever points into the arena follows its rule.
type flushScratch struct {
	arena flushArena
	// levels[l] is bupdate's at tree level l; levels[0].work is a root
	// leaf's flush.
	levels []levelScratch
	// flushLeaves' leaves, and the runs of its psync reads.
	leaves []leafFlush
	ids    []pagefile.PageID
	upto   []int
	bufs   [][]byte

	writes []pagefile.RunReq // the page writes being made
	reqs   []ssdio.Req       // a group member's deferred writes (groupIO.reqs)
	leaf   leafNode          // the shrink arm's leaf, over a reused entry slice
}

// levelScratch is one bupdate level's: the node it updates and the work
// it routes to the children.
type levelScratch struct {
	id   [1]pagefile.PageID
	node internalNode
	work []childWork
}

// readPoolPages reads single-page nodes through the buffer pool — internal
// nodes, and the leaves of an L = 1 tree — and hands them to visit in the
// order of ids, a run of consecutive pages at a time. The ids are
// distinct, as every caller's frontier is. Hits are copied into the arena;
// misses are read into it by psync calls of at most PioMax pages, then
// inserted clean. Which pages hit is settled before the first miss is
// read, so the pool sees the calls a whole batch always made; after that
// the arena holds the hits plus one call's misses, and a run is valid only
// until visit returns. The CPU charge for every page is added at the end.
func (t *Tree) readPoolPages(at vtime.Ticks, ids []pagefile.PageID, visit func(first int, pages [][]byte) error) (vtime.Ticks, error) {
	ps, pm, sc := t.cfg.PageSize, t.cfg.pioMax(), &t.scratch
	missAt, misses := sc.missAt[:0], sc.misses[:0]
	for i, id := range ids {
		if !t.pool.Contains(id) {
			missAt = append(missAt, i)
			misses = append(misses, id)
		}
	}
	sc.missAt, sc.misses = missAt, misses
	pages := slices.Grow(sc.pages[:0], len(ids))[:len(ids)]
	sc.pages = pages
	t.arena.reset((len(ids) - len(misses) + min(pm, len(misses))) * ps)
	for i, m := 0, 0; i < len(ids); i++ {
		if m < len(missAt) && missAt[m] == i {
			m++
			continue
		}
		data, at2, err := t.poolGet(at, ids[i])
		if err != nil {
			return at2, err
		}
		at = at2
		pages[i] = t.arena.take(ps)
		copy(pages[i], data)
	}
	hits := t.arena.off
	next := 0 // the first page visit has not seen
	for c := 0; c < len(misses); c += pm {
		// Every page before this call's first miss is ready, and the
		// call's reads reuse the space of the previous call's.
		if next < missAt[c] {
			if err := visit(next, pages[next:missAt[c]]); err != nil {
				return at, err
			}
			next = missAt[c]
		}
		end := min(c+pm, len(misses))
		t.arena.off = hits
		bufs := sc.bufs[:0]
		for _, i := range missAt[c:end] {
			pages[i] = t.arena.take(ps)
			bufs = append(bufs, pages[i])
		}
		sc.bufs = bufs
		var err error
		if at, err = t.psyncReadPages(at, misses[c:end], bufs); err != nil {
			return at, err
		}
		for j, id := range misses[c:end] {
			t.pool.InsertClean(id, bufs[j])
		}
	}
	if next < len(ids) {
		if err := visit(next, pages[next:]); err != nil {
			return at, err
		}
	}
	return at + vtime.Ticks(len(ids))*t.cfg.CPUPerNode, nil
}

// readInternalBatch is the one internal-node batch reader: the MPSearch
// and prange descents read a level with it, bupdate the node it updates.
// visit sees each node, in the order of ids, through a view valid until
// visit returns.
func (t *Tree) readInternalBatch(at vtime.Ticks, ids []pagefile.PageID, visit func(i int, n internalView)) (vtime.Ticks, error) {
	return t.readPoolPages(at, ids, func(first int, pages [][]byte) error {
		for j, page := range pages {
			n, err := viewInternal(ids[first+j], page)
			if err != nil {
				return err
			}
			visit(first+j, n)
		}
		return nil
	})
}

// readLeafBatch reads the leaves ids — distinct, as every caller's
// frontier is — and hands visit their views in the order of ids, a run at
// a time; a view is valid until visit returns. A multi-segment leaf is
// read as segments [0, lastLS], one multi-page request, so a psync call of
// PioMax leaves exercises both channel-level (many requests) and
// package-level (large requests) parallelism. The leaves stream through
// the arena one such call at a time, so it never holds more than PioMax
// leaves, whatever the batch. Single-page leaves go through the pool like
// internal nodes. The CPU charge for every leaf is added after the last
// call.
func (t *Tree) readLeafBatch(at vtime.Ticks, ids []pagefile.PageID, visit func(first int, leaves []leafView)) (vtime.Ticks, error) {
	ps, segs, sc := t.cfg.PageSize, t.cfg.LeafSegs, &t.scratch
	// views hands visit the leaves from ids[first] on, read into bufs.
	views := func(first int, bufs [][]byte) error {
		leaves := sc.leaves[:0]
		for j, buf := range bufs {
			l, err := viewLeaf(ids[first+j], buf, ps, segs)
			if err != nil {
				return err
			}
			leaves = append(leaves, l)
		}
		sc.leaves = leaves
		visit(first, leaves)
		return nil
	}
	if segs == 1 {
		return t.readPoolPages(at, ids, views)
	}
	pm := t.cfg.pioMax()
	for c := 0; c < len(ids); c += pm {
		call := ids[c:min(c+pm, len(ids))]
		upto, n := sc.upto[:0], 0
		for _, id := range call {
			u, _ := t.lastLSOf(id)
			upto = append(upto, u)
			n += u + 1
		}
		t.arena.reset(n * ps)
		bufs := sc.bufs[:0]
		for _, u := range upto {
			bufs = append(bufs, t.arena.take((u+1)*ps))
		}
		sc.upto, sc.bufs = upto, bufs
		var err error
		if at, err = t.psyncReadRuns(at, call, upto, bufs); err != nil {
			return at, err
		}
		if err := views(c, bufs); err != nil {
			return at, err
		}
	}
	return at + vtime.Ticks(len(ids))*t.cfg.CPUPerNode, nil
}

// SearchMany is the paper's MPSearch (Algorithm 1): it resolves a set of
// search keys with one psync read per level, bounded by PioMax. Results
// are keyed by search key. The OPQ is consulted first for each key.
func (t *Tree) SearchMany(at vtime.Ticks, keys []kv.Key) (map[kv.Key]kv.Value, vtime.Ticks, error) {
	found := make(map[kv.Key]kv.Value, len(keys))
	at, err := t.searchMany(at, keys, found)
	if err != nil {
		return nil, at, err
	}
	return found, at, nil
}

// searchMany is SearchMany writing into found, which a forest shares
// between its shards.
func (t *Tree) searchMany(at vtime.Ticks, keys []kv.Key, found map[kv.Key]kv.Value) (vtime.Ticks, error) {
	t.stats.SearchOps += int64(len(keys))
	sc := &t.scratch
	rest := sc.keys[:0]
	for _, k := range keys {
		if e, ok := t.opq.Lookup(k); ok {
			t.stats.OPQShortcuts++
			if e.Op != kv.OpDelete {
				found[k] = e.Rec.Value
			}
			continue
		}
		rest = append(rest, k)
	}
	sc.keys = rest
	if len(rest) == 0 {
		return at, nil
	}
	slices.Sort(rest)

	// Descend level by level: frontier node i is routed the sorted run
	// spans[i] of the keys.
	frontier := append(sc.frontier[:0], t.root)
	spans := append(sc.spans[:0], rest)
	sc.frontier, sc.spans = frontier, spans
	for lvl := t.height - 1; lvl > 0; lvl-- {
		next, nexts := sc.next[:0], sc.nexts[:0]
		var err error
		at, err = t.readInternalBatch(at, frontier, func(i int, n internalView) {
			ks := spans[i]
			for a := 0; a < len(ks); {
				ci := n.childIndex(ks[a])
				b := a + 1
				for b < len(ks) && n.childIndex(ks[b]) == ci {
					b++
				}
				next = append(next, n.child(ci))
				nexts = append(nexts, ks[a:b])
				a = b
			}
		})
		sc.next, sc.nexts = next, nexts
		if err != nil {
			return at, err
		}
		frontier, spans = append(frontier[:0], next...), append(spans[:0], nexts...)
		sc.frontier, sc.spans = frontier, spans
	}
	return t.readLeafBatch(at, frontier, func(first int, leaves []leafView) {
		for j, l := range leaves {
			for _, k := range spans[first+j] {
				if e, ok := l.lookup(k); ok && e.Op != kv.OpDelete {
					found[k] = e.Rec.Value
				}
			}
		}
	})
}

// RangeSearch is the paper's prange search (Section 3.1.2): internal
// levels are traversed level by level, then every leaf overlapping the
// range is read in parallel via psync. OPQ entries overlay the result.
func (t *Tree) RangeSearch(at vtime.Ticks, lo, hi kv.Key) ([]kv.Record, vtime.Ticks, error) {
	recs, at, err := t.appendRange(at, lo, hi, nil)
	if err != nil || len(recs) == 0 {
		return nil, at, err
	}
	return recs, at, nil
}

// appendRange is RangeSearch appending to dst, which a forest shares
// between its shards. Each leaf's live records in range are resolved from
// its view and appended in key order — dst grows once per psync call of
// leaves, by an upper bound — and the OPQ overlay is merged in last.
func (t *Tree) appendRange(at vtime.Ticks, lo, hi kv.Key, dst []kv.Record) ([]kv.Record, vtime.Ticks, error) {
	t.stats.RangeOps++
	if hi <= lo {
		return dst, at, nil
	}
	sc := &t.scratch
	frontier := append(sc.frontier[:0], t.root)
	sc.frontier = frontier
	for lvl := t.height - 1; lvl > 0; lvl-- {
		next := sc.next[:0]
		var err error
		at, err = t.readInternalBatch(at, frontier, func(_ int, n internalView) {
			// hi is exclusive: the child covering hi-1 is the last needed.
			for c, last := n.childIndex(lo), n.childIndex(hi-1); c <= last; c++ {
				next = append(next, n.child(c))
			}
		})
		sc.next = next
		if err != nil {
			return dst, at, err
		}
		frontier = append(frontier[:0], next...)
		sc.frontier = frontier
	}
	ops := t.opq.Range(sc.ops[:0], lo, hi)
	sc.ops = ops
	start, extra := len(dst), len(ops)
	at, err := t.readLeafBatch(at, frontier, func(_ int, leaves []leafView) {
		n := extra
		for _, l := range leaves {
			n += l.liveBound(lo, hi)
		}
		dst, extra = slices.Grow(dst, n), 0
		for _, l := range leaves {
			dst = l.appendLive(dst, lo, hi, &sc.tail)
		}
	})
	if err != nil {
		return dst, at, err
	}
	return overlay(dst, start, ops), at, nil
}

// overlay merges ops — OPQ entries, key-sorted, arrival order within a
// key — into the key-sorted records recs[start:], in place: queued
// updates are newer than anything on disk, so the newest operation of a
// key wins, whether it inserts, updates or deletes.
func overlay(recs []kv.Record, start int, ops []kv.Entry) []kv.Record {
	if len(ops) == 0 {
		return recs
	}
	n := len(recs)
	recs = slices.Grow(recs, len(ops))[:n+len(ops)]
	// Move the disk records up by len(ops): each op adds at most one
	// record, so the merge writing from start never overtakes its reads.
	r := start + len(ops)
	copy(recs[r:], recs[start:n])
	w := start
	for i := 0; i < len(ops); {
		e := ops[i]
		for i++; i < len(ops) && ops[i].Rec.Key == e.Rec.Key; i++ {
			e = ops[i]
		}
		for ; r < len(recs) && recs[r].Key < e.Rec.Key; r, w = r+1, w+1 {
			recs[w] = recs[r]
		}
		if r < len(recs) && recs[r].Key == e.Rec.Key {
			r++
		}
		if e.Op != kv.OpDelete {
			recs[w] = e.Rec
			w++
		}
	}
	w += copy(recs[w:], recs[r:])
	return recs[:w]
}
