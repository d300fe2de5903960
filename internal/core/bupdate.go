package core

import (
	"sort"

	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// psyncReadPages reads the given pages in one psync call (or a sequence of
// sync reads when the psync ablation is on).
func (t *Tree) psyncReadPages(at vtime.Ticks, ids []pagefile.PageID, bufs [][]byte) (vtime.Ticks, error) {
	if len(ids) == 0 {
		return at, nil
	}
	t.stats.PsyncReads++
	if t.cfg.DisablePsync {
		var err error
		for i, id := range ids {
			id, buf := id, bufs[i]
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.ReadPage(at, id, buf)
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	// Reads are idempotent and a failed submission fills no buffers, so
	// resubmitting the whole batch is safe.
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncRead(at, ids, bufs)
	})
}

// psyncWritePages writes the given pages in one psync call (or serially
// under the ablation). When the tree flushes as part of a forest group
// (g non-nil), the writes are deferred into the group's data gang instead.
func (t *Tree) psyncWritePages(at vtime.Ticks, ids []pagefile.PageID, bufs [][]byte, g *groupIO) (vtime.Ticks, error) {
	if len(ids) == 0 {
		return at, nil
	}
	if g != nil {
		runs := make([]pagefile.RunReq, len(ids))
		for i, id := range ids {
			runs[i] = pagefile.RunReq{First: id, N: 1, Buf: bufs[i], Write: true}
		}
		return at, t.deferWrites(g, runs)
	}
	t.stats.PsyncWrites++
	if t.cfg.DisablePsync {
		var err error
		for i, id := range ids {
			id, buf := id, bufs[i]
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.WritePage(at, id, buf)
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	// A failed submission applied nothing, so the resubmission writes the
	// same pages from the same buffers — idempotent by construction.
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncWrite(at, ids, bufs)
	})
}

// deferWrites gathers write runs into a group flush's data gang.
func (t *Tree) deferWrites(g *groupIO, runs []pagefile.RunReq) error {
	t.stats.GangedWrites++
	rs, err := t.pf.GatherRuns(runs)
	if err != nil {
		return err
	}
	g.reqs = append(g.reqs, rs...)
	return nil
}

// readInternalBatch fetches a set of internal nodes: buffered nodes come
// from the pool, misses are read with one psync call and inserted clean.
func (t *Tree) readInternalBatch(at vtime.Ticks, ids []pagefile.PageID) (map[pagefile.PageID]*internalNode, vtime.Ticks, error) {
	out := make(map[pagefile.PageID]*internalNode, len(ids))
	var missIDs []pagefile.PageID
	var missBufs [][]byte
	for _, id := range ids {
		if _, done := out[id]; done {
			continue
		}
		if t.pool.Contains(id) {
			data, at2, err := t.poolGet(at, id)
			if err != nil {
				return nil, at2, err
			}
			at = at2
			n, err := decodeInternal(id, data)
			if err != nil {
				return nil, at, err
			}
			out[id] = n
			continue
		}
		missIDs = append(missIDs, id)
		missBufs = append(missBufs, make([]byte, t.cfg.PageSize))
	}
	// Read misses PioMax at a time.
	pm := t.cfg.pioMax()
	var err error
	for i := 0; i < len(missIDs); i += pm {
		end := i + pm
		if end > len(missIDs) {
			end = len(missIDs)
		}
		at, err = t.psyncReadPages(at, missIDs[i:end], missBufs[i:end])
		if err != nil {
			return nil, at, err
		}
	}
	for i, id := range missIDs {
		n, err := decodeInternal(id, missBufs[i])
		if err != nil {
			return nil, at, err
		}
		out[id] = n
		t.pool.InsertClean(id, missBufs[i])
	}
	at += vtime.Ticks(len(ids)) * t.cfg.CPUPerNode
	return out, at, nil
}

// readLeafBatch reads whole leaves (segments [0, lastLS]) via psync and
// returns views over the buffers it read them into. Each leaf is one
// multi-page request, so a psync batch of leaves exercises both
// channel-level (many requests) and package-level (large requests)
// parallelism at once.
//
// The views outlive the pool calls made here, so none is over a pool
// frame, which the next miss may refill with another page: a single-page
// leaf that hits is copied out of its frame.
func (t *Tree) readLeafBatch(at vtime.Ticks, ids []pagefile.PageID) (map[pagefile.PageID]leafView, vtime.Ticks, error) {
	out := make(map[pagefile.PageID]leafView, len(ids))
	uniq := ids[:0:0]
	for _, id := range ids {
		if _, ok := out[id]; !ok {
			out[id] = leafView{}
			uniq = append(uniq, id)
		}
	}
	if t.cfg.LeafSegs == 1 {
		// Single-page leaves flow through the pool: hits are free, misses
		// are batched via psync and inserted clean.
		var missIDs []pagefile.PageID
		var missBufs [][]byte
		for _, id := range uniq {
			if t.pool.Contains(id) {
				data, at2, err := t.poolGet(at, id)
				if err != nil {
					return nil, at2, err
				}
				at = at2
				l, err := viewLeaf(id, append([]byte(nil), data...), t.cfg.PageSize, 1)
				if err != nil {
					return nil, at, err
				}
				out[id] = l
				continue
			}
			missIDs = append(missIDs, id)
			missBufs = append(missBufs, make([]byte, t.cfg.PageSize))
		}
		pm := t.cfg.pioMax()
		var err error
		for i := 0; i < len(missIDs); i += pm {
			end := i + pm
			if end > len(missIDs) {
				end = len(missIDs)
			}
			at, err = t.psyncReadPages(at, missIDs[i:end], missBufs[i:end])
			if err != nil {
				return nil, at, err
			}
		}
		for i, id := range missIDs {
			l, err := viewLeaf(id, missBufs[i], t.cfg.PageSize, 1)
			if err != nil {
				return nil, at, err
			}
			out[id] = l
			t.pool.InsertClean(id, missBufs[i])
		}
		at += vtime.Ticks(len(uniq)) * t.cfg.CPUPerNode
		return out, at, nil
	}
	pm := t.cfg.pioMax()
	for i := 0; i < len(uniq); i += pm {
		end := i + pm
		if end > len(uniq) {
			end = len(uniq)
		}
		chunk := uniq[i:end]
		bufs := make([][]byte, len(chunk))
		reqIDs := make([]pagefile.PageID, len(chunk))
		upto := make([]int, len(chunk))
		for j, id := range chunk {
			u, _ := t.lastLSOf(id)
			upto[j] = u
			bufs[j] = make([]byte, (u+1)*t.cfg.PageSize)
			reqIDs[j] = id
		}
		// A leaf read is one run request; emulate a psync batch of runs.
		var err error
		at, err = t.psyncReadRuns(at, reqIDs, upto, bufs)
		if err != nil {
			return nil, at, err
		}
		for j, id := range chunk {
			l, err := viewLeaf(id, bufs[j], t.cfg.PageSize, t.cfg.LeafSegs)
			if err != nil {
				return nil, at, err
			}
			out[id] = l
		}
	}
	at += vtime.Ticks(len(uniq)) * t.cfg.CPUPerNode
	return out, at, nil
}

// psyncReadRuns issues one psync batch where request j covers
// (upto[j]+1) consecutive pages starting at ids[j].
func (t *Tree) psyncReadRuns(at vtime.Ticks, ids []pagefile.PageID, upto []int, bufs [][]byte) (vtime.Ticks, error) {
	if len(ids) == 0 {
		return at, nil
	}
	t.stats.PsyncReads++
	var err error
	if t.cfg.DisablePsync {
		for j, id := range ids {
			j, id := j, id
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.ReadRun(at, id, upto[j]+1, bufs[j])
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	// Split each run into its own request within one batch: the pagefile
	// psync API is page-granular, so expose runs as single big requests by
	// using the underlying file directly.
	reqs := make([]pagefile.RunReq, len(ids))
	for j, id := range ids {
		reqs[j] = pagefile.RunReq{First: id, N: upto[j] + 1, Buf: bufs[j], Write: false}
	}
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncRuns(at, reqs)
	})
}

// psyncWriteRuns is the write counterpart of psyncReadRuns. Forest group
// flushes (g non-nil) defer the runs into the group's data gang (one
// merged submission at the end of the group) instead of submitting here.
func (t *Tree) psyncWriteRuns(at vtime.Ticks, reqs []pagefile.RunReq, g *groupIO) (vtime.Ticks, error) {
	if len(reqs) == 0 {
		return at, nil
	}
	if g != nil {
		return at, t.deferWrites(g, reqs)
	}
	t.stats.PsyncWrites++
	var err error
	if t.cfg.DisablePsync {
		for _, r := range reqs {
			r := r
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.WriteRun(at, r.First, r.N, r.Buf)
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncRuns(at, reqs)
	})
}

// SearchMany is the paper's MPSearch (Algorithm 1): it resolves a set of
// search keys with one psync read per level, bounded by PioMax. Results
// are keyed by search key. The OPQ is consulted first for each key.
func (t *Tree) SearchMany(at vtime.Ticks, keys []kv.Key) (map[kv.Key]kv.Value, vtime.Ticks, error) {
	t.stats.SearchOps += int64(len(keys))
	found := make(map[kv.Key]kv.Value, len(keys))
	var rest []kv.Key
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
	if len(rest) == 0 {
		return found, at, nil
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })

	// Descend level by level. Work items pair a node id with the key range
	// (slice of rest) routed to it.
	type item struct {
		id   pagefile.PageID
		keys []kv.Key
	}
	frontier := []item{{id: t.root, keys: rest}}
	for lvl := t.height - 1; lvl > 0; lvl-- {
		ids := make([]pagefile.PageID, len(frontier))
		for i, it := range frontier {
			ids[i] = it.id
		}
		nodes, at2, err := t.readInternalBatch(at, ids)
		if err != nil {
			return nil, at2, err
		}
		at = at2
		var next []item
		for _, it := range frontier {
			n := nodes[it.id]
			// Partition it.keys among n's children (keys are sorted).
			i := 0
			for i < len(it.keys) {
				ci := n.childIndex(it.keys[i])
				j := i + 1
				for j < len(it.keys) && n.childIndex(it.keys[j]) == ci {
					j++
				}
				next = append(next, item{id: n.children[ci], keys: it.keys[i:j]})
				i = j
			}
		}
		frontier = next
	}
	// Leaf level: read all target leaves via psync.
	leafIDs := make([]pagefile.PageID, len(frontier))
	for i, it := range frontier {
		leafIDs[i] = it.id
	}
	leaves, at, err := t.readLeafBatch(at, leafIDs)
	if err != nil {
		return nil, at, err
	}
	for _, it := range frontier {
		l := leaves[it.id]
		for _, k := range it.keys {
			if e, ok := l.lookup(k); ok && e.Op != kv.OpDelete {
				found[k] = e.Rec.Value
			}
		}
	}
	return found, at, nil
}

// RangeSearch is the paper's prange search (Section 3.1.2): internal
// levels are traversed level by level, then every leaf overlapping the
// range is read in parallel via psync. OPQ entries overlay the result.
func (t *Tree) RangeSearch(at vtime.Ticks, lo, hi kv.Key) ([]kv.Record, vtime.Ticks, error) {
	t.stats.RangeOps++
	if hi <= lo {
		return nil, at, nil
	}
	frontier := []pagefile.PageID{t.root}
	for lvl := t.height - 1; lvl > 0; lvl-- {
		nodes, at2, err := t.readInternalBatch(at, frontier)
		if err != nil {
			return nil, at2, err
		}
		at = at2
		var next []pagefile.PageID
		for _, id := range frontier {
			n := nodes[id]
			first := n.childIndex(lo)
			// hi is exclusive: the child covering hi-1 is the last needed.
			last := n.childIndex(hi - 1)
			for c := first; c <= last; c++ {
				next = append(next, n.children[c])
			}
		}
		frontier = next
	}
	leaves, at, err := t.readLeafBatch(at, frontier)
	if err != nil {
		return nil, at, err
	}
	var recs []kv.Record
	for _, id := range frontier {
		// A range needs the leaf's live set, so this path still decodes.
		for _, r := range leaves[id].decode().liveRecords() {
			if r.Key >= lo && r.Key < hi {
				recs = append(recs, r)
			}
		}
	}
	kv.SortRecords(recs)
	// Overlay queued updates (newer than anything on disk): replay the
	// OPQ entries in arrival order onto the disk image — the newest
	// operation per key wins, whether it inserts, updates, or deletes.
	overlay := t.opq.Range(lo, hi)
	if len(overlay) > 0 {
		state := make(map[kv.Key]kv.Value, len(recs))
		dead := make(map[kv.Key]bool)
		for _, r := range recs {
			state[r.Key] = r.Value
		}
		for _, e := range overlay {
			switch e.Op {
			case kv.OpDelete:
				delete(state, e.Rec.Key)
				dead[e.Rec.Key] = true
			case kv.OpInsert, kv.OpUpdate:
				state[e.Rec.Key] = e.Rec.Value
				delete(dead, e.Rec.Key)
			}
		}
		out := make([]kv.Record, 0, len(state))
		for k, v := range state {
			out = append(out, kv.Record{Key: k, Value: v})
		}
		kv.SortRecords(out)
		recs = out
	}
	return recs, at, nil
}

// fenceRec is a fence-key record propagated to a parent after a leaf or
// internal split (the paper's Kf).
type fenceRec struct {
	key   kv.Key
	child pagefile.PageID
}

// FlushBatch runs one batch update (Algorithm 2/3) over up to bcnt OPQ
// entries (<= 0 processes the whole queue). It is the paper's OPQ flush
// operation, bracketed by flush event logs when a WAL is attached.
func (t *Tree) FlushBatch(at vtime.Ticks, bcnt int) (vtime.Ticks, error) {
	return t.flushBatch(at, bcnt, nil)
}

// flushBatch is FlushBatch, run inline when g is nil and as a member of a
// forest group flush otherwise: the data writes wait in g for the group's
// data gang, the log forces are left to the coordinator's prepare force,
// and the FlushEnd record waits in g for its commit force.
func (t *Tree) flushBatch(at vtime.Ticks, bcnt int, g *groupIO) (vtime.Ticks, error) {
	batch := t.opq.TakeBatch(bcnt)
	if len(batch) == 0 {
		return at, nil
	}
	t.stats.Flushes++
	var err error
	var flushID uint64
	if t.log != nil {
		t.flushID++
		flushID = t.flushID
		t.log.Append(wal.Record{
			Kind:     wal.KindFlushStart,
			Relation: t.cfg.Relation,
			FlushID:  flushID,
			KeyLo:    batch[0].Rec.Key,
			KeyHi:    batch[len(batch)-1].Rec.Key,
		})
		// WAL rule: the flush-start record and all logical logs of the
		// chosen entries must be durable before any node write.
		at, err = t.forceWAL(at, g)
		if err != nil {
			return at, err
		}
	}
	if t.height == 1 {
		// Root is a leaf.
		fences, at2, err := t.flushLeaves(at, []leafGroup{{id: t.root, entries: batch}}, g)
		if err != nil {
			return at2, err
		}
		at = at2
		var rootFences []fenceRec
		for _, fs := range fences {
			rootFences = append(rootFences, fs...)
		}
		at, err = t.growRoot(at, t.root, 0, rootFences, g)
		if err != nil {
			return at, err
		}
	} else {
		fences, at2, err := t.bupdate(at, t.root, t.height-1, batch, g)
		if err != nil {
			return at2, err
		}
		at = at2
		at, err = t.growRoot(at, t.root, t.height-1, fences, g)
		if err != nil {
			return at, err
		}
	}
	if t.log != nil {
		end := wal.Record{
			Kind:     wal.KindFlushEnd,
			Relation: t.cfg.Relation,
			FlushID:  flushID,
			KeyLo:    batch[0].Rec.Key,
			KeyHi:    batch[len(batch)-1].Rec.Key,
		}
		if g != nil {
			// Group commit: the FlushEnd must not become durable before the
			// group's data writes, which are themselves deferred into the
			// coordinator's gang. Hand the record to the coordinator, which
			// appends and gang-forces it after the data submission.
			g.end = end
		} else {
			t.log.Append(end)
			// A retried force resubmits the whole unforced tail, so the
			// FlushEnd still reaches the device after the data writes.
			at, err = t.retryIO(at, t.log.Force)
			if err != nil {
				return at, err
			}
		}
	}
	if g == nil {
		// Inline commit: the FlushEnd is durable, so this is a commit
		// point for the quarantine rollback baseline. Group commits reach
		// theirs when the coordinator's phase-2 force lands.
		t.commitDurableMeta()
	}
	return at, nil
}

// growRoot absorbs fence records produced by the root node, growing the
// tree as many levels as necessary.
func (t *Tree) growRoot(at vtime.Ticks, oldRoot pagefile.PageID, rootLevel int, fences []fenceRec, g *groupIO) (vtime.Ticks, error) {
	var err error
	for len(fences) > 0 {
		n := &internalNode{id: t.pf.Alloc(), level: rootLevel + 1}
		n.children = append(n.children, oldRoot)
		for _, f := range fences {
			n.keys = append(n.keys, f.key)
			n.children = append(n.children, f.child)
		}
		if len(n.keys) > maxInternalKeys(t.cfg.PageSize) {
			var up []fenceRec
			n, up, err = t.splitInternalMulti(n)
			if err != nil {
				return at, err
			}
			at, err = t.writeInternalBatch(at, []*internalNode{n}, g)
			if err != nil {
				return at, err
			}
			oldRoot, rootLevel, fences = n.id, n.level, up
			t.root = n.id
			t.height = rootLevel + 1
			continue
		}
		at, err = t.writeInternalBatch(at, []*internalNode{n}, g)
		if err != nil {
			return at, err
		}
		t.root = n.id
		t.height = n.level + 1
		return at, nil
	}
	return at, nil
}

// leafGroup routes a key-sorted entry slice to one leaf.
type leafGroup struct {
	id      pagefile.PageID
	entries []kv.Entry
}

// bupdate descends from node id at the given level, routing the key-sorted
// batch to children, recursing in PioMax-bounded groups, applying returned
// fence records, splitting as needed, and writing updated internal nodes
// via psync. It returns the fence records for the caller's level.
func (t *Tree) bupdate(at vtime.Ticks, id pagefile.PageID, level int, batch []kv.Entry, g *groupIO) ([]fenceRec, vtime.Ticks, error) {
	nodes, at, err := t.readInternalBatch(at, []pagefile.PageID{id})
	if err != nil {
		return nil, at, err
	}
	n := nodes[id]

	// Partition batch among children.
	type childWork struct {
		idx     int
		id      pagefile.PageID
		entries []kv.Entry
	}
	var work []childWork
	i := 0
	for i < len(batch) {
		ci := n.childIndex(batch[i].Rec.Key)
		j := i + 1
		for j < len(batch) && n.childIndex(batch[j].Rec.Key) == ci {
			j++
		}
		work = append(work, childWork{idx: ci, id: n.children[ci], entries: batch[i:j]})
		i = j
	}

	// Process children and collect fences per child index.
	fencesByChild := make(map[int][]fenceRec)
	if level == 1 {
		// Children are leaves: flush them in PioMax-bounded groups.
		pm := t.cfg.pioMax()
		for i := 0; i < len(work); i += pm {
			end := i + pm
			if end > len(work) {
				end = len(work)
			}
			groups := make([]leafGroup, 0, end-i)
			for _, w := range work[i:end] {
				groups = append(groups, leafGroup{id: w.id, entries: w.entries})
			}
			fences, at2, err := t.flushLeaves(at, groups, g)
			if err != nil {
				return nil, at2, err
			}
			at = at2
			// flushLeaves returns fences tagged by group order.
			for gi, fs := range fences {
				w := work[i+gi]
				fencesByChild[w.idx] = append(fencesByChild[w.idx], fs...)
			}
		}
	} else {
		for _, w := range work {
			fs, at2, err := t.bupdate(at, w.id, level-1, w.entries, g)
			if err != nil {
				return nil, at2, err
			}
			at = at2
			fencesByChild[w.idx] = append(fencesByChild[w.idx], fs...)
		}
	}
	if len(fencesByChild) == 0 {
		return nil, at, nil
	}

	// Apply fence records: insert (key, child) pairs after each split
	// child, in child order.
	newKeys := make([]kv.Key, 0, len(n.keys)+len(fencesByChild))
	newChildren := make([]pagefile.PageID, 0, len(n.children)+len(fencesByChild))
	for ci, child := range n.children {
		if ci > 0 {
			newKeys = append(newKeys, n.keys[ci-1])
		}
		newChildren = append(newChildren, child)
		for _, f := range fencesByChild[ci] {
			newKeys = append(newKeys, f.key)
			newChildren = append(newChildren, f.child)
		}
	}
	n.keys, n.children = newKeys, newChildren

	var up []fenceRec
	if len(n.keys) > maxInternalKeys(t.cfg.PageSize) {
		var err error
		n, up, err = t.splitInternalMulti(n)
		if err != nil {
			return nil, at, err
		}
	}
	at, err = t.writeInternalBatch(at, []*internalNode{n}, g)
	if err != nil {
		return nil, at, err
	}
	return up, at, nil
}

// splitInternalMulti splits an overfull internal node into chunks of at
// most the key capacity, writes the new right siblings, and returns the
// revised node plus the fence records for the parent. The separator key
// between chunks moves up, B+-tree style.
func (t *Tree) splitInternalMulti(n *internalNode) (*internalNode, []fenceRec, error) {
	maxKeys := maxInternalKeys(t.cfg.PageSize)
	half := maxKeys / 2
	var fences []fenceRec
	var rights []*internalNode
	for len(n.keys) > maxKeys {
		// Keep `half` keys in n; key[half] moves up; rest goes right.
		upKey := n.keys[half]
		right := &internalNode{id: t.pf.Alloc(), level: n.level}
		right.keys = append(right.keys, n.keys[half+1:]...)
		right.children = append(right.children, n.children[half+1:]...)
		n.keys = n.keys[:half]
		n.children = n.children[:half+1]
		fences = append(fences, fenceRec{key: upKey, child: right.id})
		rights = append(rights, right)
		// Continue splitting the right part if still overfull.
		if len(right.keys) > maxKeys {
			n2 := right
			// Swap: iterate on right as the node being reduced; n is done.
			// To keep code simple, recurse.
			sub, subF, err := t.splitInternalMulti(n2)
			if err != nil {
				return nil, nil, err
			}
			rights[len(rights)-1] = sub
			fences = append(fences, subF...)
			break
		}
	}
	// Write the new right siblings (timed, via psync with the node itself
	// written by the caller).
	for _, r := range rights {
		buf := make([]byte, t.cfg.PageSize)
		if err := r.encode(buf); err != nil {
			return nil, nil, err
		}
		t.pendingInternal = append(t.pendingInternal, pendingPage{id: r.id, buf: buf})
	}
	return n, fences, nil
}

// pendingPage is an internal-node page queued for the next psync write.
type pendingPage struct {
	id  pagefile.PageID
	buf []byte
}

// writeInternalBatch writes the given internal nodes plus any pending
// split siblings in one psync call, logging undo images first when a WAL
// is attached, and refreshes the buffer pool copies.
func (t *Tree) writeInternalBatch(at vtime.Ticks, ns []*internalNode, g *groupIO) (vtime.Ticks, error) {
	pages := make([]pendingPage, 0, len(ns)+len(t.pendingInternal))
	for _, n := range ns {
		buf := make([]byte, t.cfg.PageSize)
		if err := n.encode(buf); err != nil {
			return at, err
		}
		pages = append(pages, pendingPage{id: n.id, buf: buf})
	}
	pages = append(pages, t.pendingInternal...)
	t.pendingInternal = t.pendingInternal[:0]

	var err error
	if t.log != nil {
		at, err = t.logUndoImages(at, pages, g)
		if err != nil {
			return at, err
		}
	}
	ids := make([]pagefile.PageID, len(pages))
	bufs := make([][]byte, len(pages))
	for i, p := range pages {
		ids[i] = p.id
		bufs[i] = p.buf
	}
	at, err = t.psyncWritePages(at, ids, bufs, g)
	if err != nil {
		return at, err
	}
	for _, p := range pages {
		t.pool.InsertClean(p.id, p.buf)
	}
	return at, nil
}

// logUndoImages appends a flush undo log (pre-image) for every page about
// to be overwritten and forces the WAL (write-ahead rule).
func (t *Tree) logUndoImages(at vtime.Ticks, pages []pendingPage, g *groupIO) (vtime.Ticks, error) {
	for _, p := range pages {
		pre := make([]byte, t.cfg.PageSize)
		if err := t.pf.ReadPageNoCost(p.id, pre); err != nil {
			// A freshly allocated page has no pre-image worth keeping, but
			// ReadPageNoCost succeeds for any allocated page; real errors
			// propagate.
			return at, err
		}
		t.log.Append(wal.Record{
			Kind:     wal.KindFlushUndo,
			Relation: t.cfg.Relation,
			FlushID:  t.flushID,
			NodeID:   int64(p.id),
			UndoInfo: pre,
		})
	}
	return t.forceWAL(at, g)
}
