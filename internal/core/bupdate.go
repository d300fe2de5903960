package core

import (
	"errors"

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

// deferWrites gathers write runs into a group flush's data gang.
// Their buffers are in the flush arena, which keeps them until the tree's
// next flushBatch, and g.reqs grows in the tree's reused slice.
func (t *Tree) deferWrites(g *groupIO, runs []pagefile.RunReq) error {
	t.stats.GangedWrites++
	reqs, err := t.pf.GatherRuns(g.reqs, runs)
	if err != nil {
		return err
	}
	g.reqs, t.flush.reqs = reqs, reqs
	return nil
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
	reqs := t.scratch.runs[:0]
	for j, id := range ids {
		reqs = append(reqs, pagefile.RunReq{First: id, N: upto[j] + 1, Buf: bufs[j]})
	}
	t.scratch.runs = reqs
	at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncRuns(at, reqs)
	})
	clear(reqs) // let go of the caller's buffers
	return at, err
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

// fenceRec is a fence-key record propagated to a parent after a leaf or
// internal split (the paper's Kf).
type fenceRec struct {
	key   kv.Key
	child pagefile.PageID
}

// FlushBatch runs one batch update (Algorithm 2/3) over up to bcnt OPQ
// entries (<= 0 processes the whole queue): the paper's OPQ flush, with
// every write submitted as it is planned. Only a tree without a WAL
// flushes this way. A logged tree's flush is a group commit, and its
// forest runs it, a group of one included; FlushBatch rejects such a tree.
func (t *Tree) FlushBatch(at vtime.Ticks, bcnt int) (vtime.Ticks, error) {
	if t.log != nil {
		return at, errors.New("core: a logged tree flushes only as a member of its forest's group commit")
	}
	return t.flushBatch(at, bcnt, nil)
}

// flushBatch is FlushBatch, run inline when g is nil (a tree without a
// WAL) and as a member of a forest group flush otherwise: the data writes
// wait in g for the group's data gang, the log records wait in the tail
// for the coordinator's prepare force, and the FlushEnd record waits in g
// for its commit force. Every buffer the flush reads or writes is in the
// flush arena, reset here.
func (t *Tree) flushBatch(at vtime.Ticks, bcnt int, g *groupIO) (vtime.Ticks, error) {
	batch := t.opq.takeBatch(bcnt)
	if len(batch) == 0 {
		return at, nil
	}
	t.stats.Flushes++
	t.applied += netOps(batch)
	fs := &t.flush
	fs.arena.reset()
	if n := t.height - len(fs.levels); n > 0 {
		fs.levels = append(fs.levels, make([]levelScratch, n)...)
	}
	if g != nil {
		g.reqs = fs.reqs[:0]
	}
	var flushID uint64
	if t.log != nil {
		t.flushID++
		flushID = t.flushID
		m := t.log.AppendMark(wal.Record{
			Kind:     wal.KindFlushStart,
			Relation: t.cfg.Relation,
			FlushID:  flushID,
			KeyLo:    batch[0].Rec.Key,
			KeyHi:    batch[len(batch)-1].Rec.Key,
		})
		t.lowWater.startFlush(m, t.opq.Len() == 0)
	}
	var fences []fenceRec
	var err error
	if t.height == 1 {
		// Root is a leaf.
		work := append(fs.levels[0].work[:0], childWork{id: t.root, entries: batch})
		fs.levels[0].work = work
		at, err = t.flushLeaves(at, work, g)
		fences = work[0].fences
	} else {
		fences, at, err = t.bupdate(at, t.root, t.height-1, batch, g)
	}
	if err != nil {
		return at, err
	}
	at, err = t.growRoot(at, t.root, t.height-1, fences, g)
	if err != nil {
		return at, err
	}
	if t.log != nil {
		// The FlushEnd must not become durable before the group's data
		// writes, which wait in the coordinator's gang: the coordinator
		// appends and forces it after the data submission.
		g.end = wal.Record{
			Kind:     wal.KindFlushEnd,
			Relation: t.cfg.Relation,
			FlushID:  flushID,
			KeyLo:    batch[0].Rec.Key,
			KeyHi:    batch[len(batch)-1].Rec.Key,
		}
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
			at, err = t.writeInternal(at, n, g)
			if err != nil {
				return at, err
			}
			oldRoot, rootLevel, fences = n.id, n.level, up
			t.root = n.id
			t.height = rootLevel + 1
			continue
		}
		at, err = t.writeInternal(at, n, g)
		if err != nil {
			return at, err
		}
		t.root = n.id
		t.height = n.level + 1
		return at, nil
	}
	return at, nil
}

// childWork routes a key-sorted run of a batch to one child of a node; the
// child's flush leaves the fence records for the node in fences.
type childWork struct {
	idx     int // the child's index in the node
	id      pagefile.PageID
	entries []kv.Entry
	fences  []fenceRec
}

// bupdate descends from node id at the given level, routing the key-sorted
// batch to children, recursing in PioMax-bounded groups, applying returned
// fence records, splitting as needed, and writing updated internal nodes
// via psync. It returns the fence records for the caller's level. The node
// and its work are the level's scratch: a level's bupdate returns before
// the next one at that level starts.
func (t *Tree) bupdate(at vtime.Ticks, id pagefile.PageID, level int, batch []kv.Entry, g *groupIO) ([]fenceRec, vtime.Ticks, error) {
	sc := &t.flush.levels[level]
	sc.id[0] = id
	at, err := t.readInternalBatch(at, sc.id[:], func(_ int, v internalView) { v.decodeInto(&sc.node, id) })
	if err != nil {
		return nil, at, err
	}
	n := &sc.node

	// Partition batch among children.
	work := sc.work[:0]
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
	sc.work = work

	// Process children; each leaves its fences in its work item.
	if level == 1 {
		// Children are leaves: flush them in PioMax-bounded groups.
		pm := t.cfg.pioMax()
		for i := 0; i < len(work); i += pm {
			if at, err = t.flushLeaves(at, work[i:min(i+pm, len(work))], g); err != nil {
				return nil, at, err
			}
		}
	} else {
		for i := range work {
			w := &work[i]
			if w.fences, at, err = t.bupdate(at, w.id, level-1, w.entries, g); err != nil {
				return nil, at, err
			}
		}
	}

	// Apply fence records: insert (key, child) pairs after each split
	// child, in child order.
	nf := 0
	for _, w := range work {
		nf += len(w.fences)
	}
	if nf > 0 {
		newKeys := make([]kv.Key, 0, len(n.keys)+nf)
		newChildren := make([]pagefile.PageID, 0, len(n.children)+nf)
		w := work
		for ci, child := range n.children {
			if ci > 0 {
				newKeys = append(newKeys, n.keys[ci-1])
			}
			newChildren = append(newChildren, child)
			for ; len(w) > 0 && w[0].idx == ci; w = w[1:] {
				for _, f := range w[0].fences {
					newKeys = append(newKeys, f.key)
					newChildren = append(newChildren, f.child)
				}
			}
		}
		n.keys, n.children = newKeys, newChildren
	}

	var up []fenceRec
	if len(n.keys) > maxInternalKeys(t.cfg.PageSize) {
		var err error
		n, up, err = t.splitInternalMulti(n)
		if err != nil {
			return nil, at, err
		}
	}
	// Every visited node is rewritten, whether or not a child split.
	at, err = t.writeInternal(at, n, g)
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
	// Encode the new right siblings; the caller's writeInternal writes
	// them with the node itself, in one psync call.
	for _, r := range rights {
		buf := t.flush.arena.take(t.cfg.PageSize)
		if err := r.encode(buf); err != nil {
			return nil, nil, err
		}
		t.pendingInternal = append(t.pendingInternal, pagefile.RunReq{First: r.id, N: 1, Buf: buf, Write: true})
	}
	return n, fences, nil
}

// writeInternal writes internal node n plus any pending split siblings in
// one psync call (or defers them into the group's data gang), logging undo
// images first when a WAL is attached, and refreshes the buffer pool
// copies.
func (t *Tree) writeInternal(at vtime.Ticks, n *internalNode, g *groupIO) (vtime.Ticks, error) {
	buf := t.flush.arena.take(t.cfg.PageSize)
	if err := n.encode(buf); err != nil {
		return at, err
	}
	writes := append(t.flush.writes[:0], pagefile.RunReq{First: n.id, N: 1, Buf: buf, Write: true})
	writes = append(writes, t.pendingInternal...)
	t.pendingInternal = t.pendingInternal[:0]
	t.flush.writes = writes

	var err error
	if t.log != nil {
		if err = t.logUndo(writes); err != nil {
			return at, err
		}
	}
	if at, err = t.psyncWriteRuns(at, writes, g); err != nil {
		return at, err
	}
	for _, w := range writes {
		t.pool.InsertClean(w.First, w.Buf)
	}
	return at, nil
}
