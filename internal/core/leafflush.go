package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// leafFlush is one leaf's part in flushLeaves, over flush-arena bytes.
type leafFlush struct {
	first int    // the first segment read
	run   []byte // the segments read, first on
	total int    // the leaf's entries; the segments before first are full
	front []byte // segments [0, first), read for the shrink arm
}

// flushLeaves applies one PioMax-bounded group of per-leaf entry batches
// (the leaf level of Algorithm 2, with the Algorithm 3 updateNode: append
// to the last LS, shrink when full, split when still full), leaving each
// leaf's fence records for the parent in its work item.
//
// I/O plan per group:
//  1. one psync batch reading the last LS of every leaf (LSMap hit: one
//     page; miss: the whole leaf);
//  2. one psync batch reading, for each leaf the shrink arm takes whose
//     first read missed segments, those front segments: the shrink needs
//     the whole leaf;
//  3. one psync batch writing the touched segments (appends: the last LS
//     and any newly opened segment; shrinks/splits: whole leaves).
//
// The append arm edits the encoded segments where phase 1 read them and
// writes them from there; only the shrink arm decodes a leaf.
func (t *Tree) flushLeaves(at vtime.Ticks, work []childWork, g *groupIO) (vtime.Ticks, error) {
	ps, segs, c, fs := t.cfg.PageSize, t.cfg.LeafSegs, segCap(t.cfg.PageSize), &t.flush
	leaves := slices.Grow(fs.leaves[:0], len(work))[:len(work)]
	fs.leaves = leaves

	// Phase 1: read the tail of every leaf.
	ids, upto, bufs := fs.ids[:0], fs.upto[:0], fs.bufs[:0]
	for i, w := range work {
		lastLS, hit := t.lastLSOf(w.id)
		first := lastLS
		if !hit {
			first, lastLS = 0, segs-1
		}
		lf := &leaves[i]
		*lf = leafFlush{first: first, run: fs.arena.take((lastLS - first + 1) * ps)}
		ids = append(ids, w.id+pagefile.PageID(first))
		upto = append(upto, lastLS-first)
		bufs = append(bufs, lf.run)
	}
	fs.ids, fs.upto, fs.bufs = ids, upto, bufs
	at, err := t.psyncReadRuns(at, ids, upto, bufs)
	if err != nil {
		return at, err
	}
	for i := range leaves {
		lf := &leaves[i]
		n, err := segCount(work[i].id, lf.run, ps, lf.first)
		if err != nil {
			return at, err
		}
		lf.total = lf.first*c + n
	}

	// Phase 2: the front segments of every leaf the shrink arm takes.
	ids, upto, bufs = ids[:0], upto[:0], bufs[:0]
	for i := range leaves {
		if lf := &leaves[i]; lf.first > 0 && t.shrinks(lf.total, len(work[i].entries)) {
			lf.front = fs.arena.take(lf.first * ps)
			ids = append(ids, work[i].id)
			upto = append(upto, lf.first-1)
			bufs = append(bufs, lf.front)
		}
	}
	fs.ids, fs.upto, fs.bufs = ids, upto, bufs
	if len(ids) > 0 {
		if at, err = t.psyncReadRuns(at, ids, upto, bufs); err != nil {
			return at, err
		}
		for i := range leaves {
			lf, id := &leaves[i], work[i].id
			if lf.front == nil {
				continue
			}
			n, err := segCount(id, lf.front, ps, 0)
			if err != nil {
				return at, err
			}
			if n != lf.first*c {
				// segCount stopped at segment n/c, which holds n%c entries.
				return at, fmt.Errorf("core: leaf %d seg %d: front segment not full (%d)", id, n/c, n%c)
			}
		}
	}

	// Phase 3: apply the entries and build the write set.
	writes := fs.writes[:0]
	for i := range leaves {
		lf, w := &leaves[i], &work[i]
		if !t.shrinks(lf.total, len(w.entries)) {
			// Append-only path (Algorithm 3 line 4): the entries go to the
			// last LS, edited where it was read; only the touched segments
			// are written.
			run, first := lf.run, lf.first
			if hi := segOf(ps, lf.total+len(w.entries)-1); hi >= first+len(run)/ps {
				// The append opens segments past the ones read: the touched
				// segment it read moves to a run with room for them.
				lo := lf.total / c
				run, first = fs.arena.take((hi-lo+1)*ps), lo
				copy(run, lf.run[(lo-lf.first)*ps:])
			}
			lo, hi := appendRun(run, ps, first, lf.total, w.entries)
			writes = append(writes, pagefile.RunReq{
				First: w.id + pagefile.PageID(lo),
				N:     hi - lo + 1,
				Buf:   run[(lo-first)*ps : (hi-first+1)*ps],
				Write: true,
			})
			t.lsmap.Set(int64(w.id), hi)
			t.stats.LeafAppends++
			continue
		}
		w.fences, writes = t.shrinkAndSplit(t.wholeLeaf(w.id, lf), w.entries, writes)
	}
	fs.writes = writes

	if t.log != nil {
		if err = t.logUndo(writes); err != nil {
			return at, err
		}
	}
	if at, err = t.psyncWriteRuns(at, writes, g); err != nil {
		return at, err
	}
	// Keep the pool coherent for single-page leaves: refresh (or install)
	// the written pages as clean frames.
	if segs == 1 {
		for _, w := range writes {
			t.pool.InsertClean(w.First, w.Buf)
		}
	}
	return at, nil
}

// shrinks reports whether a leaf of total entries takes the shrink arm
// for n more: it would overflow, or the sorted-leaves ablation rewrites
// every leaf it updates.
func (t *Tree) shrinks(total, n int) bool {
	return t.cfg.SortedLeaves || total+n > t.leafCapacity()
}

// wholeLeaf decodes, for the shrink arm, the leaf whose segments lf holds
// (phase 2 read its front) into the tree's reused leafNode.
func (t *Tree) wholeLeaf(id pagefile.PageID, lf *leafFlush) *leafNode {
	ps, c := t.cfg.PageSize, segCap(t.cfg.PageSize)
	seg0 := lf.run
	if lf.first > 0 {
		seg0 = lf.front
	}
	l := &t.flush.leaf
	*l = leafNode{
		id:      id,
		segs:    t.cfg.LeafSegs,
		sorted:  int(binary.LittleEndian.Uint32(seg0[4:])),
		next:    pagefile.PageID(binary.LittleEndian.Uint64(seg0[8:])),
		entries: appendSegEntries(l.entries[:0], lf.front, lf.first*c, ps),
	}
	l.entries = appendSegEntries(l.entries, lf.run, lf.total-lf.first*c, ps)
	return l
}

// shrinkAndSplit rebuilds a full leaf from its live records and, if still
// overfull, splits it into sibling leaves. It returns the parent fence
// records and writes with the whole-leaf writes appended.
func (t *Tree) shrinkAndSplit(l *leafNode, entries []kv.Entry, writes []pagefile.RunReq) ([]fenceRec, []pagefile.RunReq) {
	ps := t.cfg.PageSize
	l.entries = append(l.entries, entries...)
	l.shrink()
	t.stats.Shrinks++

	half := t.leafCapacity() / 2
	if half < 1 {
		half = 1
	}
	if len(l.entries) <= t.leafCapacity() {
		t.lsmap.Set(int64(l.id), l.lastSeg(ps))
		return nil, append(writes, t.wholeLeafWrite(l))
	}
	// Split into chunks of `half` entries (multi-split for huge batches).
	var fences []fenceRec
	all := l.entries
	l.entries = all[:half]
	l.sorted = len(l.entries)
	rest := all[half:]
	involved := []*leafNode{l}
	prev := l
	for len(rest) > 0 {
		n := min(half, len(rest))
		sib := &leafNode{id: t.allocLeaf(), segs: t.cfg.LeafSegs}
		sib.entries = append(sib.entries, rest[:n]...)
		sib.sorted = len(sib.entries)
		rest = rest[n:]
		sib.next = prev.next
		prev.next = sib.id
		fences = append(fences, fenceRec{key: sib.minKey(), child: sib.id})
		t.stats.LeafSplits++
		involved = append(involved, sib)
		prev = sib
	}
	for _, n := range involved {
		writes = append(writes, t.wholeLeafWrite(n))
		t.lsmap.Set(int64(n.id), n.lastSeg(ps))
	}
	return fences, writes
}

// wholeLeafWrite encodes all segments of a leaf into the flush arena as
// one run write.
func (t *Tree) wholeLeafWrite(l *leafNode) pagefile.RunReq {
	buf := t.flush.arena.take(l.segs * t.cfg.PageSize)
	if err := l.encodeAll(buf, t.cfg.PageSize); err != nil {
		// encodeAll fails only on programmer error (overflow already
		// prevented by the split loop).
		panic(err)
	}
	return pagefile.RunReq{First: l.id, N: l.segs, Buf: buf, Write: true}
}

// logUndo appends a flush undo record — the page's pre-image — for every
// page the runs are about to overwrite. The group's prepare force makes
// them durable before its data gang writes any page (the write-ahead
// rule). The pre-images pass through one page: Append copies each record
// into the log's tail.
func (t *Tree) logUndo(runs []pagefile.RunReq) error {
	for _, r := range runs {
		for s := 0; s < r.N; s++ {
			id := r.First + pagefile.PageID(s)
			if err := t.pf.ReadPageNoCost(id, t.buf); err != nil {
				return err
			}
			t.log.Append(wal.Record{
				Kind:     wal.KindFlushUndo,
				Relation: t.cfg.Relation,
				FlushID:  t.flushID,
				NodeID:   int64(id),
				UndoInfo: t.buf,
			})
		}
	}
	return nil
}
