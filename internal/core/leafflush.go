package core

import (
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// flushLeaves applies one PioMax-bounded group of per-leaf entry batches
// (the leaf level of Algorithm 2, with the Algorithm 3 updateNode: append
// to the last LS, shrink when full, split when still full). It returns,
// per group in input order, the fence records produced for the parent.
//
// I/O plan per group:
//  1. one psync batch reading the last LS of every leaf (LSMap hit: one
//     page; miss: the back half of the leaf, the paper's fallback);
//  2. for leaves whose append would overflow, a second psync batch reading
//     the remaining front segments so the shrink sees the whole leaf;
//  3. one psync batch writing the touched segments (appends: the last LS
//     and any newly opened segment; shrinks/splits: whole leaves).
func (t *Tree) flushLeaves(at vtime.Ticks, groups []leafGroup, g *groupIO) ([][]fenceRec, vtime.Ticks, error) {
	ps := t.cfg.PageSize

	// Phase 1: read the tail of every leaf.
	type leafState struct {
		group    int
		id       pagefile.PageID
		firstSeg int // first segment actually read
		leaf     *leafNode
		entries  []kv.Entry
	}
	states := make([]*leafState, len(groups))
	ids := make([]pagefile.PageID, len(groups))
	firstSegs := make([]int, len(groups))
	uptos := make([]int, len(groups))
	bufs := make([][]byte, len(groups))
	for i, lg := range groups {
		lastLS, hit := t.lastLSOf(lg.id)
		first := lastLS
		if !hit {
			// LSMap miss: read the whole leaf.
			first = 0
			lastLS = t.cfg.LeafSegs - 1
		}
		states[i] = &leafState{group: i, id: lg.id, firstSeg: first, entries: lg.entries}
		ids[i] = lg.id + pagefile.PageID(first)
		firstSegs[i] = first
		uptos[i] = lastLS - first
		bufs[i] = make([]byte, (lastLS-first+1)*ps)
	}
	at, err := t.psyncReadRuns(at, ids, uptos, bufs)
	if err != nil {
		return nil, at, err
	}

	// Decode the tails: reconstruct a partial leaf view. Entries before
	// firstSeg are unknown but their count is implied (segments fill in
	// order, so segments < lastSeg are full).
	for i, st := range states {
		tail, err := decodeTail(st.id, bufs[i], ps, t.cfg.LeafSegs, st.firstSeg)
		if err != nil {
			return nil, at, err
		}
		st.leaf = tail
	}

	// Phase 2: identify leaves that need their front segments (append
	// would overflow => shrink path needs the full leaf; also LSMap-miss
	// leaves whose base region extends before the back half are needed
	// for nothing else — appends never touch the front). Under the
	// sorted-leaves ablation every updated leaf is rewritten in full, so
	// every partial view is upgraded.
	var frontIDs []pagefile.PageID
	var frontUpto []int
	var frontBufs [][]byte
	var frontStates []*leafState
	for _, st := range states {
		total := st.leaf.totalCount(ps)
		if (t.cfg.SortedLeaves || total+len(st.entries) > t.LeafCapacity()) && st.firstSeg > 0 {
			frontIDs = append(frontIDs, st.id)
			frontUpto = append(frontUpto, st.firstSeg-1)
			frontBufs = append(frontBufs, make([]byte, st.firstSeg*ps))
			frontStates = append(frontStates, st)
		}
	}
	if len(frontIDs) > 0 {
		at, err = t.psyncReadRuns(at, frontIDs, frontUpto, frontBufs)
		if err != nil {
			return nil, at, err
		}
		for i, st := range frontStates {
			if err := st.leaf.fillFront(frontBufs[i], ps, st.firstSeg); err != nil {
				return nil, at, err
			}
			st.firstSeg = 0
		}
	}

	// Phase 3: apply entries and build the write set.
	fences := make([][]fenceRec, len(groups))
	var writes []pagefile.RunReq
	var undoPages []pendingPage
	for _, st := range states {
		total := st.leaf.totalCount(ps)
		if !t.cfg.SortedLeaves && total+len(st.entries) <= t.LeafCapacity() {
			// Append-only path (Algorithm 3 line 4): entries go to the
			// last LS; only the touched segments are written.
			w, err := t.appendToLeaf(st.leaf, st.entries)
			if err != nil {
				return nil, at, err
			}
			writes = append(writes, w...)
			t.stats.LeafAppends++
			continue
		}
		// Shrink path: the leaf is full; we hold the whole leaf now
		// (firstSeg forced to 0 in phase 2 for multi-segment leaves;
		// single-segment leaves are always whole).
		fs, w, err := t.shrinkAndSplit(st.leaf, st.entries)
		if err != nil {
			return nil, at, err
		}
		fences[st.group] = append(fences[st.group], fs...)
		writes = append(writes, w...)
	}

	// WAL: undo images of every page about to be overwritten.
	if t.log != nil {
		for _, w := range writes {
			for s := 0; s < w.N; s++ {
				pre := make([]byte, ps)
				if err := t.pf.ReadPageNoCost(w.First+pagefile.PageID(s), pre); err != nil {
					return nil, at, err
				}
				undoPages = append(undoPages, pendingPage{id: w.First + pagefile.PageID(s), buf: pre})
			}
		}
		for _, p := range undoPages {
			t.log.Append(wal.Record{
				Kind:     wal.KindFlushUndo,
				Relation: t.cfg.Relation,
				FlushID:  t.flushID,
				NodeID:   int64(p.id),
				UndoInfo: p.buf,
			})
		}
		at, err = t.forceWAL(at, g)
		if err != nil {
			return nil, at, err
		}
	}

	at, err = t.psyncWriteRuns(at, writes, g)
	if err != nil {
		return nil, at, err
	}
	// Keep the pool coherent for single-page leaves: refresh (or install)
	// the written pages as clean frames.
	if t.cfg.LeafSegs == 1 {
		for _, w := range writes {
			t.pool.InsertClean(w.First, w.Buf)
		}
	}
	return fences, at, nil
}

// appendToLeaf appends entries to the leaf's log and returns the page
// writes covering the touched segments. The leaf view may be partial
// (segments before firstSeg unknown); appends never need them.
func (t *Tree) appendToLeaf(l *leafNode, entries []kv.Entry) ([]pagefile.RunReq, error) {
	ps := t.cfg.PageSize
	startIdx := l.totalCount(ps)
	firstTouched := segOf(ps, startIdx)
	l.appendEntries(entries)
	endIdx := l.totalCount(ps) - 1
	lastTouched := segOf(ps, endIdx)
	nseg := lastTouched - firstTouched + 1
	buf := make([]byte, nseg*ps)
	for s := firstTouched; s <= lastTouched; s++ {
		if err := l.encodeSeg(buf[(s-firstTouched)*ps:(s-firstTouched+1)*ps], s); err != nil {
			return nil, err
		}
	}
	writes := []pagefile.RunReq{{
		First: l.id + pagefile.PageID(firstTouched),
		N:     nseg,
		Buf:   buf,
		Write: true,
	}}
	t.lsmap.Set(int64(l.id), lastTouched)
	return writes, nil
}

// shrinkAndSplit rebuilds a full leaf from its live records and, if still
// overfull, splits it into sibling leaves. It returns the parent fence
// records and the whole-leaf writes.
func (t *Tree) shrinkAndSplit(l *leafNode, entries []kv.Entry) ([]fenceRec, []pagefile.RunReq, error) {
	ps := t.cfg.PageSize
	l.entries = append(l.entries, entries...)
	l.shrink()
	t.stats.Shrinks++

	half := t.LeafCapacity() / 2
	if half < 1 {
		half = 1
	}
	var fences []fenceRec
	var writes []pagefile.RunReq
	if len(l.entries) <= t.LeafCapacity() {
		writes = append(writes, t.wholeLeafWrite(l)...)
		t.lsmap.Set(int64(l.id), l.lastSeg(ps))
		return nil, writes, nil
	}
	// Split into chunks of `half` entries (multi-split for huge batches).
	all := l.entries
	l.entries = append([]kv.Entry(nil), all[:half]...)
	l.sorted = len(l.entries)
	rest := all[half:]
	involved := []*leafNode{l}
	prev := l
	for len(rest) > 0 {
		n := half
		if n > len(rest) {
			n = len(rest)
		}
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
		writes = append(writes, t.wholeLeafWrite(n)...)
		t.lsmap.Set(int64(n.id), n.lastSeg(ps))
	}
	return fences, writes, nil
}

// wholeLeafWrite encodes all segments of a leaf as one run write.
func (t *Tree) wholeLeafWrite(l *leafNode) []pagefile.RunReq {
	ps := t.cfg.PageSize
	buf := make([]byte, l.segs*ps)
	if err := l.encodeAll(buf, ps); err != nil {
		// encodeAll fails only on programmer error (overflow already
		// prevented by the split loop).
		panic(err)
	}
	return []pagefile.RunReq{{First: l.id, N: l.segs, Buf: buf, Write: true}}
}
