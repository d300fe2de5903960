package core

import (
	"fmt"

	"repro/internal/bufferpool"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// RecoveryReport summarizes what Recover did.
type RecoveryReport struct {
	// UndoneFlushes counts incomplete flushes rolled back.
	UndoneFlushes int
	// UndoPagesApplied counts node pre-images restored.
	UndoPagesApplied int
	// RedoneEntries counts logical redo records replayed into the OPQ.
	RedoneEntries int
	// SkippedEntries counts redo records covered by completed flushes.
	SkippedEntries int
}

// Recover implements the paper's crash-recovery procedure (Section 3.4)
// for this index relation:
//
//  1. scan the durable log; pair FlushStart/FlushEnd records;
//  2. undo phase (before redo, as the paper specifies): for every
//     incomplete flush, restore the pre-images from its flush undo logs in
//     reverse order;
//  3. redo phase: replay logical redo logs into the OPQ, skipping records
//     that fall inside the key range of a completed flush that followed
//     them (logical redo is not idempotent);
//  4. checkpoint records clear everything before them.
//
// The tree's in-memory OPQ is rebuilt; structural state (root, height) is
// taken from meta, which the caller persists separately (the experiments
// snapshot it; a full DBMS would keep it in the catalog).
func (t *Tree) Recover(at vtime.Ticks) (RecoveryReport, vtime.Ticks, error) {
	if t.log == nil {
		return RecoveryReport{}, at, fmt.Errorf("core: Recover called without a WAL attached")
	}
	recs, at, err := t.readDurableRecords(at)
	if err != nil {
		return RecoveryReport{}, at, err
	}
	return t.recoverFrom(at, recs)
}

// readDurableRecords scans the durable WAL with the read I/O charged on
// the vtime clock (recovery used to replay for free), retrying transient
// faults like any other read.
func (t *Tree) readDurableRecords(at vtime.Ticks) ([]wal.Record, vtime.Ticks, error) {
	var recs []wal.Record
	at, err := t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		var rerr error
		recs, at, rerr = t.log.RecordsTimed(at)
		return at, rerr
	})
	return recs, at, err
}

// recoverFrom replays durable log records already scanned by
// readDurableRecords: the replay half of both Recover and
// rollbackToDurable.
func (t *Tree) recoverFrom(at vtime.Ticks, recs []wal.Record) (RecoveryReport, vtime.Ticks, error) {
	var rep RecoveryReport
	if t.log == nil {
		return rep, at, fmt.Errorf("core: Recover called without a WAL attached")
	}
	// Only this relation's records matter.
	var mine []wal.Record
	for _, r := range recs {
		if r.Relation == t.cfg.Relation {
			mine = append(mine, r)
		}
	}
	// Cut at the last checkpoint: everything before is fully flushed.
	start := 0
	for i, r := range mine {
		if r.Kind == wal.KindCheckpoint {
			start = i + 1
		}
	}
	mine = mine[start:]

	// Pair flushes.
	completed := map[uint64][2]kv.Key{} // flushID -> [lo,hi]
	started := map[uint64]bool{}
	for _, r := range mine {
		switch r.Kind {
		case wal.KindFlushStart:
			started[r.FlushID] = true
		case wal.KindFlushEnd:
			if started[r.FlushID] {
				completed[r.FlushID] = [2]kv.Key{r.KeyLo, r.KeyHi}
				delete(started, r.FlushID)
			}
		}
	}

	// Undo phase: roll back incomplete flushes (pre-images in reverse).
	for i := len(mine) - 1; i >= 0; i-- {
		r := mine[i]
		if r.Kind != wal.KindFlushUndo || !started[r.FlushID] {
			continue
		}
		if len(r.UndoInfo) != t.cfg.PageSize {
			return rep, at, fmt.Errorf("core: flush undo for page %d has %d bytes", r.NodeID, len(r.UndoInfo))
		}
		// One timed page write both restores the pre-image and charges the
		// undo's device cost. Pre-image writes are idempotent, so retrying
		// a transient fault is safe.
		var werr error
		at, werr = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
			return t.pf.WritePage(at, pagefile.PageID(r.NodeID), r.UndoInfo)
		})
		if werr != nil {
			return rep, at, werr
		}
		t.pool.Invalidate(pagefile.PageID(r.NodeID))
		rep.UndoPagesApplied++
	}
	rep.UndoneFlushes = len(started)

	// Redo phase: rebuild the OPQ from logical redo logs. A record is
	// skipped when a completed flush that STARTED AFTER the record was
	// logged covers its key (the flush consumed it). A single backward
	// sweep accumulates the completed-flush key ranges lying ahead of
	// each position, so replay costs O(records x completed flushes)
	// instead of rescanning the log tail per redo record.
	type keyRange struct{ lo, hi kv.Key }
	skip := make([]bool, len(mine))
	var ahead []keyRange
	for i := len(mine) - 1; i >= 0; i-- {
		r := mine[i]
		switch r.Kind {
		case wal.KindLogicalRedo:
			for _, kr := range ahead {
				if r.Key >= kr.lo && r.Key <= kr.hi {
					skip[i] = true
					break
				}
			}
		case wal.KindFlushStart:
			if rng, ok := completed[r.FlushID]; ok {
				ahead = append(ahead, keyRange{lo: rng[0], hi: rng[1]})
			}
		}
	}
	budget := t.opq.Cap()
	t.opq.Reset()
	t.count = 0
	for i, r := range mine {
		if r.Kind != wal.KindLogicalRedo {
			continue
		}
		if skip[i] {
			rep.SkippedEntries++
			continue
		}
		e := kv.Entry{Rec: kv.Record{Key: r.Key, Value: r.Value}, Op: kv.Op(r.Op)}
		if t.opq.Full() {
			// A quarantined shard appends compensation records (migration
			// purges, stranded copies) to its tail but can never flush, so
			// the durable redo stream may legitimately exceed the OPQ
			// budget. Flushing mid-replay would let the new flush's key
			// range cover not-yet-replayed records and lose them on the
			// NEXT recovery, so grow the queue instead and drain it with a
			// regular flush once the replay is complete.
			grown, gerr := NewOPQ(t.opq.Cap()*2, t.cfg.SPeriod)
			if gerr != nil {
				return rep, at, gerr
			}
			for _, pe := range t.opq.Entries() {
				if gerr := grown.Append(pe); gerr != nil {
					return rep, at, gerr
				}
			}
			t.opq = grown
		}
		if err := t.opq.Append(e); err != nil {
			return rep, at, err
		}
		rep.RedoneEntries++
	}
	// Recompute the logical count from disk plus the rebuilt OPQ.
	if err := t.recountNoCost(); err != nil {
		return rep, at, err
	}
	if t.opq.Len() > budget {
		// Bring the queue back under its configured budget. This flush
		// consumes every replayed entry in its range, so the covered-skip
		// rule holds for it like for any foreground flush; on a failure
		// (the device is still faulty) the whole replay fails and the
		// caller keeps the shard offline.
		var ferr error
		at, ferr = t.FlushBatch(at, 0)
		if ferr != nil {
			return rep, at, ferr
		}
	}
	// The tree now reflects exactly the durable log: a new rollback
	// baseline for quarantine recovery.
	t.commitDurableMeta()
	return rep, at, nil
}

// recountNoCost recomputes t.count by walking the tree and overlaying the
// OPQ (recovery bookkeeping; no simulated I/O).
func (t *Tree) recountNoCost() error {
	var total int64
	var walk func(id pagefile.PageID, level int) error
	walk = func(id pagefile.PageID, level int) error {
		if level == 0 {
			l, err := t.readWholeLeafNoCost(id)
			if err != nil {
				return err
			}
			total += int64(len(l.liveRecords()))
			return nil
		}
		buf := make([]byte, t.cfg.PageSize)
		if err := t.pf.ReadPageNoCost(id, buf); err != nil {
			return err
		}
		n, err := decodeInternal(id, buf)
		if err != nil {
			return err
		}
		for _, c := range n.children {
			if err := walk(c, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height-1); err != nil {
		return err
	}
	for _, e := range t.opq.Entries() {
		switch e.Op {
		case kv.OpInsert:
			total++
		case kv.OpDelete:
			total--
		}
	}
	t.count = total
	return nil
}

// Meta captures the structural state that a DBMS catalog would persist.
type Meta struct {
	Root   pagefile.PageID
	Height int
	Count  int64
}

// Snapshot returns the current structural state.
func (t *Tree) Snapshot() Meta {
	return Meta{Root: t.root, Height: t.height, Count: t.count}
}

// RestoreMeta resets the structural state (crash-recovery tests restore
// the pre-crash durable snapshot, then call Recover).
func (t *Tree) RestoreMeta(m Meta) {
	t.root = m.Root
	t.height = m.Height
	t.count = m.Count
}

// CrashVolatileState simulates a crash: the OPQ, LSMap and buffer pool
// contents vanish; only the simulated SSD (pagefile + forced WAL) remains.
func (t *Tree) CrashVolatileState() {
	t.dropVolatile()
	if t.log != nil {
		t.log.Crash()
	}
}

// dropVolatile discards the tree's volatile state (OPQ, LSMap, pending
// internal updates, buffer pool) WITHOUT touching the WAL tail. Quarantine
// rollback uses this: the unforced tail may hold compensation records (an
// aborted migration's purges) that a heal must still force, so only a
// real crash may drop it.
func (t *Tree) dropVolatile() {
	if fresh, err := NewOPQ(t.opq.Cap(), t.cfg.SPeriod); err == nil {
		t.opq = fresh
	} else {
		t.opq.Reset()
	}
	t.lsmap = NewLSMap(t.cfg.LeafSegs)
	t.pendingInternal = nil
	if pool, err := bufferpool.New(t.pf, t.pool.Capacity(), bufferpool.WriteThrough); err == nil {
		t.pool = pool
	}
}

// rollbackToDurable rewinds the tree to its last committed state after a
// failure mid-operation: restore the durable structural snapshot,
// discard all volatile state, then replay the durable log — the same
// procedure as crash recovery, minus the crash. At the moments this runs
// (retry exhaustion inside a flush or migration) the tree's own durable
// records describe exactly the committed state, so the replay converges.
func (t *Tree) rollbackToDurable(at vtime.Ticks) (vtime.Ticks, error) {
	if t.log == nil {
		return at, fmt.Errorf("core: rollbackToDurable requires a WAL")
	}
	t.RestoreMeta(t.durableMeta)
	t.dropVolatile()
	recs, at, err := t.readDurableRecords(at)
	if err != nil {
		return at, err
	}
	_, at, err = t.recoverFrom(at, recs)
	return at, err
}
