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

// recover implements the paper's crash-recovery procedure (Section 3.4)
// for this index relation:
//
//  1. scan the durable log; pair FlushStart/FlushEnd records;
//  2. undo phase (before redo, as the paper specifies): for every
//     incomplete flush, restore the pre-images from its flush undo logs in
//     reverse order, then close it with a FlushAbort record, so no later
//     replay undoes it again over pages a later flush wrote;
//  3. redo phase: replay logical redo logs into the OPQ, skipping records
//     that fall inside the key range of a completed flush that followed
//     them (logical redo is not idempotent);
//  4. checkpoint records clear everything before them.
//
// The log is read with its I/O charged on the vtime clock, retrying
// transient faults like any other read. The tree's in-memory OPQ is
// rebuilt; the Meta state (root, height, applied) is the caller's, which
// it persists separately (the experiments snapshot it; a full DBMS would
// keep it in the catalog). Recovery reads the log alone: it never walks
// the tree.
func (t *Tree) recover(at vtime.Ticks) (RecoveryReport, vtime.Ticks, error) {
	var rep RecoveryReport
	if t.log == nil {
		return rep, at, fmt.Errorf("core: Recover called without a WAL attached")
	}
	var recs []wal.Record
	at, err := t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		var rerr error
		recs, at, rerr = t.log.RecordsTimed(at)
		return at, rerr
	})
	if err != nil {
		return rep, at, err
	}
	// Cut at the last checkpoint: everything before is fully flushed. The
	// log is this tree's alone, so every record after it is the tree's.
	// Aborts name flushes by id, so the flush counter continues past every
	// id in the log, below the cut too: a tree rebuilt over these files
	// never reuses one.
	cut := 0
	for i, r := range recs {
		switch r.Kind {
		case wal.KindCheckpoint:
			cut = i + 1
		case wal.KindFlushStart:
			t.flushID = max(t.flushID, r.FlushID)
		}
	}
	recs = recs[cut:]

	// Pair flushes.
	completed := map[uint64][2]kv.Key{} // flushID -> [lo,hi]
	started := map[uint64]bool{}
	for _, r := range recs {
		switch r.Kind {
		case wal.KindFlushStart:
			started[r.FlushID] = true
		case wal.KindFlushEnd:
			if started[r.FlushID] {
				completed[r.FlushID] = [2]kv.Key{r.KeyLo, r.KeyHi}
				delete(started, r.FlushID)
			}
		case wal.KindFlushAbort:
			// An undone flush is closed with no key range, even after a
			// FlushEnd of it: one that sat in the unforced tail when its
			// commit force failed, and a Heal forced after the undo.
			delete(started, r.FlushID)
			delete(completed, r.FlushID)
		}
	}

	// Undo phase: roll back incomplete flushes (pre-images in reverse).
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
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
		rep.UndoPagesApplied++
	}
	// Close each undone flush, in FlushStart order. The abort needs no
	// force: a later flush's data writes and every head cut follow a force
	// that covers it, and a crash before then only applies the same
	// pre-images again.
	for _, r := range recs {
		if r.Kind == wal.KindFlushStart && started[r.FlushID] {
			t.log.Append(wal.Record{Kind: wal.KindFlushAbort, FlushID: r.FlushID})
		}
	}
	rep.UndoneFlushes = len(started)

	// Redo phase: rebuild the OPQ from logical redo logs. A record is
	// skipped when a completed flush that STARTED AFTER the record was
	// logged covers its key: a flush consumes whole keys (OPQ.takeBatch),
	// so it consumed every queued op on a key in its range. A single backward
	// sweep accumulates the completed-flush key ranges lying ahead of
	// each position, so replay costs O(records x completed flushes)
	// instead of rescanning the log tail per redo record.
	type keyRange struct{ lo, hi kv.Key }
	skip := make([]bool, len(recs))
	var ahead []keyRange
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
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
	t.opq.Reset()
	for i, r := range recs {
		if r.Kind != wal.KindLogicalRedo {
			continue
		}
		if skip[i] {
			rep.SkippedEntries++
			continue
		}
		// A quarantined shard appends compensation records (migration
		// purges, stranded copies) to its tail but can never flush, so the
		// durable redo stream may exceed the OPQ budget. A flush mid-replay
		// would let its key range cover not-yet-replayed records and lose
		// them on the NEXT recovery, so the queue holds them all; the
		// forest flushes it back under the budget when it puts the shard
		// back into service.
		t.opq.push(kv.Entry{Rec: kv.Record{Key: r.Key, Value: r.Value}, Op: kv.Op(r.Op)})
		rep.RedoneEntries++
	}
	// The tree now reflects exactly the durable log: a new rollback
	// baseline for quarantine recovery.
	t.commitDurableMeta()
	return rep, at, nil
}

// Meta captures the structural state that a DBMS catalog would persist,
// and the flushes' blind op sum the planner's key estimate starts from.
type Meta struct {
	Root    pagefile.PageID
	Height  int
	Applied int64
}

// Snapshot returns the current structural state.
func (t *Tree) Snapshot() Meta {
	return Meta{Root: t.root, Height: t.height, Applied: t.applied}
}

// RestoreMeta resets the structural state (crash-recovery tests restore
// the pre-crash durable snapshot, then call recover).
func (t *Tree) RestoreMeta(m Meta) {
	t.root = m.Root
	t.height = m.Height
	t.applied = m.Applied
}

// crashVolatileState simulates a crash: the OPQ, LSMap and buffer pool
// contents vanish; only the simulated SSD (pagefile + forced WAL) remains.
//
// The log's low-water state goes too: its marks may name records the
// crash dropped, and routing recovery pins the migration records again.
func (t *Tree) crashVolatileState() {
	t.dropVolatile()
	if t.log != nil {
		t.log.Crash()
	}
	t.lowWater = lowWater{}
}

// dropVolatile discards the tree's volatile state (OPQ, LSMap, pending
// internal updates, buffer pool) WITHOUT touching the WAL tail. Quarantine
// rollback uses this: the unforced tail may hold compensation records (an
// aborted migration's purges) that a heal must still force, so only a
// real crash may drop it.
func (t *Tree) dropVolatile() {
	if fresh, err := newOPQ(t.opq.Cap(), t.cfg.SPeriod); err == nil {
		t.opq = fresh
	} else {
		t.opq.Reset()
	}
	t.lsmap = newLSMap(t.cfg.LeafSegs)
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
	_, at, err := t.recover(at)
	return at, err
}
