package core

import (
	"slices"

	"repro/internal/wal"
)

// lowWater is a tree's log low-water state: where the head of its log may
// move once a flush commits, and the pins it may never pass. Recovery of
// the log needs (PAPER.md §3.4) the redo records of entries still queued
// and the undo images of a flush that has not ended; a forest adds the
// migration records its routing recovery reads and the routing snapshot.
// A flush whose batch emptied the OPQ consumed every redo record logged
// before its FlushStart, so after it commits everything older is dead,
// except what a pin holds. A flush that never committed needs none:
// recovery undoes it and logs its abort, which the next flush's prepare
// force makes durable before any commit cuts the head. The pins are:
//
//   - the first record, on this log, of each migration the latest durable
//     routing snapshot does not cover (its id is above MaxCommitted);
//   - on the forest's first log, that routing snapshot itself, unless it
//     is the base routing (RoutingMeta.isBase), which recovery rebuilds
//     without a record.
//
// Every mark is the zero Mark when unset. The owner serializes access
// (forest shards hold forestShard.mu).
type lowWater struct {
	// drained is the FlushStart of the latest flush, when its batch
	// emptied the OPQ.
	drained wal.Mark
	// migs holds the migration pins; snap is the routing snapshot pin.
	migs []migPin
	snap wal.Mark
}

// migPin is the first record of migration id on a log.
type migPin struct {
	id uint64
	at wal.Mark
}

// startFlush notes a flush's FlushStart record at m; drained reports
// whether its batch emptied the queue.
func (w *lowWater) startFlush(m wal.Mark, drained bool) {
	w.drained = wal.Mark{}
	if drained {
		w.drained = m
	}
}

// pinMigration holds the head at m, the first record of migration id on
// the log; a migration already pinned keeps its earlier mark.
func (w *lowWater) pinMigration(id uint64, m wal.Mark) {
	if !slices.ContainsFunc(w.migs, func(p migPin) bool { return p.id == id }) {
		w.migs = append(w.migs, migPin{id: id, at: m})
	}
}

// cover releases the pins of the migrations a durable routing snapshot
// with the given MaxCommitted covers.
func (w *lowWater) cover(maxCommitted uint64) {
	w.migs = slices.DeleteFunc(w.migs, func(p migPin) bool { return p.id <= maxCommitted })
}

// pass releases the pins a checkpoint cut at m passed.
func (w *lowWater) pass(m wal.Mark) {
	w.migs = slices.DeleteFunc(w.migs, func(p migPin) bool { return p.at.Off < m.Off })
}

// mark returns the mark below which the log holds nothing recovery needs,
// right after a flush committed: that flush's FlushStart when its batch
// emptied the queue, held back at the earliest pin. ok is false when the
// flush left entries queued.
func (w *lowWater) mark() (m wal.Mark, ok bool) {
	if w.drained.LSN == 0 {
		return wal.Mark{}, false
	}
	m = w.drained
	if w.snap.LSN != 0 && w.snap.Off < m.Off {
		m = w.snap
	}
	for _, p := range w.migs {
		if p.at.Off < m.Off {
			m = p.at
		}
	}
	return m, true
}

// truncateLog moves the log head to its low-water mark after a committed
// flush: a host-side discard, with no device request.
func (t *Tree) truncateLog() error {
	m, ok := t.lowWater.mark()
	if !ok {
		return nil
	}
	_, err := t.log.TruncateHead(m)
	return err
}
