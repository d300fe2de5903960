package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/kv"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// newLoggedIndex builds a one-shard forest with a WAL, the paper's single
// logged index: its flushes are group commits of one member.
func newLoggedIndex(t *testing.T, cfg Config) (*Forest, *wal.Log) {
	t.Helper()
	fr, _, _, logs := buildTestForest(t, Spec{Shards: 1, WAL: true, Forest: ForestConfig{Shard: cfg}})
	return fr, logs[0]
}

// crashRecover crashes fr, restores the structural state captured before
// the crash, and recovers, failing the test on an error.
func crashRecover(t *testing.T, fr *Forest, at vtime.Ticks) (RecoveryReport, vtime.Ticks) {
	t.Helper()
	meta := fr.SnapshotMeta()
	fr.Crash()
	if err := fr.RestoreMeta(meta); err != nil {
		t.Fatal(err)
	}
	rep, at, err := fr.Recover(at)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Total, at
}

// insertKeys inserts key(i) with value val(i) for i < n, failing the test
// on an error, and returns the final time.
func insertKeys(t *testing.T, fr *Forest, at vtime.Ticks, n int, key, val func(int) uint64) vtime.Ticks {
	t.Helper()
	var err error
	for i := 0; i < n; i++ {
		if at, err = fr.Insert(at, kv.Record{Key: key(i), Value: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return at
}

func TestRecoverWithoutWALFails(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	if _, _, err := tr.recover(0); err == nil {
		t.Fatal("Recover without WAL accepted")
	}
}

// TestLoggedTreeNeverFlushesItself: a logged tree leaves every flush to
// its forest's group commit. FlushBatch rejects it, and an update into a
// full queue returns errOPQFull with nothing logged or queued.
func TestLoggedTreeNeverFlushesItself(t *testing.T) {
	fr, l := newLoggedIndex(t, smallCfg())
	tr := fr.ShardTree(0)
	if _, err := tr.FlushBatch(0, 0); err == nil {
		t.Fatal("FlushBatch of a logged tree accepted")
	}
	for i := 0; i < tr.opq.Cap(); i++ {
		if _, err := tr.Insert(0, kv.Record{Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(0, kv.Record{Key: 1 << 20}); err != errOPQFull {
		t.Fatalf("insert into a full queue: %v, want errOPQFull", err)
	}
	if tr.OPQLen() != tr.opq.Cap() || tr.Count() != int64(tr.opq.Cap()) || l.Unforced() || tr.Stats().Flushes != 0 {
		t.Fatalf("rejected insert left a trace: %d queued, count %d, log tail unforced %v, %d flushes",
			tr.OPQLen(), tr.Count(), l.Unforced(), tr.Stats().Flushes)
	}
}

// TestRecoverRedoUnflushedEntries: ops buffered in the OPQ (never flushed)
// must survive a crash via logical redo.
func TestRecoverRedoUnflushedEntries(t *testing.T) {
	fr, _ := newLoggedIndex(t, smallCfg())
	at := insertKeys(t, fr, 0, 20, func(i int) uint64 { return uint64(i) }, func(i int) uint64 { return uint64(i * 10) })
	// Commit point: the logical logs are forced.
	at, err := fr.Sync(at)
	if err != nil {
		t.Fatal(err)
	}
	rep, at := crashRecover(t, fr, at)
	if rep.RedoneEntries != 20 || rep.UndoneFlushes != 0 {
		t.Fatalf("report %+v, want 20 redone", rep)
	}
	for i := 0; i < 20; i++ {
		v, found, at2, err := fr.Search(at, uint64(i))
		if err != nil || !found || v != uint64(i*10) {
			t.Fatalf("after recovery Search(%d) = %d,%v,%v", i, v, found, err)
		}
		at = at2
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSkipsCompletedFlush: entries consumed by a completed flush
// must NOT be redone (logical redo is not idempotent) — verified by count
// consistency. The flush takes 50 of the 60 queued entries, so it leaves
// the queue non-empty and its commit keeps the log head, redo records and
// all.
func TestRecoverSkipsCompletedFlush(t *testing.T) {
	cfg := smallCfg()
	cfg.BCnt = 50
	fr, _ := newLoggedIndex(t, cfg)
	id := func(i int) uint64 { return uint64(i) }
	at := insertKeys(t, fr, 0, 60, id, id)
	// Flush keys 0..49 (a completed flush bracketed in the WAL).
	at, err := fr.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Pending() != 10 {
		t.Fatalf("%d entries queued after the flush, want 10", fr.Pending())
	}
	if at, err = fr.Sync(at); err != nil {
		t.Fatal(err)
	}
	rep, at := crashRecover(t, fr, at)
	if rep.SkippedEntries != 50 {
		t.Fatalf("skipped %d, want 50", rep.SkippedEntries)
	}
	if rep.RedoneEntries != 10 {
		t.Fatalf("redone %d, want 10", rep.RedoneEntries)
	}
	if fr.Count() != 60 {
		t.Fatalf("count after recovery %d, want 60", fr.Count())
	}
	for i := 0; i < 60; i++ {
		_, found, at2, err := fr.Search(at, uint64(i))
		if err != nil || !found {
			t.Fatalf("Search(%d) after recovery: %v %v", i, found, err)
		}
		at = at2
	}
}

// recoverUndoneFlush flushes 30 synced keys on a one-shard forest, then
// recovers a second forest over the post-flush disk whose log holds
// everything but that flush's FlushEnd: a crash just before the FlushEnd
// became durable. It returns the recovered forest and its report. The
// second forest flushes at most 10 entries at a time, so a flush of the
// 30 redone entries leaves the queue non-empty and keeps the log head.
func recoverUndoneFlush(t *testing.T) (*Forest, RecoveryReport, vtime.Ticks) {
	t.Helper()
	cfg := smallCfg()
	fr, l := newLoggedIndex(t, cfg)
	at := insertKeys(t, fr, 0, 30, func(i int) uint64 { return uint64(i * 2) }, func(i int) uint64 { return uint64(i) })
	at, err := fr.Sync(at)
	if err != nil {
		t.Fatal(err)
	}
	// The durable log and structural state BEFORE the flush.
	before, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	meta := fr.SnapshotMeta()

	// Run the flush fully (it logs FlushStart, undo images, FlushEnd). It
	// empties the queue, so its commit cuts the log head at its
	// FlushStart: the log now starts there.
	if _, err = fr.Flush(at); err != nil {
		t.Fatal(err)
	}
	after, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) == 0 || after[0].Kind != wal.KindFlushStart || after[len(after)-1].Kind != wal.KindFlushEnd {
		t.Fatalf("log after the flush is not FlushStart ... FlushEnd: %d records", len(after))
	}
	// The disk holds the flush's writes. Emulate the crash having hit
	// BEFORE the FlushEnd became durable: a second index over the
	// post-flush disk whose log holds everything but the FlushEnd.
	// Recovery must restore the pre-images, returning the tree to the
	// pre-flush content, then redo the 30 inserts into the OPQ.
	cfg.BCnt = 10
	fr2, _, pfs2, logs2 := buildTestForest(t, Spec{Shards: 1, WAL: true, Forest: ForestConfig{Shard: cfg}})
	pf := fr.ShardTree(0).pf
	pfs2[0].File().Restore(pf.File().Snapshot())
	// Mirror the allocator state by re-allocating the same page count.
	for pfs2[0].NumPages() < pf.NumPages() {
		pfs2[0].Alloc()
	}
	for _, r := range append(before, after[:len(after)-1]...) {
		logs2[0].Append(r)
	}
	if _, err := logs2[0].Force(0); err != nil {
		t.Fatal(err)
	}
	if err := fr2.RestoreMeta(meta); err != nil { // pre-flush structural state
		t.Fatal(err)
	}
	// The flush counter survives, as it does across Forest.Crash.
	fr2.ShardTree(0).flushID = fr.ShardTree(0).flushID
	frep, at2, err := fr2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	return fr2, frep.Total, at2
}

// TestRecoverUndoIncompleteFlush: a crash mid-flush (after FlushStart and
// some node writes, before FlushEnd) must be rolled back by the flush undo
// logs, then the entries redone into the OPQ.
func TestRecoverUndoIncompleteFlush(t *testing.T) {
	fr2, rep, at2 := recoverUndoneFlush(t)
	if rep.UndoneFlushes != 1 {
		t.Fatalf("undone flushes = %d, want 1", rep.UndoneFlushes)
	}
	if rep.UndoPagesApplied == 0 {
		t.Fatal("no undo pages applied")
	}
	if rep.RedoneEntries != 30 {
		t.Fatalf("redone %d, want 30", rep.RedoneEntries)
	}
	// All 30 keys must be visible (from the rebuilt OPQ).
	for i := 0; i < 30; i++ {
		v, found, at3, err := fr2.Search(at2, uint64(i*2))
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("Search(%d) after undo+redo: %d,%v,%v", i*2, v, found, err)
		}
		at2 = at3
	}
	if fr2.Count() != 30 {
		t.Fatalf("count = %d, want 30", fr2.Count())
	}
}

// TestRecoverUndoneFlushStaysUndone: after the recovery that undid a
// flush, a second flush writes a third of the same keys and commits, and
// a second crash follows with no checkpoint in between. The log head
// stays below the first flush, since the queue is not empty. The second
// recovery must not undo the first flush again over the second one's
// pages: the first recovery closed it in the log.
func TestRecoverUndoneFlushStaysUndone(t *testing.T) {
	fr, _, at := recoverUndoneFlush(t)
	at, err := fr.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = fr.Sync(at); err != nil {
		t.Fatal(err)
	}
	rep, at := crashRecover(t, fr, at)
	if want := (RecoveryReport{SkippedEntries: 10, RedoneEntries: 20}); rep != want {
		t.Fatalf("second recovery: %+v, want %+v", rep, want)
	}
	for i := 0; i < 30; i++ {
		v, found, next, err := fr.Search(at, uint64(i*2))
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("Search(%d) after the second recovery: %d,%v,%v", i*2, v, found, err)
		}
		at = next
	}
	if fr.Count() != 30 {
		t.Fatalf("count = %d, want 30", fr.Count())
	}
}

// TestCheckpointClearsRedo: after a checkpoint, recovery has nothing to do.
func TestCheckpointClearsRedo(t *testing.T) {
	fr, _ := newLoggedIndex(t, smallCfg())
	id := func(i int) uint64 { return uint64(i) }
	at := insertKeys(t, fr, 0, 40, id, id)
	at, err := fr.Checkpoint(at)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := crashRecover(t, fr, at)
	if rep.RedoneEntries != 0 || rep.UndoneFlushes != 0 || rep.SkippedEntries != 0 {
		t.Fatalf("post-checkpoint recovery did work: %+v", rep)
	}
	if fr.Count() != 40 {
		t.Fatalf("count %d", fr.Count())
	}
}

// TestRecoverRestoresFlushID: a forest rebuilt over the same files
// continues the flush ids its logs hold, those below the checkpoint cut
// included, so an abort or a FlushEnd never names two flushes. Shard 1
// is quarantined while shard 0 drains in a checkpoint, so no log head
// moves and shard 0's flush records stay below its checkpoint record.
func TestRecoverRestoresFlushID(t *testing.T) {
	var spec Spec
	fr, space, pfs, logs := newFaultForestOf(t, fmShards, fmShards, func(s *Spec) { spec = *s })
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")
	var err error
	for j := 0; len(fr.Quarantined()) == 0; j++ {
		if j == 500 {
			t.Fatal("shard 1 never quarantined")
		}
		k := fmStride + 200 + kv.Key(j)
		if at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)}); err != nil && !errors.Is(err, ErrShardQuarantined) {
			t.Fatal(err)
		}
	}
	id := func(i int) uint64 { return 200 + uint64(i) }
	if at, err = fr.Checkpoint(insertKeys(t, fr, at, 20, id, id)); err != nil {
		t.Fatal(err)
	}
	flushIDs := func() (ids []uint64) {
		recs, err := logs[0].Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Kind == wal.KindFlushStart {
				ids = append(ids, r.FlushID)
			}
		}
		return ids
	}
	before := flushIDs()
	if len(before) == 0 {
		t.Fatal("shard 0's log holds no flush")
	}
	meta := fr.SnapshotMeta()
	fr.Crash()
	space.SetInjector(nil)
	cfg := spec.Forest
	cfg.Logs = logs
	fr2, err := NewForest(pfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr2.RestoreMeta(meta); err != nil {
		t.Fatal(err)
	}
	if _, at, err = fr2.Recover(at); err != nil {
		t.Fatal(err)
	}
	if at, err = fr2.Insert(at, kv.Record{Key: 300, Value: 300}); err != nil {
		t.Fatal(err)
	}
	if _, err = fr2.Flush(at); err != nil {
		t.Fatal(err)
	}
	after := flushIDs()
	if next := after[len(after)-1]; next <= slices.Max(before) {
		t.Fatalf("the rebuilt forest's flush has id %d; the log already held %v", next, before)
	}
}
