package core

import (
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// newWALTree builds a PIO B-tree with a WAL on the same simulated device.
func newWALTree(t *testing.T, cfg Config) (*Tree, *wal.Log) {
	t.Helper()
	tr, _ := newWALTreeFile(t, cfg)
	return tr, tr.log
}

// newWALTreeFile builds a WAL-attached tree and returns it with its log
// file.
func newWALTreeFile(t *testing.T, cfg Config) (*Tree, *ssdio.File) {
	t.Helper()
	space := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300()))
	f, err := space.Create("idx", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pagefile.New(f, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := space.Create("wal", 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.NewLog(wf, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr.attachWAL(l)
	return tr, wf
}

// walCheckpoint checkpoints a WAL-attached tree: it drains the OPQ, then
// appends and forces one checkpoint record (Section 3.4).
func walCheckpoint(t *testing.T, tr *Tree, at vtime.Ticks) vtime.Ticks {
	t.Helper()
	at, err := tr.drain(at)
	if err == nil {
		tr.log.Append(wal.Record{Kind: wal.KindCheckpoint, Relation: tr.cfg.Relation})
		at, err = tr.retryIO(at, tr.log.Force)
	}
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func TestRecoverWithoutWALFails(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	if _, _, err := tr.recover(0); err == nil {
		t.Fatal("Recover without WAL accepted")
	}
}

// TestRecoverRedoUnflushedEntries: ops buffered in the OPQ (never flushed)
// must survive a crash via logical redo.
func TestRecoverRedoUnflushedEntries(t *testing.T) {
	cfg := smallCfg()
	tr, l := newWALTree(t, cfg)
	var at vtime.Ticks
	var err error
	for i := 0; i < 20; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i), Value: uint64(i * 10)})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Commit point: the logical logs are forced.
	if at, err = l.Force(at); err != nil {
		t.Fatal(err)
	}
	meta := tr.Snapshot()

	tr.crashVolatileState()
	tr.RestoreMeta(meta)
	rep, at, err := tr.recover(at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoneEntries != 20 || rep.UndoneFlushes != 0 {
		t.Fatalf("report %+v, want 20 redone", rep)
	}
	for i := 0; i < 20; i++ {
		v, found, at2, err := tr.Search(at, uint64(i))
		if err != nil || !found || v != uint64(i*10) {
			t.Fatalf("after recovery Search(%d) = %d,%v,%v", i, v, found, err)
		}
		at = at2
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSkipsCompletedFlush: entries consumed by a completed flush
// must NOT be redone (logical redo is not idempotent) — verified by count
// consistency.
func TestRecoverSkipsCompletedFlush(t *testing.T) {
	cfg := smallCfg()
	tr, l := newWALTree(t, cfg)
	var at vtime.Ticks
	var err error
	for i := 0; i < 50; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Flush everything (completed flush bracketed in the WAL).
	at, err = tr.FlushBatch(at, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A few more unflushed ops.
	for i := 50; i < 60; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if at, err = l.Force(at); err != nil {
		t.Fatal(err)
	}
	meta := tr.Snapshot()
	tr.crashVolatileState()
	tr.RestoreMeta(meta)
	rep, at, err := tr.recover(at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedEntries != 50 {
		t.Fatalf("skipped %d, want 50", rep.SkippedEntries)
	}
	if rep.RedoneEntries != 10 {
		t.Fatalf("redone %d, want 10", rep.RedoneEntries)
	}
	if tr.Count() != 60 {
		t.Fatalf("count after recovery %d, want 60", tr.Count())
	}
	for i := 0; i < 60; i++ {
		_, found, at2, err := tr.Search(at, uint64(i))
		if err != nil || !found {
			t.Fatalf("Search(%d) after recovery: %v %v", i, found, err)
		}
		at = at2
	}
}

// TestRecoverUndoIncompleteFlush: a crash mid-flush (after FlushStart and
// some node writes, before FlushEnd) must be rolled back by the flush undo
// logs, then the entries redone into the OPQ.
func TestRecoverUndoIncompleteFlush(t *testing.T) {
	cfg := smallCfg()
	tr, l := newWALTree(t, cfg)
	var at vtime.Ticks
	var err error
	for i := 0; i < 30; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i * 2), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if at, err = l.Force(at); err != nil {
		t.Fatal(err)
	}
	// Capture durable index state BEFORE the flush.
	preImage := tr.pf.File().Snapshot()
	meta := tr.Snapshot()

	// Run the flush fully (it logs FlushStart, undo images, FlushEnd)...
	if at, err = tr.FlushBatch(at, 0); err != nil {
		t.Fatal(err)
	}
	// ...then simulate the crash having hit BEFORE the FlushEnd became
	// durable: rebuild a log view without the trailing FlushEnd record.
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	hasEnd := false
	for _, r := range recs {
		if r.Kind == wal.KindFlushEnd {
			hasEnd = true
		}
	}
	if !hasEnd {
		t.Fatal("flush end record missing from durable log")
	}
	// Reconstruct: restore the index file to mid-flush state is not
	// possible (the flush wrote pages), so emulate the incomplete flush by
	// replaying the log WITHOUT the FlushEnd onto the post-flush disk:
	// recovery must restore the pre-images, returning the tree to the
	// pre-flush content, then redo the 30 inserts into the OPQ.
	dev2 := flashsim.MustDevice(flashsim.P300())
	space2 := ssdio.NewSpace(dev2)
	f2, err := space2.Create("idx", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Post-flush disk contents.
	f2.Restore(tr.pf.File().Snapshot())
	_ = preImage
	pf2, err := pagefile.New(f2, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the allocator state by re-allocating the same page count.
	for pf2.NumPages() < tr.pf.NumPages() {
		pf2.Alloc()
	}
	tr2, err := New(pf2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wf2, err := space2.Create("wal", 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.NewLog(wf2, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == wal.KindFlushEnd {
			continue // the crash ate the flush-end record
		}
		l2.Append(r)
	}
	if _, err := l2.Force(0); err != nil {
		t.Fatal(err)
	}
	tr2.attachWAL(l2)
	tr2.RestoreMeta(meta) // pre-flush structural state
	rep, at2, err := tr2.recover(0)
	if err != nil {
		t.Fatal(err)
	}
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
		v, found, at3, err := tr2.Search(at2, uint64(i*2))
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("Search(%d) after undo+redo: %d,%v,%v", i*2, v, found, err)
		}
		at2 = at3
	}
	if tr2.Count() != 30 {
		t.Fatalf("count = %d, want 30", tr2.Count())
	}
}

// TestCheckpointClearsRedo: after a checkpoint, recovery has nothing to do.
func TestCheckpointClearsRedo(t *testing.T) {
	cfg := smallCfg()
	tr, l := newWALTree(t, cfg)
	var at vtime.Ticks
	var err error
	for i := 0; i < 40; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	at = walCheckpoint(t, tr, at)
	meta := tr.Snapshot()
	tr.crashVolatileState()
	tr.RestoreMeta(meta)
	rep, _, err := tr.recover(at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoneEntries != 0 || rep.UndoneFlushes != 0 || rep.SkippedEntries != 0 {
		t.Fatalf("post-checkpoint recovery did work: %+v", rep)
	}
	if tr.Count() != 40 {
		t.Fatalf("count %d", tr.Count())
	}
	_ = l
}
