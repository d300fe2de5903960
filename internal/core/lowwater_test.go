package core

import (
	"math/rand"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// wireSize returns the bytes record r takes in a log.
func wireSize(t *testing.T, r wal.Record) int64 {
	t.Helper()
	f, err := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300())).Create("wire", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.NewLog(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	a := l.AppendMark(r)
	return l.AppendMark(wal.Record{}).Off - a.Off
}

// TestLogBoundedWithoutCheckpoint drives about 50k mixed writes through
// a 4-shard forest that never checkpoints. Every committed flush empties
// its shard's queue, so each log must hold no more than one OPQ's redo
// records plus one flush's records, undo images included, however long
// the run. A crash and Recover every 10k writes must keep every
// committed key.
func TestLogBoundedWithoutCheckpoint(t *testing.T) {
	// Keys stay within the shards' ranges and at most keys of them live.
	const shards, writes, crashEvery, keys = 4, 50000, 10000, 3000
	fr, _, _, logs := newFaultForestOf(t, shards, shards, func(*Spec) {})
	cfg := fr.shards[0].tree.cfg
	queue := int64(fr.shards[0].tree.opq.Cap())
	redo := wireSize(t, wal.Record{Kind: wal.KindLogicalRedo})
	undo := wireSize(t, wal.Record{Kind: wal.KindFlushUndo, UndoInfo: make([]byte, cfg.PageSize)})
	// A flush of the whole queue writes, per entry, at most one leaf and
	// the sibling it splits off (LeafSegs pages each) and, per internal
	// level, one node and its split sibling. The trees here stay at most
	// three levels tall.
	const height = 3
	pages := queue * (2*int64(cfg.LeafSegs) + 2*(height-1))
	bound := queue*redo + 2*redo + pages*undo

	rng := rand.New(rand.NewSource(1))
	model := map[kv.Key]kv.Value{}
	var live []kv.Key
	var at vtime.Ticks
	var err error
	for i := 1; i <= writes; i++ {
		switch r := rng.Intn(10); {
		case (r < 5 && len(live) < keys) || len(live) == 0:
			k := kv.Key(rng.Intn(shards * int(fmStride)))
			for _, ok := model[k]; ok; _, ok = model[k] {
				k = kv.Key(rng.Intn(shards * int(fmStride)))
			}
			v := kv.Value(rng.Uint64())
			at, err = fr.Insert(at, kv.Record{Key: k, Value: v})
			model[k] = v
			live = append(live, k)
		case r < 8:
			k := live[rng.Intn(len(live))]
			v := kv.Value(rng.Uint64())
			at, err = fr.Update(at, kv.Record{Key: k, Value: v})
			model[k] = v
		default:
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			at, err = fr.Delete(at, k)
			delete(model, k)
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%1000 == 0 {
			// The live log is at most one flush's records and the redo
			// records of what is queued since it started.
			for si, l := range logs {
				recs, err := l.Records()
				if err != nil {
					t.Fatal(err)
				}
				var starts, redos int64
				for _, r := range recs {
					switch r.Kind {
					case wal.KindFlushStart:
						starts++
					case wal.KindLogicalRedo:
						redos++
					}
				}
				if n := l.LiveBytes(); starts > 1 || redos > queue || n > bound {
					t.Fatalf("write %d: shard %d log holds %d flushes and %d redo records in %d live bytes (bound %d)", i, si, starts, redos, n, bound)
				}
			}
		}
		if i%crashEvery != 0 {
			continue
		}
		// Sync commits every acknowledged write; the crash then may lose
		// nothing.
		if at, err = fr.Sync(at); err != nil {
			t.Fatal(err)
		}
		fr.Crash()
		if _, at, err = fr.Recover(at); err != nil {
			t.Fatalf("write %d: recover: %v", i, err)
		}
		recs, done, err := fr.RangeSearch(at, 0, MaxMigrationKey)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		if len(recs) != len(model) {
			t.Fatalf("write %d: recovered %d keys, model holds %d", i, len(recs), len(model))
		}
		for _, r := range recs {
			if v, ok := model[r.Key]; !ok || v != r.Value {
				t.Fatalf("write %d: recovered key %d = %d, model (%d, %v)", i, r.Key, r.Value, v, ok)
			}
		}
		if err := fr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if st := fr.Stats(); st.Tree.Flushes < 100 || st.LogTruncatedBytes < 10*bound {
		t.Fatalf("run too small to show a bound: %d flushes, %d bytes truncated", st.Tree.Flushes, st.LogTruncatedBytes)
	}
}

// pinnedRec names a record a pin must keep in a shard's live log.
type pinnedRec struct {
	shard int
	kind  wal.Kind
	id    uint64 // FlushID; 0 matches any
	key   kv.Key // a logical redo record's key
}

// TestLogHeadPins covers each record the log head may not pass when a
// flush commits: the redo records of entries a partial batch left queued,
// an unpaired FlushStart, the records of a migration no durable routing
// snapshot covers, and that snapshot on the first log. Each row ends with
// a committed flush on the pinned shard after the pinned records, and the
// records must still be in the log. Where a checkpoint record precedes
// the pin, the commit must have cut the head up to the pin, past it.
func TestLogHeadPins(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T) ([]*wal.Log, []pinnedRec)
		cut  bool
	}{
		{"partial-batch", pinPartialBatch, false},
		{"undone-flush", pinUndoneFlush, true},
		{"uncovered-migration", pinUncoveredMigration, true},
		{"routing-snapshot", pinRoutingSnapshot, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			logs, want := row.run(t)
			for _, p := range want {
				recs, err := logs[p.shard].Records()
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, r := range recs {
					if r.Kind == p.kind && (p.id == 0 || r.FlushID == p.id) && (p.kind != wal.KindLogicalRedo || r.Key == p.key) {
						found = true
					}
					if row.cut && r.Kind == wal.KindCheckpoint {
						t.Fatalf("shard %d log still holds the checkpoint record below the pin", p.shard)
					}
				}
				if !found {
					t.Fatalf("shard %d log lost pinned %v record (id %d, key %d)", p.shard, p.kind, p.id, p.key)
				}
			}
		})
	}
}

// flushCommits updates the first few baseline keys of shard si and
// flushes until a flush that empties si's queue has committed.
func flushCommits(t *testing.T, fr *Forest, at vtime.Ticks, si int) vtime.Ticks {
	t.Helper()
	tr := fr.shards[si].tree
	before := tr.Stats().Flushes
	var err error
	for j := 0; j < 20; j++ {
		k := kv.Key(si)*fmStride + kv.Key(j)
		if at, err = fr.Update(at, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; tr.OPQLen() > 0; i++ {
		if i == 10 {
			t.Fatalf("shard %d queue never drained", si)
		}
		if at, err = fr.Flush(at); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().Flushes == before {
		t.Fatalf("shard %d: no flush committed", si)
	}
	return at
}

// pinPartialBatch: with BCnt below the queue length no flush empties the
// queue, so no flush commit moves the head, and the redo record of every
// entry still queued stays in the log.
func pinPartialBatch(t *testing.T) ([]*wal.Log, []pinnedRec) {
	fr, _, _, logs := newFaultForestOf(t, 1, 4, func(s *Spec) { s.Forest.Shard.BCnt = 10 })
	var at vtime.Ticks
	var err error
	for k := kv.Key(0); k < 600; k++ {
		if at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if fr.Stats().Tree.Flushes < 5 {
		t.Fatalf("only %d flushes", fr.Stats().Tree.Flushes)
	}
	if _, err = fr.Sync(at); err != nil {
		t.Fatal(err)
	}
	if n := logs[0].TruncatedBytes(); n != 0 {
		t.Fatalf("partial batches moved the head by %d bytes", n)
	}
	var want []pinnedRec
	for _, e := range fr.shards[0].tree.opq.Entries() {
		want = append(want, pinnedRec{kind: wal.KindLogicalRedo, key: e.Rec.Key})
	}
	return logs, want
}

// pinUndoneFlush: a group member's data write fails, so its flush is
// undone by the quarantine rollback and its FlushStart stays unpaired.
// After a Heal, the shard's next committed flush must not cut past it.
func pinUndoneFlush(t *testing.T) ([]*wal.Log, []pinnedRec) {
	fr, space, _, logs := newFaultForestOf(t, 3, 3, func(*Spec) {})
	at := fmBaseline(t, fr)
	space.SetInjector(plainFault{writes: []string{"shard0"}})
	_, _, at = fmTriggerFlush(t, fr, at)
	space.SetInjector(nil)
	recs, err := logs[0].Records()
	if err != nil {
		t.Fatal(err)
	}
	ended := map[uint64]bool{}
	for _, r := range recs {
		if r.Kind == wal.KindFlushEnd {
			ended[r.FlushID] = true
		}
	}
	var undone uint64
	for _, r := range recs {
		if r.Kind == wal.KindFlushStart && !ended[r.FlushID] {
			undone = r.FlushID
		}
	}
	if undone == 0 {
		t.Fatal("the failed flush left no unpaired FlushStart")
	}
	if at, err = fr.Heal(at, 0); err != nil {
		t.Fatal(err)
	}
	flushCommits(t, fr, at, 0)
	return logs, []pinnedRec{
		{shard: 0, kind: wal.KindFlushStart, id: undone},
		{shard: 0, kind: wal.KindFlushUndo, id: undone},
	}
}

// migrate splits shard 0 at key 50 onto shard 1 of a 2-shard forest
// whose baseline checkpoint logged the base routing, and returns the
// migration id.
func migrate(t *testing.T) (*Forest, []*wal.Log, vtime.Ticks, uint64) {
	t.Helper()
	fr, _, _, logs := newFaultForestOf(t, 2, 2, func(*Spec) {})
	at := fmBaseline(t, fr)
	dst, at, err := fr.SplitShard(at, 0, 50)
	if err != nil || dst != 1 {
		t.Fatalf("SplitShard = %d, %v", dst, err)
	}
	return fr, logs, at, fr.rpart.RoutingSnapshot().MaxCommitted
}

// pinUncoveredMigration: a committed migration's records stay on both
// logs through later flush commits while no routing snapshot covers it.
func pinUncoveredMigration(t *testing.T) ([]*wal.Log, []pinnedRec) {
	fr, logs, at, id := migrate(t)
	at = flushCommits(t, fr, at, 0)
	flushCommits(t, fr, at, 1)
	var want []pinnedRec
	for si := range logs {
		want = append(want,
			pinnedRec{shard: si, kind: wal.KindMigrationStart, id: id},
			pinnedRec{shard: si, kind: wal.KindMigrationEnd, id: id})
	}
	return logs, append(want, pinnedRec{shard: 0, kind: wal.KindKeyMoved, id: id})
}

// pinRoutingSnapshot: once a checkpoint logs a routing snapshot that
// covers a migration, the first log keeps that snapshot through later
// flush commits.
func pinRoutingSnapshot(t *testing.T) ([]*wal.Log, []pinnedRec) {
	fr, logs, at, _ := migrate(t)
	at, err := fr.Checkpoint(at)
	if err != nil {
		t.Fatal(err)
	}
	at = flushCommits(t, fr, at, 0)
	flushCommits(t, fr, at, 0)
	return logs, []pinnedRec{{shard: 0, kind: wal.KindRoutingSnapshot}}
}
