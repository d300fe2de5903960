package core

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/vtime"
)

// countOps applies ops to fr in order, failing the test on an error.
func countOps(t *testing.T, fr *Forest, at vtime.Ticks, ops ...kv.Entry) vtime.Ticks {
	t.Helper()
	var err error
	for _, e := range ops {
		switch e.Op {
		case kv.OpInsert:
			at, err = fr.Insert(at, e.Rec)
		case kv.OpUpdate:
			at, err = fr.Update(at, e.Rec)
		case kv.OpDelete:
			at, err = fr.Delete(at, e.Rec.Key)
		}
		if err != nil {
			t.Fatalf("%v %d: %v", e.Op, e.Rec.Key, err)
		}
	}
	return at
}

func ins(k, v kv.Key) kv.Entry { return kv.Entry{Rec: kv.Record{Key: k, Value: v}, Op: kv.OpInsert} }
func upd(k, v kv.Key) kv.Entry { return kv.Entry{Rec: kv.Record{Key: k, Value: v}, Op: kv.OpUpdate} }
func del(k kv.Key) kv.Entry    { return kv.Entry{Rec: kv.Record{Key: k}, Op: kv.OpDelete} }

// wantContent checks Count, CheckInvariants and every key of model (and
// absent) against fr: the index's content, not a ledger of requests.
func wantContent(t *testing.T, fr *Forest, at vtime.Ticks, when string, model map[kv.Key]kv.Value, absent ...kv.Key) vtime.Ticks {
	t.Helper()
	if err := fr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if got := fr.Count(); got != int64(len(model)) {
		t.Fatalf("%s: Count() = %d, want %d", when, got, len(model))
	}
	for k, want := range model {
		v, ok, done, err := fr.Search(at, k)
		if err != nil || !ok || v != want {
			t.Fatalf("%s: Search(%d) = %d,%v,%v, want %d", when, k, v, ok, err, want)
		}
		at = done
	}
	for _, k := range absent {
		if v, ok, _, err := fr.Search(at, k); err != nil || ok {
			t.Fatalf("%s: Search(%d) = %d,%v,%v, want absent", when, k, v, ok, err)
		}
	}
	return at
}

// TestCountBlindOps: the OPQ queues writes without reading, and the leaves
// resolve them as upserts. Count reports the resulting content whether the
// op is still queued, flushed, or replayed after a crash: a delete of an
// absent key changes nothing, an insert of a present key replaces it, and
// an update of an absent key inserts it.
func TestCountBlindOps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ops    []kv.Entry
		model  map[kv.Key]kv.Value
		absent []kv.Key
	}{
		{"absent-delete", []kv.Entry{ins(1, 10), del(99)}, map[kv.Key]kv.Value{1: 10}, []kv.Key{99}},
		{"present-insert", []kv.Entry{ins(1, 10), ins(1, 11)}, map[kv.Key]kv.Value{1: 11}, nil},
		{"absent-update", []kv.Entry{upd(5, 50)}, map[kv.Key]kv.Value{5: 50}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr, _ := newLoggedIndex(t, smallCfg())
			at := countOps(t, fr, 0, tc.ops...)
			at = wantContent(t, fr, at, "queued", tc.model, tc.absent...)
			at, err := fr.Flush(at)
			if err != nil {
				t.Fatal(err)
			}
			at = wantContent(t, fr, at, "flushed", tc.model, tc.absent...)
			// Queue the same ops over their flushed selves.
			at = countOps(t, fr, at, tc.ops...)
			at = wantContent(t, fr, at, "requeued", tc.model, tc.absent...)
			if at, err = fr.Sync(at); err != nil {
				t.Fatal(err)
			}
			_, at = crashRecover(t, fr, at)
			wantContent(t, fr, at, "recovered", tc.model, tc.absent...)
		})
	}
}

// TestCountUnchangedByCrash: a crash alone does not change Count. Key 1
// inserted, absent key 99 deleted, flushed and synced: one key before the
// crash and one after, with no op in between.
func TestCountUnchangedByCrash(t *testing.T) {
	fr, _ := newLoggedIndex(t, smallCfg())
	at := countOps(t, fr, 0, ins(1, 10), del(99))
	at, err := fr.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = fr.Sync(at); err != nil {
		t.Fatal(err)
	}
	before := fr.Count()
	_, at = crashRecover(t, fr, at)
	if after := fr.Count(); before != 1 || after != before {
		t.Fatalf("Count() = %d before the crash and %d after, want 1 both times", before, after)
	}
	wantContent(t, fr, at, "recovered", map[kv.Key]kv.Value{1: 10}, 99)
}

// TestBulkLoadRejectsContent: bulk load asks the content whether the tree
// is empty, not a sum of ops. Key 1 inserted and absent key 99 deleted
// net to zero, yet the tree holds key 1, which a bulk load would drop.
func TestBulkLoadRejectsContent(t *testing.T) {
	fr, _ := newLoggedIndex(t, smallCfg())
	at := countOps(t, fr, 0, ins(1, 10), del(99))
	at, err := fr.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.BulkLoad([]kv.Record{{Key: 5, Value: 50}}); err == nil {
		t.Fatal("bulk load into a tree holding key 1 accepted")
	}
	wantContent(t, fr, at, "after the rejected load", map[kv.Key]kv.Value{1: 10}, 5)
}

// TestCountMergesQueueAcrossLeaves: the queue's keys overlay the leaves
// in key order, below the first leaf key, between leaves and past the
// last one, and a key's newest queued op decides.
func TestCountMergesQueueAcrossLeaves(t *testing.T) {
	fr, _ := newLoggedIndex(t, smallCfg())
	model := map[kv.Key]kv.Value{}
	var loaded []kv.Record
	for i := 0; i < 400; i++ {
		k := kv.Key(10 + 2*i)
		loaded = append(loaded, kv.Record{Key: k, Value: k})
		model[k] = k
	}
	if err := fr.BulkLoad(loaded); err != nil {
		t.Fatal(err)
	}
	if fr.ShardTree(0).Height() < 2 {
		t.Fatal("want a tree of several leaves")
	}
	ops := []kv.Entry{
		ins(1, 1), del(1), ins(1, 2), // below every leaf: present, newest wins
		del(10), ins(11, 11), upd(12, 120), // the first leaf's keys
		del(500), del(501), upd(502, 5020), del(502), // mid-tree, one absent delete
		ins(9000, 9), upd(9001, 91), del(9002), // past the last leaf
	}
	model[1] = 2
	delete(model, 10)
	model[11] = 11
	model[12] = 120
	delete(model, 500)
	delete(model, 502)
	model[9000] = 9
	model[9001] = 91
	at := countOps(t, fr, 0, ops...)
	at = wantContent(t, fr, at, "queued", model, 10, 500, 501, 502, 9002)
	at, err := fr.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	wantContent(t, fr, at, "flushed", model, 10, 500, 501, 502, 9002)
}

// TestFlushConsumesWholeKeys: a batch bounded by BCnt never splits one
// key's queued ops. With BCnt 2 the queue (0,10) (1,1) (1,op) used to
// flush (0,10) (1,1) and keep (1,op) queued, while the flush's log range
// [0, 1] made recovery skip (1,op)'s redo record: an acknowledged, synced
// update came back as its old value, and a delete resurrected its key.
func TestFlushConsumesWholeKeys(t *testing.T) {
	for _, tc := range []struct {
		name   string
		last   kv.Entry
		model  map[kv.Key]kv.Value
		absent []kv.Key
	}{
		{"update", upd(1, 2), map[kv.Key]kv.Value{0: 10, 1: 2}, nil},
		{"delete", del(1), map[kv.Key]kv.Value{0: 10}, []kv.Key{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.BCnt = 2
			fr, _ := newLoggedIndex(t, cfg)
			at := countOps(t, fr, 0, ins(0, 10), ins(1, 1), tc.last)
			at, err := fr.Flush(at)
			if err != nil {
				t.Fatal(err)
			}
			if at, err = fr.Sync(at); err != nil {
				t.Fatal(err)
			}
			at = wantContent(t, fr, at, "synced", tc.model, tc.absent...)
			rep, at := crashRecover(t, fr, at)
			wantContent(t, fr, at, "recovered", tc.model, tc.absent...)
			if rep.SkippedEntries != 1 || rep.RedoneEntries != 2 {
				t.Fatalf("recovery %+v, want key 0 skipped and key 1's two ops redone", rep)
			}
		})
	}
}

// TestFlushConsumesWholeKeysGroup: the same straddle on every member of a
// 4-shard group flush, which commits all four in one group.
func TestFlushConsumesWholeKeysGroup(t *testing.T) {
	cfg := forestCfg()
	cfg.BCnt = 2
	fr, _, _, _ := buildTestForest(t, Spec{Shards: 4, WAL: true,
		Forest: ForestConfig{Shard: cfg, RipeFraction: 1e-9}})
	// Two keys per shard, a < b, each b inserted then deleted or updated.
	var ops []kv.Entry
	model := map[kv.Key]kv.Value{}
	var absent []kv.Key
	var found [4][]kv.Key
	for k := kv.Key(0); len(ops) < 12; k++ {
		s := fr.Routing().Shard(k)
		if len(found[s]) == 2 {
			continue
		}
		found[s] = append(found[s], k)
		if len(found[s]) < 2 {
			continue
		}
		a, b := found[s][0], found[s][1]
		ops = append(ops, ins(a, a+100), ins(b, b+100))
		model[a] = a + 100
		if s%2 == 0 {
			ops = append(ops, del(b))
			absent = append(absent, b)
		} else {
			ops = append(ops, upd(b, b+200))
			model[b] = b + 200
		}
	}
	at := countOps(t, fr, 0, ops...)
	before := fr.Stats()
	at, err := fr.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	if st := fr.Stats(); st.GroupFlushes-before.GroupFlushes != 1 || st.GroupedShards-before.GroupedShards != 4 {
		t.Fatalf("want one group flush of 4 shards, got %d flushes of %d shards",
			st.GroupFlushes-before.GroupFlushes, st.GroupedShards-before.GroupedShards)
	}
	if at, err = fr.Sync(at); err != nil {
		t.Fatal(err)
	}
	at = wantContent(t, fr, at, "synced", model, absent...)
	rep, at := crashRecover(t, fr, at)
	wantContent(t, fr, at, "recovered", model, absent...)
	if rep.SkippedEntries != 4 || rep.RedoneEntries != 8 {
		t.Fatalf("recovery %+v, want each shard's a skipped and its b's two ops redone", rep)
	}
}
