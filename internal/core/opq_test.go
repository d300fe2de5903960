package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kv"
)

func TestOPQValidation(t *testing.T) {
	if _, err := newOPQ(0, 10); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestOPQAppendLookup(t *testing.T) {
	q, err := newOPQ(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := q.Append(kv.Entry{Rec: kv.Record{Key: uint64(i), Value: uint64(i * 2)}, Op: kv.OpInsert}); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 50 {
		t.Fatalf("len = %d", q.Len())
	}
	e, ok := q.Lookup(25)
	if !ok || e.Rec.Value != 50 {
		t.Fatalf("Lookup(25) = %+v %v", e, ok)
	}
	if _, ok := q.Lookup(1000); ok {
		t.Fatal("found absent key")
	}
	// Sorting was triggered by speriod=8 several times.
	if q.Sorts == 0 {
		t.Fatal("no periodic sorts")
	}
}

func TestOPQFullRejectsAppend(t *testing.T) {
	q, _ := newOPQ(2, 0)
	q.Append(kv.Entry{Rec: kv.Record{Key: 1}})
	q.Append(kv.Entry{Rec: kv.Record{Key: 2}})
	if !q.Full() {
		t.Fatal("queue not full")
	}
	if err := q.Append(kv.Entry{Rec: kv.Record{Key: 3}}); err == nil {
		t.Fatal("append to full queue accepted")
	}
}

// TestOPQLookupNewestWins: for the same key, the most recent append must
// win, whether it sits in the tail or the sorted region.
func TestOPQLookupNewestWins(t *testing.T) {
	q, _ := newOPQ(100, 4)
	q.Append(kv.Entry{Rec: kv.Record{Key: 7, Value: 1}, Op: kv.OpInsert})
	q.Append(kv.Entry{Rec: kv.Record{Key: 7}, Op: kv.OpDelete})
	e, ok := q.Lookup(7)
	if !ok || e.Op != kv.OpDelete {
		t.Fatalf("Lookup = %+v, want delete", e)
	}
	// Force a sort: the merged region must still report the delete last.
	q.Sort()
	e, ok = q.Lookup(7)
	if !ok || e.Op != kv.OpDelete {
		t.Fatalf("after sort Lookup = %+v, want delete", e)
	}
	// Re-insert after the sort: tail beats sorted region.
	q.Append(kv.Entry{Rec: kv.Record{Key: 7, Value: 9}, Op: kv.OpInsert})
	e, ok = q.Lookup(7)
	if !ok || e.Op != kv.OpInsert || e.Rec.Value != 9 {
		t.Fatalf("tail lookup = %+v", e)
	}
}

func TestOPQRange(t *testing.T) {
	q, _ := newOPQ(100, 0)
	for _, k := range []uint64{5, 15, 25, 35} {
		q.Append(kv.Entry{Rec: kv.Record{Key: k, Value: k}, Op: kv.OpInsert})
	}
	got := q.Range(nil, 10, 30)
	if len(got) != 2 || got[0].Rec.Key != 15 || got[1].Rec.Key != 25 {
		t.Fatalf("Range = %+v", got)
	}

	// Operations on one key straddle a Sort: the older ones sit in the
	// sorted region, the newer in the tail, a smaller key sits between
	// them in the tail. Range is key-sorted, and a key's entries keep
	// their arrival order, so its newest operation comes last.
	q, _ = newOPQ(100, 0)
	ops := []kv.Entry{
		{Rec: kv.Record{Key: 20, Value: 1}, Op: kv.OpInsert},
		{Rec: kv.Record{Key: 12, Value: 2}, Op: kv.OpInsert},
		{Rec: kv.Record{Key: 20}, Op: kv.OpDelete},
	}
	for _, e := range ops {
		q.Append(e)
	}
	q.Sort()
	tail := []kv.Entry{
		{Rec: kv.Record{Key: 20, Value: 3}, Op: kv.OpInsert},
		{Rec: kv.Record{Key: 11, Value: 4}, Op: kv.OpInsert},
		{Rec: kv.Record{Key: 20, Value: 5}, Op: kv.OpUpdate},
		{Rec: kv.Record{Key: 40, Value: 6}, Op: kv.OpInsert},
	}
	for _, e := range tail {
		q.Append(e)
	}
	want := []kv.Entry{tail[1], ops[1], ops[0], ops[2], tail[0], tail[2]}
	prefix := kv.Entry{Rec: kv.Record{Key: 99}}
	got = q.Range([]kv.Entry{prefix}, 10, 30)
	if len(got) != len(want)+1 || got[0] != prefix {
		t.Fatalf("Range did not append to dst: %+v", got)
	}
	for i, e := range want {
		if got[i+1] != e {
			t.Fatalf("Range[%d] = %+v, want %+v (all: %+v)", i, got[i+1], e, got[1:])
		}
	}
}

func TestOPQTakeBatch(t *testing.T) {
	q, _ := newOPQ(100, 0)
	keys := []uint64{30, 10, 20, 10, 40}
	for i, k := range keys {
		q.Append(kv.Entry{Rec: kv.Record{Key: k, Value: uint64(i)}, Op: kv.OpInsert})
	}
	batch := q.takeBatch(3)
	if len(batch) != 3 {
		t.Fatalf("batch len %d", len(batch))
	}
	// Sorted ascending; the two key-10 entries keep arrival order.
	if batch[0].Rec.Key != 10 || batch[1].Rec.Key != 10 || batch[2].Rec.Key != 20 {
		t.Fatalf("batch = %+v", batch)
	}
	if batch[0].Rec.Value != 1 || batch[1].Rec.Value != 3 {
		t.Fatalf("arrival order lost: %+v", batch[:2])
	}
	if q.Len() != 2 {
		t.Fatalf("remaining %d", q.Len())
	}
	rest := q.takeBatch(0)
	if len(rest) != 2 || rest[0].Rec.Key != 30 || rest[1].Rec.Key != 40 {
		t.Fatalf("rest = %+v", rest)
	}
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

// Property: after any append sequence, takeBatch(0) returns all entries
// key-sorted with per-key arrival order preserved.
func TestQuickOPQTakeBatchSorted(t *testing.T) {
	f := func(keys []uint8) bool {
		if len(keys) > 200 {
			keys = keys[:200]
		}
		q, _ := newOPQ(256, 16)
		for i, k := range keys {
			if err := q.Append(kv.Entry{Rec: kv.Record{Key: uint64(k), Value: uint64(i)}, Op: kv.OpInsert}); err != nil {
				return false
			}
		}
		batch := q.takeBatch(0)
		if len(batch) != len(keys) {
			return false
		}
		for i := 1; i < len(batch); i++ {
			if batch[i-1].Rec.Key > batch[i].Rec.Key {
				return false
			}
			// Equal keys: arrival (Value) order preserved.
			if batch[i-1].Rec.Key == batch[i].Rec.Key && batch[i-1].Rec.Value > batch[i].Rec.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: OPQ.Lookup always agrees with a naive scan-from-the-end model.
func TestQuickOPQLookupModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q, _ := newOPQ(512, 7)
	var history []kv.Entry
	for i := 0; i < 500; i++ {
		e := kv.Entry{
			Rec: kv.Record{Key: uint64(rng.Intn(40)), Value: uint64(i)},
			Op:  []kv.Op{kv.OpInsert, kv.OpDelete, kv.OpUpdate}[rng.Intn(3)],
		}
		if err := q.Append(e); err != nil {
			t.Fatal(err)
		}
		history = append(history, e)
		// Check a random key against the model.
		k := uint64(rng.Intn(40))
		var want kv.Entry
		var wantOK bool
		for j := len(history) - 1; j >= 0; j-- {
			if history[j].Rec.Key == k {
				want, wantOK = history[j], true
				break
			}
		}
		got, ok := q.Lookup(k)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("step %d: Lookup(%d) = %+v,%v want %+v,%v", i, k, got, ok, want, wantOK)
		}
	}
}

func TestLSMap(t *testing.T) {
	ls := newLSMap(8)
	if _, ok := ls.Get(1); ok {
		t.Fatal("hit on empty map")
	}
	ls.Set(1, 5)
	got, ok := ls.Get(1)
	if !ok || got != 5 {
		t.Fatalf("Get = %d,%v", got, ok)
	}
	// Clamping.
	ls.Set(2, -3)
	if v, _ := ls.Get(2); v != 0 {
		t.Fatalf("negative clamp: %d", v)
	}
	ls.Set(3, 99)
	if v, _ := ls.Get(3); v != 7 {
		t.Fatalf("upper clamp: %d", v)
	}
	if ls.Len() != 3 {
		t.Fatalf("len %d", ls.Len())
	}
	if ls.SizeBytes() != 3 {
		t.Fatalf("size %d", ls.SizeBytes())
	}
	ls.Delete(1)
	if _, ok := ls.Get(1); ok {
		t.Fatal("deleted leaf still cached")
	}
	hits, misses := ls.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
	// Miss fallback must point at the last segment (whole-leaf read).
	if v, ok := ls.Get(42); ok || v != 7 {
		t.Fatalf("miss fallback = %d,%v", v, ok)
	}
}
