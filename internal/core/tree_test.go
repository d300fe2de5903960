package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// newTestTree builds a PIO B-tree on a fresh simulated device.
func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	dev := flashsim.MustDevice(flashsim.P300())
	space := ssdio.NewSpace(dev)
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
	return tr
}

func smallCfg() Config {
	return Config{
		PageSize:    1024,
		LeafSegs:    4,
		OPQPages:    1,
		PioMax:      8,
		SPeriod:     16,
		BCnt:        0, // flush everything
		BufferBytes: 16 * 1024,
	}
}

func TestEmptyTreeSearch(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	_, found, _, err := tr.Search(0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("found key in empty tree")
	}
}

func TestInsertSearchViaOPQ(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	at, err := tr.Insert(0, kv.Record{Key: 7, Value: 70})
	if err != nil {
		t.Fatal(err)
	}
	v, found, _, err := tr.Search(at, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !found || v != 70 {
		t.Fatalf("Search(7) = %d,%v", v, found)
	}
	if tr.Stats().OPQShortcuts == 0 {
		t.Fatal("search did not hit the OPQ")
	}
}

func TestDeleteViaOPQMasksLeafEntry(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	var at, prev vtime.Ticks
	_ = prev
	a, err := tr.Insert(0, kv.Record{Key: 5, Value: 50})
	if err != nil {
		t.Fatal(err)
	}
	a, err = tr.FlushBatch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Key now on disk only.
	v, found, a, err := tr.Search(a, 5)
	if err != nil || !found || v != 50 {
		t.Fatalf("after flush: %d,%v,%v", v, found, err)
	}
	a, err = tr.Delete(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, found, a, err = tr.Search(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted key still found (OPQ delete not masking)")
	}
	// And after flushing the delete too.
	a, err = tr.FlushBatch(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, found, _, err = tr.Search(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted key found after flush")
	}
	_ = at
}

func TestManyInsertsWithFlushes(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(5000)
	var at vtime.Ticks
	var err error
	for _, k := range keys {
		at, err = tr.Insert(at, kv.Record{Key: uint64(k)*2 + 1, Value: uint64(k)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err = tr.FlushBatch(at, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 5000 {
		t.Fatalf("count = %d, want 5000", tr.Count())
	}
	// Every key must be findable; absent keys must not be.
	for i := 0; i < 5000; i += 97 {
		v, found, _, err := tr.Search(0, uint64(i)*2+1)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != uint64(i) {
			t.Fatalf("Search(%d) = %d,%v", i*2+1, v, found)
		}
		_, found, _, err = tr.Search(0, uint64(i)*2)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("found absent key %d", i*2)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("tree did not grow: height %d", tr.Height())
	}
	if tr.Stats().Flushes == 0 || tr.Stats().LeafSplits == 0 {
		t.Fatalf("stats: %+v", tr.Stats())
	}
}

func TestBulkLoadAndSearch(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	recs := seqRecords(20000)
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 20000 {
		t.Fatalf("count = %d", tr.Count())
	}
	for _, i := range []int{0, 1, 999, 10000, 19999} {
		v, found, _, err := tr.Search(0, recs[i].Key)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != recs[i].Value {
			t.Fatalf("Search(%d) = %d,%v want %d", recs[i].Key, v, found, recs[i].Value)
		}
	}
}

func seqRecords(n int) []kv.Record {
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{Key: uint64(i)*10 + 5, Value: uint64(i)}
	}
	return recs
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	if err := tr.BulkLoad([]kv.Record{{Key: 2}, {Key: 1}}); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
	if err := tr.BulkLoad([]kv.Record{{Key: 2}, {Key: 2}}); err == nil {
		t.Fatal("duplicate bulk load accepted")
	}
}

func TestUpdateChangesValue(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	recs := seqRecords(1000)
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	at, err := tr.Update(0, kv.Record{Key: recs[500].Key, Value: 9999})
	if err != nil {
		t.Fatal(err)
	}
	v, found, at, err := tr.Search(at, recs[500].Key)
	if err != nil || !found || v != 9999 {
		t.Fatalf("after update: %d,%v,%v", v, found, err)
	}
	at, err = tr.FlushBatch(at, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, found, _, err = tr.Search(at, recs[500].Key)
	if err != nil || !found || v != 9999 {
		t.Fatalf("after flush: %d,%v,%v", v, found, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchMany(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	recs := seqRecords(10000)
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	keys := make([]kv.Key, 0, 200)
	want := make(map[kv.Key]kv.Value)
	for i := 0; i < 200; i++ {
		r := recs[i*50]
		keys = append(keys, r.Key)
		want[r.Key] = r.Value
	}
	keys = append(keys, 1) // absent
	got, _, err := tr.SearchMany(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("SearchMany[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestSearchManyUsesFewerPsyncCallsThanKeys(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	if err := tr.BulkLoad(seqRecords(30000)); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats().PsyncReads
	keys := make([]kv.Key, 64)
	for i := range keys {
		keys[i] = uint64(i*400)*10 + 5
	}
	if _, _, err := tr.SearchMany(0, keys); err != nil {
		t.Fatal(err)
	}
	calls := tr.Stats().PsyncReads - before
	// MPSearch should need about one psync call per level, far fewer than
	// one per key.
	if calls > int64(tr.Height()*4) {
		t.Fatalf("MPSearch used %d psync calls for %d keys (height %d)", calls, len(keys), tr.Height())
	}
}

func TestRangeSearch(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	recs := seqRecords(10000)
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	lo, hi := recs[1000].Key, recs[2000].Key
	got, _, err := tr.RangeSearch(0, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("range returned %d records, want 1000", len(got))
	}
	for i, r := range got {
		if r != recs[1000+i] {
			t.Fatalf("range[%d] = %+v, want %+v", i, r, recs[1000+i])
		}
	}
}

func TestRangeSearchOverlaysOPQ(t *testing.T) {
	tr := newTestTree(t, smallCfg())
	recs := seqRecords(5000)
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	// Queue a delete, an update, and a brand-new insert inside the range.
	at, err := tr.Delete(0, recs[100].Key)
	if err != nil {
		t.Fatal(err)
	}
	at, err = tr.Update(at, kv.Record{Key: recs[101].Key, Value: 777})
	if err != nil {
		t.Fatal(err)
	}
	newKey := recs[101].Key + 1 // between 101 and 102 (keys are 10 apart)
	at, err = tr.Insert(at, kv.Record{Key: newKey, Value: 888})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tr.RangeSearch(at, recs[100].Key, recs[103].Key)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: 101 (updated), newKey, 102.
	if len(got) != 3 {
		t.Fatalf("range = %+v, want 3 records", got)
	}
	if got[0].Key != recs[101].Key || got[0].Value != 777 {
		t.Fatalf("got[0] = %+v", got[0])
	}
	if got[1].Key != newKey || got[1].Value != 888 {
		t.Fatalf("got[1] = %+v", got[1])
	}
	if got[2].Key != recs[102].Key {
		t.Fatalf("got[2] = %+v", got[2])
	}
}

func TestMixedWorkloadAgainstModel(t *testing.T) {
	cfg := smallCfg()
	cfg.BCnt = 50
	tr := newTestTree(t, cfg)
	model := make(map[kv.Key]kv.Value)
	rng := rand.New(rand.NewSource(7))
	var at vtime.Ticks
	var err error
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(3000))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert/overwrite
			v := uint64(i)
			if _, exists := model[k]; exists {
				at, err = tr.Update(at, kv.Record{Key: k, Value: v})
			} else {
				at, err = tr.Insert(at, kv.Record{Key: k, Value: v})
			}
			model[k] = v
		case 6, 7: // delete
			if _, exists := model[k]; exists {
				at, err = tr.Delete(at, k)
				delete(model, k)
			}
		default: // search
			v, found, at2, serr := tr.Search(at, k)
			at, err = at2, serr
			wantV, wantFound := model[k]
			if serr == nil && (found != wantFound || (found && v != wantV)) {
				t.Fatalf("op %d: Search(%d) = %d,%v want %d,%v", i, k, v, found, wantV, wantFound)
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := tr.FlushBatch(at, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != int64(len(model)) {
		t.Fatalf("count %d != model %d", tr.Count(), len(model))
	}
	// Full verification against the model.
	for k, v := range model {
		got, found, _, err := tr.Search(0, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || got != v {
			t.Fatalf("final Search(%d) = %d,%v want %d,true", k, got, found, v)
		}
	}
}

func TestRangeAfterMixedOps(t *testing.T) {
	cfg := smallCfg()
	cfg.BCnt = 64
	tr := newTestTree(t, cfg)
	model := make(map[kv.Key]kv.Value)
	rng := rand.New(rand.NewSource(11))
	var at vtime.Ticks
	var err error
	for i := 0; i < 8000; i++ {
		k := uint64(rng.Intn(2000))
		if rng.Intn(4) == 0 {
			at, err = tr.Delete(at, k)
			delete(model, k)
		} else {
			at, err = tr.Insert(at, kv.Record{Key: k, Value: uint64(i)})
			model[k] = uint64(i)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := tr.RangeSearch(at, 500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for k := range model {
		if k >= 500 && k < 1500 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range size %d, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key >= got[i].Key {
			t.Fatalf("range unsorted at %d", i)
		}
	}
	for _, r := range got {
		if model[r.Key] != r.Value {
			t.Fatalf("range[%d] value %d, want %d", r.Key, r.Value, model[r.Key])
		}
	}
}

func TestLeafSegmentEncodeDecodeRoundTrip(t *testing.T) {
	f := func(keys []uint64, sorted uint8) bool {
		if len(keys) > 100 {
			keys = keys[:100]
		}
		const ps = 1024
		l := &leafNode{id: 0, segs: 4, next: pagefile.InvalidPage}
		for i, k := range keys {
			op := kv.OpInsert
			if i%5 == 4 {
				op = kv.OpDelete
			}
			l.entries = append(l.entries, kv.Entry{Rec: kv.Record{Key: k, Value: k * 3}, Op: op})
		}
		if int(sorted) <= len(l.entries) {
			l.sorted = int(sorted)
		}
		buf := make([]byte, 4*ps)
		if err := l.encodeAll(buf, ps); err != nil {
			return len(l.entries) > leafCap(ps, 4) // overflow is the only allowed failure
		}
		got, err := decodeLeaf(0, buf, ps, 4)
		if err != nil {
			return false
		}
		if got.sorted != l.sorted || got.next != l.next || len(got.entries) != len(l.entries) {
			return false
		}
		for i := range got.entries {
			if got.entries[i] != l.entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInternalNodeEncodeDecodeRoundTrip(t *testing.T) {
	f := func(keys []uint64) bool {
		const ps = 1024
		if len(keys) == 0 {
			return true
		}
		if len(keys) > maxInternalKeys(ps) {
			keys = keys[:maxInternalKeys(ps)]
		}
		// Internal keys must be sorted and unique for childIndex sanity,
		// but encode/decode itself has no such requirement.
		n := &internalNode{id: 3, level: 2, keys: keys}
		for i := 0; i <= len(keys); i++ {
			n.children = append(n.children, pagefile.PageID(i*7))
		}
		buf := make([]byte, ps)
		if err := n.encode(buf); err != nil {
			return false
		}
		got, err := decodeInternal(3, buf)
		if err != nil || got.level != 2 || len(got.keys) != len(keys) {
			return false
		}
		for i := range keys {
			if got.keys[i] != keys[i] {
				return false
			}
		}
		for i := range n.children {
			if got.children[i] != n.children[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkCancelsInsertDeletePairs(t *testing.T) {
	l := &leafNode{id: 0, segs: 2}
	l.entries = []kv.Entry{
		{Rec: kv.Record{Key: 1, Value: 10}, Op: kv.OpInsert},
		{Rec: kv.Record{Key: 2, Value: 20}, Op: kv.OpInsert},
	}
	l.sorted = 2
	l.entries = append(l.entries,
		kv.Entry{Rec: kv.Record{Key: 1}, Op: kv.OpDelete},
		kv.Entry{Rec: kv.Record{Key: 3, Value: 30}, Op: kv.OpInsert},
		kv.Entry{Rec: kv.Record{Key: 2, Value: 99}, Op: kv.OpUpdate},
	)
	l.shrink()
	if l.sorted != len(l.entries) || len(l.entries) != 2 {
		t.Fatalf("shrink left %d entries (sorted %d)", len(l.entries), l.sorted)
	}
	if l.entries[0].Rec != (kv.Record{Key: 2, Value: 99}) {
		t.Fatalf("entries[0] = %+v", l.entries[0])
	}
	if l.entries[1].Rec != (kv.Record{Key: 3, Value: 30}) {
		t.Fatalf("entries[1] = %+v", l.entries[1])
	}
}

func TestDisablePsyncStillCorrect(t *testing.T) {
	cfg := smallCfg()
	cfg.DisablePsync = true
	tr := newTestTree(t, cfg)
	var at vtime.Ticks
	var err error
	for i := 0; i < 2000; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushBatch(at, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDisableLSMapStillCorrect(t *testing.T) {
	cfg := smallCfg()
	cfg.DisableLSMap = true
	tr := newTestTree(t, cfg)
	var at vtime.Ticks
	var err error
	for i := 0; i < 2000; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i * 3), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushBatch(at, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	v, found, _, err := tr.Search(0, 300)
	if err != nil || !found || v != 100 {
		t.Fatalf("Search(300) = %d,%v,%v", v, found, err)
	}
}

func TestSortedLeavesAblationCorrect(t *testing.T) {
	cfg := smallCfg()
	cfg.SortedLeaves = true
	cfg.BCnt = 64
	tr := newTestTree(t, cfg)
	model := make(map[kv.Key]kv.Value)
	rng := rand.New(rand.NewSource(23))
	var at vtime.Ticks
	var err error
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(1500))
		_, exists := model[k]
		switch {
		case rng.Intn(4) == 0:
			if exists {
				at, err = tr.Delete(at, k)
				delete(model, k)
			}
		case exists:
			at, err = tr.Update(at, kv.Record{Key: k, Value: uint64(i)})
			model[k] = uint64(i)
		default:
			at, err = tr.Insert(at, kv.Record{Key: k, Value: uint64(i)})
			model[k] = uint64(i)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushBatch(at, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range model {
		got, found, _, err := tr.Search(0, k)
		if err != nil || !found || got != v {
			t.Fatalf("Search(%d) = %d,%v,%v want %d", k, got, found, err, v)
		}
	}
}

func TestSortedLeavesSlowerInserts(t *testing.T) {
	run := func(sorted bool) vtime.Ticks {
		cfg := smallCfg()
		cfg.SortedLeaves = sorted
		tr := newTestTree(t, cfg)
		if err := tr.BulkLoad(seqRecords(20000)); err != nil {
			t.Fatal(err)
		}
		var at vtime.Ticks
		var err error
		for i := 0; i < 3000; i++ {
			at, err = tr.Insert(at, kv.Record{Key: uint64(i)*10 + 7, Value: 1})
			if err != nil {
				t.Fatal(err)
			}
		}
		at, err = tr.FlushBatch(at, 0)
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	appendOnly := run(false)
	sortedRewrite := run(true)
	if sortedRewrite <= appendOnly {
		t.Fatalf("sorted-leaf rewrites (%v) not slower than append-only (%v)", sortedRewrite, appendOnly)
	}
}

func TestLeafSegsOneIsValid(t *testing.T) {
	cfg := smallCfg()
	cfg.LeafSegs = 1
	tr := newTestTree(t, cfg)
	var at vtime.Ticks
	var err error
	for i := 0; i < 3000; i++ {
		at, err = tr.Insert(at, kv.Record{Key: uint64(i), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushBatch(at, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	dev := flashsim.MustDevice(flashsim.F120())
	space := ssdio.NewSpace(dev)
	f, _ := space.Create("x", 1<<20)
	pf, _ := pagefile.New(f, 1024)
	bad := smallCfg()
	bad.LeafSegs = 0
	if _, err := New(pf, bad); err == nil {
		t.Fatal("LeafSegs=0 accepted")
	}
	bad = smallCfg()
	bad.OPQPages = 0
	if _, err := New(pf, bad); err == nil {
		t.Fatal("OPQPages=0 accepted")
	}
	bad = smallCfg()
	bad.PageSize = 2048 // mismatch with pagefile
	if _, err := New(pf, bad); err == nil {
		t.Fatal("page size mismatch accepted")
	}
}
