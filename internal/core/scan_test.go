package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
)

// rangeOracle is the range search the streaming one replaced: every leaf
// overlapping [lo, hi) decoded whole, resolved by liveRecords and
// filtered to the range, then the OPQ replayed over the result in arrival
// order through a map. It reads without simulated cost.
func rangeOracle(t testing.TB, tr *Tree, lo, hi kv.Key) []kv.Record {
	t.Helper()
	if hi <= lo {
		return nil
	}
	var recs []kv.Record
	var walk func(id pagefile.PageID, level int)
	walk = func(id pagefile.PageID, level int) {
		if level == 0 {
			l, err := tr.readWholeLeafNoCost(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range l.liveRecords() {
				if r.Key >= lo && r.Key < hi {
					recs = append(recs, r)
				}
			}
			return
		}
		buf := make([]byte, tr.cfg.PageSize)
		if err := tr.pf.ReadPageNoCost(id, buf); err != nil {
			t.Fatal(err)
		}
		n, err := decodeInternal(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		for c := n.childIndex(lo); c <= n.childIndex(hi-1); c++ {
			walk(n.children[c], level-1)
		}
	}
	walk(tr.root, tr.height-1)
	state := make(map[kv.Key]kv.Value, len(recs))
	for _, r := range recs {
		state[r.Key] = r.Value
	}
	for _, e := range tr.opq.Entries() {
		if e.Rec.Key < lo || e.Rec.Key >= hi {
			continue
		}
		switch e.Op {
		case kv.OpDelete:
			delete(state, e.Rec.Key)
		case kv.OpInsert, kv.OpUpdate:
			state[e.Rec.Key] = e.Rec.Value
		}
	}
	var out []kv.Record
	for k, v := range state {
		out = append(out, kv.Record{Key: k, Value: v})
	}
	kv.SortRecords(out)
	return out
}

// leafBounds returns the first key of every leaf but the leftmost: the
// separators of the level above the leaves.
func leafBounds(t testing.TB, tr *Tree) []kv.Key {
	t.Helper()
	var out []kv.Key
	var walk func(id pagefile.PageID, level int)
	walk = func(id pagefile.PageID, level int) {
		buf := make([]byte, tr.cfg.PageSize)
		if err := tr.pf.ReadPageNoCost(id, buf); err != nil {
			t.Fatal(err)
		}
		n, err := decodeInternal(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range n.children {
			if level == 1 {
				if i > 0 {
					out = append(out, n.keys[i-1])
				}
				continue
			}
			walk(c, level-1)
		}
	}
	if tr.height > 1 {
		walk(tr.root, tr.height-1)
	}
	return out
}

// TestRangeMatchesOracle holds the streaming range search to the decoding
// one on random trees: leaf tails holding updates, deletes and re-inserts
// after deletes, an OPQ overlay of all three operations split between its
// sorted region and its tail, and ranges on every leaf boundary, empty and
// reversed. PioMax 3 and a four-frame pool make the leaf level stream over
// several psync calls and the pool batches mix hits and misses. MPSearch
// over the same trees is checked against the model.
func TestRangeMatchesOracle(t *testing.T) {
	for _, segs := range []int{1, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := Config{PageSize: 256, LeafSegs: segs, OPQPages: 4, PioMax: 3, SPeriod: 7, BufferBytes: 4 * 256}
			tr := newTestTree(t, cfg)
			rng := rand.New(rand.NewSource(seed))
			const n = 900
			model := make(map[kv.Key]kv.Value, n)
			recs := make([]kv.Record, n)
			for i := range recs {
				recs[i] = kv.Record{Key: kv.Key(10 * (i + 1)), Value: kv.Value(i)}
				model[recs[i].Key] = recs[i].Value
			}
			if err := tr.BulkLoad(recs); err != nil {
				t.Fatal(err)
			}
			var at vtime.Ticks
			apply := func(e kv.Entry) {
				var err error
				switch e.Op {
				case kv.OpInsert:
					at, err = tr.Insert(at, e.Rec)
					model[e.Rec.Key] = e.Rec.Value
				case kv.OpUpdate:
					at, err = tr.Update(at, e.Rec)
					model[e.Rec.Key] = e.Rec.Value
				case kv.OpDelete:
					at, err = tr.Delete(at, e.Rec.Key)
					delete(model, e.Rec.Key)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// op draws an operation the model allows: update or delete a
			// live key, insert a fresh key or re-insert a deleted one.
			op := func(i int) kv.Entry {
				k := kv.Key(5 + 5*rng.Intn(2*n+2))
				v := kv.Value(1000*i + rng.Intn(1000))
				if _, live := model[k]; live {
					if rng.Intn(2) == 0 {
						return kv.Entry{Rec: kv.Record{Key: k}, Op: kv.OpDelete}
					}
					return kv.Entry{Rec: kv.Record{Key: k, Value: v}, Op: kv.OpUpdate}
				}
				return kv.Entry{Rec: kv.Record{Key: k, Value: v}, Op: kv.OpInsert}
			}
			// Rounds of flushed operations become leaf tails; the last
			// batch stays queued as the overlay.
			for i := 0; i < 400; i++ {
				apply(op(i))
			}
			var err error
			if at, err = tr.FlushBatch(at, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 45; i++ {
				apply(op(400 + i))
			}
			if got := tr.OPQLen(); got < 30 {
				t.Fatalf("overlay of %d entries, want a sizable one", got)
			}
			if tr.Height() < 3 {
				t.Fatalf("height %d, want >= 3", tr.Height())
			}

			ranges := [][2]kv.Key{{0, 1 << 40}, {300, 300}, {700, 200}, {1 << 40, 1<<40 + 1}}
			bounds := leafBounds(t, tr)
			for i, b := range bounds {
				ranges = append(ranges, [2]kv.Key{b - 1, b + 1}, [2]kv.Key{b, b + 1}, [2]kv.Key{b - 5, b})
				if i > 0 {
					ranges = append(ranges, [2]kv.Key{bounds[i-1], b}, [2]kv.Key{bounds[i-1] + 1, b - 1})
				}
			}
			for i := 0; i < 40; i++ {
				lo := kv.Key(rng.Intn(10 * n))
				ranges = append(ranges, [2]kv.Key{lo, lo + kv.Key(rng.Intn(3000))})
			}
			prefix := []kv.Record{{Key: 1, Value: 1}}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				want := rangeOracle(t, tr, lo, hi)
				var live []kv.Record
				for k, v := range model {
					if k >= lo && k < hi {
						live = append(live, kv.Record{Key: k, Value: v})
					}
				}
				kv.SortRecords(live)
				if !slices.Equal(want, live) {
					t.Fatalf("L=%d seed %d: oracle [%d, %d) disagrees with the model", segs, seed, lo, hi)
				}
				got, done, err := tr.RangeSearch(at, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				at = done
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("L=%d seed %d: RangeSearch(%d, %d) = %v, oracle %v", segs, seed, lo, hi, got, want)
				}
				dst, done, err := tr.appendRange(at, lo, hi, slices.Clone(prefix))
				if err != nil {
					t.Fatal(err)
				}
				at = done
				if !slices.Equal(dst[:1], prefix) || !slices.Equal(dst[1:], want) {
					t.Fatalf("L=%d seed %d: appendRange(%d, %d) after a prefix = %v, oracle %v", segs, seed, lo, hi, dst, want)
				}
			}

			for round := 0; round < 20; round++ {
				keys := make([]kv.Key, 1+rng.Intn(40))
				for i := range keys {
					keys[i] = kv.Key(5 * rng.Intn(2*n+4))
				}
				got, done, err := tr.SearchMany(at, keys)
				if err != nil {
					t.Fatal(err)
				}
				at = done
				for _, k := range keys {
					v, ok := got[k]
					wv, wok := model[k]
					if ok != wok || v != wv {
						t.Fatalf("L=%d seed %d: SearchMany[%d] = %d,%v, model %d,%v", segs, seed, k, v, ok, wv, wok)
					}
				}
			}
		}
	}
}

// TestScanHammerRace runs range, batch and point readers against writers
// and a migration that moves a range between the shards they use, on real
// goroutines. Every tree read fills the tree's one arena, so a reader that
// entered a tree another goroutine is in would race on it; the race
// detector pins that single-entry rule. Every result must be sorted and
// duplicate-free and hold every key acknowledged before the call and not
// deleted since; a key whose delete was acknowledged before it must be
// absent.
func TestScanHammerRace(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)

	const writers, inserts = 2, 150
	// Writer w inserts key(w, i) in order, and after key(w, i) with
	// i%3 == 2 deletes key(w, i-1).
	key := func(w, i int) kv.Key { return phase1Key(w, 1000+i) }
	var (
		ins, del [writers]atomic.Int64 // acknowledged inserts and deletes
		wg       sync.WaitGroup
		running  atomic.Int32
	)
	// expect returns the keys a read started now must hold, and those it
	// must not.
	expect := func() (must, gone []kv.Key) {
		for s := 0; s < crashShards; s++ {
			for j := 0; j < rebalPerShard; j++ {
				must = append(must, phase1Key(s, j))
			}
		}
		for w := 0; w < writers; w++ {
			n, d := int(ins[w].Load()), int(del[w].Load())
			for i := 0; i < n; i++ {
				if i%3 != 1 {
					must = append(must, key(w, i))
				}
			}
			for j := 0; j < d; j++ {
				gone = append(gone, key(w, 3*j+1))
			}
		}
		return must, gone
	}
	running.Store(writers + 1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			now := at
			for i := 0; i < inserts; i++ {
				k := key(w, i)
				done, err := fr.Insert(now, kv.Record{Key: k, Value: crashVal(k)})
				if err != nil {
					t.Errorf("writer %d: Insert(%d): %v", w, k, err)
					return
				}
				ins[w].Store(int64(i + 1))
				now = done
				if i%3 == 2 {
					if now, err = fr.Delete(now, key(w, i-1)); err != nil {
						t.Errorf("writer %d: Delete: %v", w, err)
						return
					}
					del[w].Add(1)
				}
			}
		}(w)
	}
	// Once writer 0 has keys there, the mover streams the upper half of
	// its key range from shard 0 onto shard 2, one chunk a step.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer running.Add(-1)
		for ins[0].Load() < inserts*4/5 && running.Load() == writers+1 {
			runtime.Gosched()
		}
		m, now, err := fr.StartMigration(at, key(0, inserts/2), phase1Key(1, 0), 0, 2)
		if err != nil {
			t.Errorf("StartMigration: %v", err)
			return
		}
		for done := false; !done; {
			runtime.Gosched()
			if done, now, err = m.Step(now); err != nil {
				t.Errorf("Step: %v", err)
				return
			}
		}
	}()

	check := func(r int, what string, got []kv.Key, must, gone []kv.Key) bool {
		t.Helper()
		if !slices.IsSorted(got) {
			t.Errorf("reader %d: %s not sorted", r, what)
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Errorf("reader %d: %s returned key %d twice", r, what, got[i])
				return false
			}
		}
		for _, k := range must {
			if _, ok := slices.BinarySearch(got, k); !ok {
				t.Errorf("reader %d: %s lost acknowledged key %d", r, what, k)
				return false
			}
		}
		for _, k := range gone {
			if _, ok := slices.BinarySearch(got, k); ok {
				t.Errorf("reader %d: %s returned deleted key %d", r, what, k)
				return false
			}
		}
		return true
	}
	const readers = 3
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			now := at
			for i := 0; i < 30 || running.Load() > 0; i++ {
				must, gone := expect()
				var got []kv.Key
				var what string
				switch (r + i) % 3 {
				case 0:
					what = "RangeSearch"
					recs, done, err := fr.RangeSearch(now, 0, phase1Key(crashShards-1, 0)+rebalPerShard)
					if err != nil {
						t.Errorf("reader %d: RangeSearch: %v", r, err)
						return
					}
					now = done
					for _, rec := range recs {
						if rec.Value != crashVal(rec.Key) {
							t.Errorf("reader %d: RangeSearch key %d = %d", r, rec.Key, rec.Value)
							return
						}
						got = append(got, rec.Key)
					}
				case 1:
					what = "SearchMany"
					m, done, err := fr.SearchMany(now, append(slices.Clone(must), gone...))
					if err != nil {
						t.Errorf("reader %d: SearchMany: %v", r, err)
						return
					}
					now = done
					for k, v := range m {
						if v != crashVal(k) {
							t.Errorf("reader %d: SearchMany key %d = %d", r, k, v)
							return
						}
						got = append(got, k)
					}
					slices.Sort(got)
				default:
					what = "Search"
					must = must[len(must)-8:]
					for _, k := range slices.Concat(must, gone) {
						v, ok, done, err := fr.Search(now, k)
						if err != nil {
							t.Errorf("reader %d: Search(%d): %v", r, k, err)
							return
						}
						now = done
						if ok {
							if v != crashVal(k) {
								t.Errorf("reader %d: Search key %d = %d", r, k, v)
								return
							}
							got = append(got, k)
						}
					}
					slices.Sort(got)
				}
				if !check(r, what, got, must, gone) {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := fr.Stats(); st.Migrations != 1 || st.MigratedKeys < 16 {
		t.Fatalf("%d migrations moved %d keys, want 1 moving at least a chunk", st.Migrations, st.MigratedKeys)
	}
}
