package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// The allocation gate. A point search reads encoded pages in place, so on
// a height-3, L = 4 tree it allocates nothing, whether the pool misses on
// both internal levels every time (the benchmark's read_point regime) or
// holds them (mixed_hot).

// allocCfg reaches height 3 with a few thousand records: a 512 B page
// holds 30 separators or 29 entries.
func allocCfg(frames int) Config {
	return Config{PageSize: 512, LeafSegs: 4, OPQPages: 1, BufferBytes: frames * 512}
}

func allocRecs(n int) []kv.Record {
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{Key: kv.Key(i*8 + 3), Value: kv.Value(i)}
	}
	return recs
}

// searchAllocs returns the allocations per call of search, over keys that
// stride the n loaded records and the gaps between them; every answer is
// checked.
func searchAllocs(t *testing.T, n int, search func(vtime.Ticks, kv.Key) (kv.Value, bool, vtime.Ticks, error)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var at vtime.Ticks
	var i int
	var failure string
	allocs := testing.AllocsPerRun(500, func() {
		i = (i + 7919) % (2 * n)
		k := kv.Key(i/2*8 + 3 + i%2) // odd i: the key after a record, absent
		v, found, done, err := search(at, k)
		if err != nil || found != (i%2 == 0) || found && v != kv.Value(i/2) {
			failure = fmt.Sprintf("Search(%d) = %d, %v, %v", k, v, found, err)
		}
		at = done
	})
	if failure != "" {
		t.Fatal(failure)
	}
	return allocs
}

func TestSearchAllocs(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		name          string
		frames        int
		missesPerCall int64
	}{
		{"pool of one frame", 1, 2},
		{"pool holds the internal level", 64, 0},
	} {
		t.Run("Tree/"+tc.name, func(t *testing.T) {
			tr := newTestTree(t, allocCfg(tc.frames))
			if err := tr.BulkLoad(allocRecs(n)); err != nil {
				t.Fatal(err)
			}
			if tr.Height() != 3 {
				t.Fatalf("height %d, want 3", tr.Height())
			}
			searchAllocs(t, n, tr.Search) // warm the pool
			before := tr.Pool().Stats()
			allocs := searchAllocs(t, n, tr.Search)
			after := tr.Pool().Stats()
			// AllocsPerRun makes one warm-up call on top of its 500.
			if got := after.Misses - before.Misses; got != 501*tc.missesPerCall {
				t.Fatalf("%d pool misses in 501 searches, want %d per search", got, tc.missesPerCall)
			}
			if allocs > 1 {
				t.Fatalf("Tree.Search allocates %.2f objects per call, want <= 1", allocs)
			}
		})
		t.Run("Forest/"+tc.name, func(t *testing.T) {
			// BufferBytes is the forest's global budget, split over 2 shards.
			fr := newTestForest(t, 2, allocCfg(2*tc.frames), nil)
			if err := fr.BulkLoad(allocRecs(2 * n)); err != nil {
				t.Fatal(err)
			}
			if h := fr.Height(); h != 3 {
				t.Fatalf("height %d, want 3", h)
			}
			searchAllocs(t, 2*n, fr.Search)
			if allocs := searchAllocs(t, 2*n, fr.Search); allocs > 1 {
				t.Fatalf("Forest.Search allocates %.2f objects per call, want <= 1", allocs)
			}
		})
	}
}

// TestMissPathAllocs gates the two layers under the search: a pool miss at
// capacity refills the evicted frame, and a single-request submission is
// served without request or result slices.
func TestMissPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := newTestTree(t, allocCfg(1))
	pool, err := bufferpool.New(tr.pf, 1, bufferpool.WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	ids := [2]pagefile.PageID{tr.pf.Alloc(), tr.pf.Alloc()}
	var at vtime.Ticks
	var i int
	if allocs := testing.AllocsPerRun(500, func() {
		i++
		if _, at, err = pool.Get(at, ids[i%2]); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Fatalf("Pool.Get missing at capacity allocates %.2f objects per call, want 0", allocs)
	}
	if s := pool.Stats(); s.Hits != 0 || s.Evictions != s.Misses-1 {
		t.Fatalf("pool did not miss and evict on every Get: %+v", s)
	}

	dev := flashsim.MustDevice(flashsim.P300())
	if allocs := testing.AllocsPerRun(500, func() {
		i++
		at = dev.SubmitOne(at, flashsim.Request{Op: flashsim.Op(i % 2), Offset: int64(i%64) * 4096, Size: 4096}).Done
	}); allocs != 0 {
		t.Fatalf("Device.SubmitOne allocates %.2f objects per call, want 0", allocs)
	}
}

// TestLogAllocs gates the log under the write path: an append marshals
// into the log buffer's spare capacity, and a force pads that buffer to
// whole pages and writes it from there. A head cut hands the extents below
// the new head to the log file's spare list, and the next force's writes
// take them back, so a warm append, force and truncate cycle allocates
// nothing either. Each cycle spans at least 4 extents: one that took a
// new extent instead of a spare would count at least 4 a call.
func TestLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f, err := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300())).Create("wal", 512)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.NewLog(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Kind: wal.KindLogicalRedo, Op: wal.OpInsert, Key: 1, Value: 2}
	// Warm the tail and the force buffer past what the runs below need.
	for i := 0; i < 600; i++ {
		l.Append(rec)
	}
	at, err := l.Force(0)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() { l.Append(rec) }); allocs != 0 {
		t.Fatalf("Log.Append allocates %.2f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		l.Append(rec)
		if at, err = l.Force(at); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Fatalf("Log.Force allocates %.2f objects per call, want 0", allocs)
	}
	if got, want := l.DurableLSN(), uint64(600+501+501); got != want {
		t.Fatalf("durable LSN %d, want %d", got, want)
	}

	undo := wal.Record{Kind: wal.KindFlushUndo, NodeID: 7, UndoInfo: make([]byte, 1000)}
	var cut int64
	cycle := func() {
		var last wal.Mark
		for i := 0; i < 300; i++ {
			last = l.AppendMark(undo)
		}
		if at, err = l.Force(at); err != nil {
			panic(err)
		}
		if cut, err = l.TruncateHead(last); err != nil {
			panic(err)
		}
		if cut < 4*ssdio.ExtentSize {
			panic("a cycle spans fewer than 4 extents")
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("an append, force and truncate cycle allocates %.2f objects, want 0", allocs)
	}
}

// flushAllocCfg is allocCfg with an OPQ that holds 420 entries, so one
// flush can take the largest batch TestFlushAllocs queues.
func flushAllocCfg() Config {
	c := allocCfg(64)
	c.OPQPages = 14
	return c
}

// flushAllocs queues size updates of loaded keys, spread evenly over the n
// records, then returns the objects flush allocates (with the queue
// filled outside the count).
func flushAllocs(t *testing.T, n, size, round int, update func(vtime.Ticks, kv.Record) (vtime.Ticks, error), flush func() error) uint64 {
	t.Helper()
	for j := 0; j < size; j++ {
		i := (j*n/size + round*13) % n
		if _, err := update(0, kv.Record{Key: kv.Key(i*8 + 3), Value: kv.Value(round)}); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := flush()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestFlushAllocs gates the write path. On a warm height-3, L = 4 tree
// with a WAL, a flush whose every leaf takes the append arm edits the
// pages where it read them, in the tree's flush arena, and reuses the
// OPQ's batch; the group commit around it, a group of one on a one-shard
// forest or four members on a 4-shard forest, keeps its bookkeeping in
// the shards' member slots and on the stack, and a data gang above the
// stack's 64 requests describes itself to the device in the Space's kept
// request array. Each commit cuts the log head, and the extents it
// releases take the next flush's log writes. So in steady state a flush
// allocates a small constant, at most 2 objects, the same for 50, 200 or
// 400 entries.
func TestFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 20000
	// check warms the flush path with three flushes of the largest batch,
	// then measures three of each size over n loaded records: every one
	// stays within limit, and within 2 objects of every other — a retained
	// buffer may still grow once.
	check := func(t *testing.T, n int, limit uint64, update func(vtime.Ticks, kv.Record) (vtime.Ticks, error), flush func() error) {
		t.Helper()
		round := 0
		for ; round < 3; round++ {
			flushAllocs(t, n, 400, round, update, flush)
		}
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for _, size := range []int{50, 200, 400} {
			for i := 0; i < 3; i++ {
				round++
				got := flushAllocs(t, n, size, round, update, flush)
				lo, hi = min(lo, got), max(hi, got)
				if got > limit {
					t.Errorf("a flush of %d entries allocated %d objects, want <= %d", size, got, limit)
				}
			}
		}
		t.Logf("flushes allocated %d to %d objects", lo, hi)
		if hi > lo+2 {
			t.Errorf("flushes allocated from %d to %d objects, want one constant", lo, hi)
		}
	}

	t.Run("Tree", func(t *testing.T) {
		// A one-shard forest: a logged tree flushes as a group of one.
		fr, _, _, _ := buildTestForest(t, Spec{Shards: 1, WAL: true, Forest: ForestConfig{Shard: flushAllocCfg()}})
		if err := fr.BulkLoad(allocRecs(n)); err != nil {
			t.Fatal(err)
		}
		if h := fr.Height(); h != 3 {
			t.Fatalf("height %d, want 3", h)
		}
		var at vtime.Ticks
		check(t, n, 2, fr.Update, func() (err error) {
			at, err = fr.Flush(at)
			return err
		})
		if st := fr.ShardTree(0).Stats(); st.Shrinks != 0 || st.LeafAppends == 0 {
			t.Fatalf("not append-only: %+v", st)
		}
	})
	t.Run("Forest", func(t *testing.T) {
		cfg := flushAllocCfg()
		cfg.OPQPages *= 4
		cfg.BufferBytes *= 4
		fr, _, space := newWALForest(t, ForestConfig{RipeFraction: 0.01, Shard: cfg}, 4)
		if err := fr.BulkLoad(allocRecs(4 * n)); err != nil {
			t.Fatal(err)
		}
		if h := fr.Height(); h != 3 {
			t.Fatalf("height %d, want 3", h)
		}
		before := fr.Stats()
		var at vtime.Ticks
		// Updates spread over the whole key space fill every shard's queue
		// alike; Flush runs one group flush over all of them.
		check(t, 4*n, 2, fr.Update, func() (err error) {
			at, err = fr.Flush(at)
			return err
		})
		st := fr.Stats()
		if groups, members := st.GroupFlushes-before.GroupFlushes, st.GroupedShards-before.GroupedShards; members != 4*groups {
			t.Fatalf("%d group flushes flushed %d shards, want 4 each", groups, members)
		}
		for _, s := range fr.shards {
			if ts := s.tree.Stats(); ts.Shrinks != 0 {
				t.Fatalf("not append-only: %+v", ts)
			}
		}
		// One more flush of the largest batch, watched by an injector that
		// faults nothing: its data gang spans the four shards with more
		// requests than the stack's 64, the case the Space's array serves.
		var gang gangCounter
		space.SetInjector(&gang)
		before = fr.Stats()
		flushAllocs(t, 4*n, 400, 100, fr.Update, func() (err error) {
			at, err = fr.Flush(at)
			return err
		})
		space.SetInjector(nil)
		if gangs := fr.Stats().GangSubmits - before.GangSubmits; gangs != 1 || gang.dataReqs <= 64 {
			t.Fatalf("%d data gangs of %d requests in all, want one of more than 64", gangs, gang.dataReqs)
		}
	})
}

// gangCounter is an Injector that faults nothing and counts the requests
// of the gang members on data files (the shards, not their logs).
type gangCounter struct{ dataReqs int }

func (g *gangCounter) Decide(file, call string, _ vtime.Ticks, reqs []ssdio.Req) ssdio.FaultDecision {
	if call == ssdio.CallGang && strings.HasPrefix(file, "shard") {
		g.dataReqs += len(reqs)
	}
	return ssdio.FaultDecision{}
}

// mapSink keeps TestScanAllocs' reference map on the heap, where a
// returned map lives.
var mapSink map[kv.Key]kv.Value

// TestScanAllocs gates the scan path on a warm L = 4 tree whose pool holds
// the internal level, with a queued overlay in the scanned ranges: prange
// and MPSearch read into the tree's arena, resolve each leaf from its
// view and merge in place, so all they allocate is their result.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 4000
	// queue adds a queued delete of a loaded key and a queued insert
	// between two loaded keys every 400 keys.
	queue := func(at vtime.Ticks, insert func(vtime.Ticks, kv.Record) (vtime.Ticks, error), del func(vtime.Ticks, kv.Key) (vtime.Ticks, error), n int) vtime.Ticks {
		for i := 50; i < n; i += 400 {
			var err error
			if at, err = del(at, kv.Key(i*8+3)); err != nil {
				t.Fatal(err)
			}
			if at, err = insert(at, kv.Record{Key: kv.Key(i*8 + 100), Value: 7}); err != nil {
				t.Fatal(err)
			}
		}
		return at
	}
	// ranges returns an AllocsPerRun body: a range of 100 loaded keys,
	// each checked, then the next range.
	ranges := func(n int, search func(vtime.Ticks, kv.Key, kv.Key) ([]kv.Record, vtime.Ticks, error), at *vtime.Ticks, failure *string) func() {
		i := 0
		return func() {
			i = (i + 37) % (n - 100)
			lo, hi := kv.Key(i*8), kv.Key((i+100)*8)
			recs, done, err := search(*at, lo, hi)
			*at = done
			if err != nil || len(recs) < 99 || len(recs) > 101 || recs[0].Key < lo || recs[len(recs)-1].Key >= hi {
				*failure = fmt.Sprintf("RangeSearch(%d, %d): %d records, %v", lo, hi, len(recs), err)
			}
		}
	}

	t.Run("Tree", func(t *testing.T) {
		tr := newTestTree(t, allocCfg(64))
		if err := tr.BulkLoad(allocRecs(n)); err != nil {
			t.Fatal(err)
		}
		at := queue(0, tr.Insert, tr.Delete, n)
		var failure string
		if allocs := testing.AllocsPerRun(200, ranges(n, tr.RangeSearch, &at, &failure)); allocs > 1 {
			t.Fatalf("Tree.RangeSearch allocates %.2f objects per call, want <= 1", allocs)
		}
		if failure != "" {
			t.Fatal(failure)
		}

		keys := make([]kv.Key, 64)
		j := 0
		draw := func() {
			for k := range keys {
				j = (j + 7919) % (2 * n)
				keys[k] = kv.Key(j/2*8 + 3 + j%2)
			}
		}
		bound := testing.AllocsPerRun(200, func() {
			draw()
			mapSink = make(map[kv.Key]kv.Value, len(keys))
			for _, k := range keys {
				mapSink[k] = 1
			}
		})
		allocs := testing.AllocsPerRun(200, func() {
			draw()
			m, done, err := tr.SearchMany(at, keys)
			at = done
			for _, k := range keys {
				v, ok := m[k]
				// Loaded keys are 8i+3, less the queued deletes; the queued
				// inserts are 8i+100 = 8(i+12)+4.
				wv, wok := kv.Value((k-3)/8), k%8 == 3 && (k-3)/8%400 != 50
				if k%8 == 4 && (k-100)/8%400 == 50 {
					wv, wok = 7, true
				}
				if err != nil || ok != wok || ok && v != wv {
					failure = fmt.Sprintf("SearchMany[%d] = %d, %v, %v", k, v, ok, err)
				}
			}
		})
		if failure != "" {
			t.Fatal(failure)
		}
		if allocs > bound {
			t.Fatalf("Tree.SearchMany allocates %.2f objects per call, its result map alone %.2f", allocs, bound)
		}
	})
	t.Run("Forest", func(t *testing.T) {
		// Two range shards; every range falls inside one of them.
		fr := newTestForest(t, 2, allocCfg(128), RangePartitioner{Bounds: []kv.Key{kv.Key(n * 8)}})
		if err := fr.BulkLoad(allocRecs(2 * n)); err != nil {
			t.Fatal(err)
		}
		at := queue(0, fr.Insert, fr.Delete, 2*n)
		var failure string
		if allocs := testing.AllocsPerRun(200, ranges(n, fr.RangeSearch, &at, &failure)); allocs > 2 {
			t.Fatalf("Forest.RangeSearch allocates %.2f objects per call, want <= 2", allocs)
		}
		if failure != "" {
			t.Fatal(failure)
		}
	})
}
