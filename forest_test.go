package pio

import (
	"errors"
	"sync"
	"testing"
)

func TestForestFacadeFlow(t *testing.T) {
	dev := NewDevice(Iodrive)
	fr, err := OpenForest(dev, DefaultForestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Shards() != 4 {
		t.Fatalf("shards %d", fr.Shards())
	}
	recs := make([]Record, 3000)
	for i := range recs {
		recs[i] = Record{Key: Key(i * 4), Value: Value(i)}
	}
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	var clock Clock
	for i := uint64(0); i < 5000; i++ {
		done, err := fr.Insert(clock.Now(), Record{Key: 100000 + i*2 + 1, Value: i})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	v, ok, done, err := fr.Search(clock.Now(), 4000)
	if err != nil || !ok || v != 1000 {
		t.Fatalf("Search: %v %v %v", v, ok, err)
	}
	clock.Advance(done)
	rs, done, err := fr.RangeSearch(clock.Now(), 400, 800)
	if err != nil || len(rs) != 100 {
		t.Fatalf("Range: %d %v", len(rs), err)
	}
	clock.Advance(done)
	got, done, err := fr.SearchMany(clock.Now(), []Key{0, 4, 8, 7777777})
	if err != nil || len(got) != 3 {
		t.Fatalf("SearchMany: %v %v", got, err)
	}
	clock.Advance(done)
	done, err = fr.Checkpoint(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Pending() != 0 {
		t.Fatalf("pending %d after checkpoint", fr.Pending())
	}
	if fr.Count() != 8000 {
		t.Fatalf("count %d", fr.Count())
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := fr.Stats()
	if st.Shards != 4 || st.Tree.Flushes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	_ = done
}

func TestForestFacadeGoroutines(t *testing.T) {
	dev := NewDevice(P300)
	opts := DefaultForestOptions()
	opts.Shards = 3
	opts.OPQPages = 3
	fr, err := OpenForest(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var clock Clock
			base := Key(w) * 1_000_000
			for i := uint64(0); i < 500; i++ {
				done, err := fr.Insert(clock.Now(), Record{Key: base + Key(i), Value: i})
				if err != nil {
					t.Error(err)
					return
				}
				clock.Advance(done)
				if i%5 == 0 {
					_, _, done, err := fr.Search(clock.Now(), base+Key(i))
					if err != nil {
						t.Error(err)
						return
					}
					clock.Advance(done)
				}
			}
		}(w)
	}
	wg.Wait()
	if fr.Count() != 6*500 {
		t.Fatalf("count %d, want %d", fr.Count(), 6*500)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForestRangePartition(t *testing.T) {
	dev := NewDevice(F120)
	opts := DefaultForestOptions()
	opts.Shards = 2
	opts.RangeBounds = []Key{1000}
	fr, err := OpenForest(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	for i := uint64(0); i < 2000; i++ {
		done, err := fr.Insert(clock.Now(), Record{Key: Key(i), Value: i})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	rs, _, err := fr.RangeSearch(clock.Now(), 990, 1010)
	if err != nil || len(rs) != 20 {
		t.Fatalf("cross-boundary range: %d %v", len(rs), err)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Bad bounds length rejected.
	bad := DefaultForestOptions()
	bad.Shards = 3
	bad.RangeBounds = []Key{1}
	if _, err := OpenForest(dev, bad); err == nil {
		t.Fatal("accepted wrong bounds length")
	}
	// Unsorted bounds rejected.
	bad = DefaultForestOptions()
	bad.Shards = 3
	bad.RangeBounds = []Key{500, 100}
	if _, err := OpenForest(dev, bad); err == nil {
		t.Fatal("accepted unsorted bounds")
	}
	// Duplicate bounds rejected.
	bad = DefaultForestOptions()
	bad.Shards = 3
	bad.RangeBounds = []Key{500, 500}
	if _, err := OpenForest(dev, bad); err == nil {
		t.Fatal("accepted duplicate bounds")
	}
}

// TestForestWALZeroValueOptions: requesting WAL with otherwise zero-value
// options must not silently drop durability when the tree knobs default.
func TestForestWALZeroValueOptions(t *testing.T) {
	dev := NewDevice(P300)
	fr, err := OpenForest(dev, ForestOptions{Options: Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	for i := uint64(0); i < 200; i++ {
		done, err := fr.Insert(clock.Now(), Record{Key: i, Value: i})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	done, err := fr.Sync(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	fr.Crash()
	rep, _, err := fr.Recover(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.RedoneEntries != 200 {
		t.Fatalf("redone %d, want 200 (WAL dropped by defaulting?)", rep.Total.RedoneEntries)
	}
	if got := fr.Count(); got != 200 {
		t.Fatalf("count %d, want 200", got)
	}
}

// TestForestZeroValueOptionsKeepRetry: defaulting the tree knobs must
// keep the caller's retry policy. With retries disabled, a search that
// hits a transient read fault fails at once instead of retrying.
func TestForestZeroValueOptionsKeepRetry(t *testing.T) {
	dev := NewDevice(P300)
	fr, err := OpenForest(dev, ForestOptions{
		Options: Options{Retry: RetryPolicy{Disabled: true}},
		Shards:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{Key: Key(i), Value: Value(i)}
	}
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.InjectFaults("transient p=1", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fr.Search(0, 500); err == nil {
		t.Fatal("search succeeded on a device that fails every read")
	}
	if st := fr.Stats(); st.IORetries != 0 {
		t.Fatalf("%d I/O retries with Retry.Disabled set", st.IORetries)
	}
}

// TestForestWALCrashRecovery drives the façade's durability path: flushed
// work, Sync-committed buffered work, and an uncommitted tail, then
// Crash + Recover.
func TestForestWALCrashRecovery(t *testing.T) {
	dev := NewDevice(P300)
	opts := DefaultForestOptions()
	opts.WAL = true
	fr, err := OpenForest(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	insert := func(k Key) {
		done, err := fr.Insert(clock.Now(), Record{Key: k, Value: uint64(k) + 7})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	for i := 0; i < 1000; i++ {
		insert(Key(i))
	}
	done, err := fr.Flush(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	for i := 1000; i < 1100; i++ {
		insert(Key(i))
	}
	done, err = fr.Sync(clock.Now()) // commit the buffered tail
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	for i := 1100; i < 1150; i++ {
		insert(Key(i)) // uncommitted: lost at the crash
	}

	fr.Crash()
	rep, done, err := fr.Recover(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	if rep.Total.RedoneEntries == 0 {
		t.Fatalf("no entries redone: %+v", rep.Total)
	}
	for i := 0; i < 1150; i++ {
		v, ok, d, err := fr.Search(clock.Now(), Key(i))
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(d)
		if i < 1100 && (!ok || v != uint64(i)+7) {
			t.Fatalf("committed key %d lost: %v %v", i, v, ok)
		}
		if i >= 1100 && ok {
			t.Fatalf("uncommitted key %d resurrected", i)
		}
	}
	if got := fr.Count(); got != 1100 {
		t.Fatalf("count %d, want 1100", got)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := fr.Stats()
	if st.LogSubmits == 0 {
		t.Fatal("no log submissions recorded")
	}
}

// TestForestRebalanceFacade exercises the public online-rebalancing API:
// split under live WAL, recovery keeps the flipped routing, merge
// empties a shard, and AutoRebalance reacts to a hotspot.
func TestForestRebalanceFacade(t *testing.T) {
	dev := NewDevice(P300)
	opts := DefaultForestOptions()
	opts.WAL = true
	opts.Shards = 4
	opts.RangeBounds = []Key{1 << 20, 2 << 20, 3 << 20}
	fr, err := OpenForest(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	const perShard = 200
	for j := 0; j < perShard; j++ {
		for s := uint64(0); s < 4; s++ {
			k := s<<20 + uint64(j)
			done, err := fr.Insert(clock.Now(), Record{Key: k, Value: k + 1})
			if err != nil {
				t.Fatal(err)
			}
			clock.Advance(done)
		}
	}
	done, err := fr.Checkpoint(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)

	// Split shard 0's upper half away.
	dst, done, err := fr.SplitShard(clock.Now(), 0, perShard/2)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	st := fr.Stats()
	if st.Migrations != 1 || st.MigratedKeys != perShard/2 {
		t.Fatalf("stats after split: %+v", st)
	}
	if len(st.ShardLoads) != 4 {
		t.Fatalf("shard loads: %v", st.ShardLoads)
	}
	if got := fr.Routing().Shard(perShard/2 + 1); got != dst {
		t.Fatalf("split key routes to %d, want %d", got, dst)
	}

	// Crash + recover: the committed flip survives.
	fr.Crash()
	if _, done, err = fr.Recover(clock.Now()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	if got := fr.Routing().Shard(perShard/2 + 1); got != dst {
		t.Fatalf("post-recovery routing %d, want %d", got, dst)
	}
	if got, want := fr.Count(), int64(4*perShard); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	v, ok, done, err := fr.Search(clock.Now(), perShard/2+1)
	if err != nil || !ok || v != uint64(perShard/2+2) {
		t.Fatalf("moved key: %v %v %v", v, ok, err)
	}
	clock.Advance(done)

	// Merge it back; the emptied donor keeps serving.
	done, err = fr.MergeShards(clock.Now(), 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	if got := fr.Routing().Shard(perShard/2 + 1); got != 0 {
		t.Fatalf("merged key routes to %d, want 0", got)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := fr.Count(), int64(4*perShard); got != want {
		t.Fatalf("count after merge %d, want %d", got, want)
	}
}

// TestForestFacadeSurface drives the façade methods nothing else runs:
// Update, Delete, Height, StartMigration with Step, AutoRebalance, and the
// degraded-mode path — a dead log device quarantines its shard (writes
// rejected, committed reads served) until ClearFaults and Heal re-admit
// it.
func TestForestFacadeSurface(t *testing.T) {
	dev := NewDevice(P300)
	opts := DefaultForestOptions()
	opts.WAL = true
	opts.RangeBounds = []Key{1 << 20, 2 << 20, 3 << 20}
	fr, err := OpenForest(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	advance := func(done Ticks, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	want := make(map[Key]Value)
	check := func() {
		t.Helper()
		for k, v := range want {
			got, ok, done, err := fr.Search(clock.Now(), k)
			if err != nil || !ok || got != v {
				t.Fatalf("Search(%d) = %v %v %v, want %v", k, got, ok, err, v)
			}
			clock.Advance(done)
		}
		if got := fr.Count(); got != int64(len(want)) {
			t.Fatalf("count %d, want %d", got, len(want))
		}
	}

	const perShard = 300
	for j := 0; j < perShard; j++ {
		for s := Key(0); s < 4; s++ {
			k := s<<20 + Key(j)
			advance(fr.Insert(clock.Now(), Record{Key: k, Value: k + 1}))
			want[k] = k + 1
		}
	}
	for j := 0; j < perShard; j += 3 {
		for s := Key(0); s < 4; s++ {
			k := s<<20 + Key(j)
			advance(fr.Update(clock.Now(), Record{Key: k, Value: k + 2}))
			want[k] = k + 2
		}
	}
	for j := 1; j < perShard; j += 5 {
		for s := Key(0); s < 4; s++ {
			k := s<<20 + Key(j)
			advance(fr.Delete(clock.Now(), k))
			delete(want, k)
		}
	}
	advance(fr.Checkpoint(clock.Now()))
	if h := fr.Height(); h < 1 {
		t.Fatalf("height %d", h)
	}
	check()

	// Move shard 0's upper half to shard 3 one chunk at a time.
	m, done, err := fr.StartMigration(clock.Now(), perShard/2, 1<<20, 0, 3)
	advance(done, err)
	for finished := false; !finished; {
		finished, done, err = m.Step(clock.Now())
		advance(done, err)
	}
	if got := fr.Routing().Shard(perShard - 1); got != 3 {
		t.Fatalf("migrated key routes to %d, want 3", got)
	}
	check()

	// A read hotspot on shard 1 makes AutoRebalance split it.
	for i := 0; i < 4000; i++ {
		_, _, done, err := fr.Search(clock.Now(), 1<<20+Key(i%perShard))
		advance(done, err)
	}
	moved, from, _, done, err := fr.AutoRebalance(clock.Now(), RebalancePolicy{MinOps: 1000})
	advance(done, err)
	if !moved || from != 1 {
		t.Fatalf("AutoRebalance moved=%v from=%d, want a split of shard 1", moved, from)
	}
	check()

	// Shard 2's log device goes read-only: its next flush cannot force, so
	// the shard rolls back to its committed state and quarantines. The
	// checkpoint empties every queue, so the flush picks shard 2.
	const victim = 2
	advance(fr.Checkpoint(clock.Now()))
	if _, err := dev.InjectFaults("readonly file=pio-1-wal2", 1); err != nil {
		t.Fatal(err)
	}
	var accepted []Key
	for j := perShard; j < perShard+10; j++ {
		k := victim<<20 + Key(j)
		advance(fr.Insert(clock.Now(), Record{Key: k, Value: k + 1}))
		accepted = append(accepted, k)
	}
	advance(fr.Flush(clock.Now()))
	if q := fr.Quarantined(); len(q) != 1 || q[0] != victim {
		t.Fatalf("Quarantined() = %v, want [%d]", q, victim)
	}
	if _, err := fr.Insert(clock.Now(), Record{Key: victim << 20, Value: 1}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("write to quarantined shard: %v, want ErrShardQuarantined", err)
	}
	check()

	dev.ClearFaults()
	advance(fr.Heal(clock.Now(), victim))
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after Heal", q)
	}
	for _, k := range accepted {
		want[k] = k + 1
	}
	k := victim<<20 + Key(perShard+10)
	advance(fr.Insert(clock.Now(), Record{Key: k, Value: k + 1}))
	want[k] = k + 1
	check()
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
