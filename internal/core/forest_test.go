package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// buildTestForest builds s on a fresh simulated device with 3 MiB of
// capacity per shard (4 MiB data files) and the stuck-I/O watchdog
// disarmed: hangs a test injects run their course as latency unless the
// test arms the watchdog itself.
func buildTestForest(t *testing.T, s Spec) (*Forest, *ssdio.Space, []*pagefile.PageFile, []*wal.Log) {
	t.Helper()
	space := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300()))
	s.Capacity = int64(s.Shards) * (3 << 20)
	fr, pfs, logs, err := Build(space, s)
	if err != nil {
		t.Fatal(err)
	}
	space.SetStuckTimeout(0)
	return fr, space, pfs, logs
}

// newTestForest builds a forest of n shards on a fresh simulated device.
func newTestForest(t *testing.T, n int, cfg Config, part Partitioner) *Forest {
	t.Helper()
	fr, _, _, _ := buildTestForest(t, Spec{Shards: n, Forest: ForestConfig{Partitioner: part, Shard: cfg}})
	return fr
}

// forestCfg is smallCfg with a global OPQ/buffer budget worth splitting.
func forestCfg() Config {
	c := smallCfg()
	c.OPQPages = 4
	c.BufferBytes = 32 * 1024
	return c
}

func TestForestMatchesModel(t *testing.T) {
	fr := newTestForest(t, 4, forestCfg(), nil)
	model := map[kv.Key]kv.Value{}
	var recs []kv.Record
	for i := 0; i < 500; i++ {
		k := kv.Key(i*16 + 8)
		recs = append(recs, kv.Record{Key: k, Value: kv.Value(i)})
		model[k] = kv.Value(i)
	}
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	var now vtime.Ticks
	var err error
	// Mixed inserts, updates and deletes driven from one timeline. The
	// workload is disciplined as the tree's count tracking requires:
	// inserts are fresh keys, updates target live never-deleted keys, and
	// each deleted key is deleted exactly once.
	deleted := 0
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0, 1:
			k := kv.Key(i*16 + 1)
			now, err = fr.Insert(now, kv.Record{Key: k, Value: kv.Value(i)})
			model[k] = kv.Value(i)
		case 2:
			k := kv.Key((300+i%200)*16 + 8)
			now, err = fr.Update(now, kv.Record{Key: k, Value: kv.Value(i + 7)})
			model[k] = kv.Value(i + 7)
		default:
			if deleted < 300 {
				k := kv.Key(deleted*16 + 8)
				now, err = fr.Delete(now, k)
				delete(model, k)
				deleted++
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = fr.Checkpoint(now)
	if err != nil {
		t.Fatal(err)
	}
	if p := fr.Pending(); p != 0 {
		t.Fatalf("pending after checkpoint: %d", p)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, want := range model {
		v, ok, _, err := fr.Search(now, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != want {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", k, v, ok, want)
		}
	}
	// Deleted keys absent.
	if _, ok, _, _ := fr.Search(now, kv.Key(0*16+8)); ok {
		t.Fatal("deleted key still found")
	}
	if got := fr.Count(); got != int64(len(model)) {
		t.Fatalf("count %d, want %d", got, len(model))
	}
}

func TestForestRangeAndSearchMany(t *testing.T) {
	for _, part := range []Partitioner{
		nil, // hash
		RangePartitioner{Bounds: []kv.Key{4000, 8000, 12000}},
	} {
		fr := newTestForest(t, 4, forestCfg(), part)
		var recs []kv.Record
		for i := 0; i < 1000; i++ {
			recs = append(recs, kv.Record{Key: kv.Key(i * 16), Value: kv.Value(i)})
		}
		if err := fr.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		var now vtime.Ticks
		var err error
		for i := 1000; i < 1200; i++ {
			now, err = fr.Insert(now, kv.Record{Key: kv.Key(i * 16), Value: kv.Value(i)})
			if err != nil {
				t.Fatal(err)
			}
		}
		// Range spanning shard boundaries, half on disk, half in OPQs.
		lo, hi := kv.Key(15800), kv.Key(16400)
		got, now, err := fr.RangeSearch(now, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var want []kv.Record
		for i := 0; i < 1200; i++ {
			k := kv.Key(i * 16)
			if k >= lo && k < hi {
				want = append(want, kv.Record{Key: k, Value: kv.Value(i)})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("range: got %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range[%d]: got %v, want %v", i, got[i], want[i])
			}
		}
		// SearchMany across shards.
		keys := []kv.Key{0, 16 * 500, 16 * 1100, 16*1199 + 1}
		m, _, err := fr.SearchMany(now, keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 3 {
			t.Fatalf("searchmany found %d keys, want 3", len(m))
		}
		if m[16*500] != 500 || m[16*1100] != 1100 {
			t.Fatalf("searchmany wrong values: %v", m)
		}
	}
}

// TestForestSingleShardMatchesTree checks that a one-shard forest — the
// paper's Section 4 scheme over the whole index — costs nothing on one
// clock: its locks never make a single caller wait, so every op of all
// five kinds, and the final checkpoint against the bare tree's drain,
// completes at the bare tree's tick.
func TestForestSingleShardMatchesTree(t *testing.T) {
	cfg := forestCfg()
	tr := newTestTree(t, cfg)
	fr := newTestForest(t, 1, cfg, nil)

	var recs []kv.Record
	for i := 0; i < 400; i++ {
		recs = append(recs, kv.Record{Key: kv.Key(i*16 + 8), Value: kv.Value(i)})
	}
	if err := tr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}

	var tt, tf vtime.Ticks
	for i := 0; i < 3000; i++ {
		var err1, err2 error
		switch loaded := kv.Key((i%400)*16 + 8); i % 5 {
		case 0:
			v1, ok1, t1, e1 := tr.Search(tt, loaded)
			v2, ok2, t2, e2 := fr.Search(tf, loaded)
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("op %d: search %d: tree (%d, %v), forest (%d, %v)", i, loaded, v1, ok1, v2, ok2)
			}
			tt, tf, err1, err2 = t1, t2, e1, e2
		case 1:
			r1, t1, e1 := tr.RangeSearch(tt, loaded, loaded+160)
			r2, t2, e2 := fr.RangeSearch(tf, loaded, loaded+160)
			if !slices.Equal(r1, r2) {
				t.Fatalf("op %d: range from %d: tree %v, forest %v", i, loaded, r1, r2)
			}
			tt, tf, err1, err2 = t1, t2, e1, e2
		case 2:
			r := kv.Record{Key: kv.Key(i*16 + 1), Value: kv.Value(i)}
			tt, err1 = tr.Insert(tt, r)
			tf, err2 = fr.Insert(tf, r)
		case 3:
			r := kv.Record{Key: loaded, Value: kv.Value(i)}
			tt, err1 = tr.Update(tt, r)
			tf, err2 = fr.Update(tf, r)
		default:
			k := kv.Key((i-2)*16 + 1) // the insert two ops back
			tt, err1 = tr.Delete(tt, k)
			tf, err2 = fr.Delete(tf, k)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if tt != tf {
			t.Fatalf("op %d: tree at %d, single-shard forest at %d", i, tt, tf)
		}
	}
	if tr.Stats().Flushes == 0 {
		t.Fatal("no flushes: the flush lock was never taken")
	}
	tt, err1 := tr.drain(tt)
	tf, err2 := fr.Checkpoint(tf)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if tt != tf {
		t.Fatalf("checkpoint: tree at %d, single-shard forest at %d", tt, tf)
	}
	if tr.Count() != fr.Count() {
		t.Fatalf("count: tree %d, single-shard forest %d", tr.Count(), fr.Count())
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFlushBlocksReaders: a flush holds the one-shard forest's
// virtual index lock; a reader arriving at time 0 must start no earlier
// than the lock frees. The reader's key sits in the OPQ, so the search
// does no I/O and only the lock, not the busy device, can delay it.
func TestConcurrentFlushBlocksReaders(t *testing.T) {
	cfg := smallCfg()
	cfg.OPQPages = 1
	fr := newTestForest(t, 1, cfg, nil)
	s := fr.shards[0]
	var at vtime.Ticks
	var err error
	// Fill the OPQ exactly; the next insert triggers a locked flush, then
	// queues its own key.
	last := kv.Key(s.tree.opq.Cap())
	for k := kv.Key(0); k <= last; k++ {
		at, err = fr.Insert(at, kv.Record{Key: k, Value: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	free := s.vlock.FreeAt()
	if free <= 0 {
		t.Fatal("flush never held the index lock")
	}
	_, found, done, err := fr.Search(0, last)
	if err != nil || !found {
		t.Fatalf("search %d: found %v, err %v", last, found, err)
	}
	if done < free {
		t.Fatalf("reader at 0 done at %d, before the flush lock frees at %d", done, free)
	}
}

// TestForestGroupFlushMerges drives enough inserts to fill several shard
// OPQs and checks the coordinator actually merged flushes into gang
// submissions.
func TestForestGroupFlushMerges(t *testing.T) {
	cfg := forestCfg()
	cfg.OPQPages = 4 // global; 1 page per shard
	fr := newTestForest(t, 4, cfg, nil)
	var recs []kv.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, kv.Record{Key: kv.Key(i*16 + 8), Value: kv.Value(i)})
	}
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	var now vtime.Ticks
	var err error
	for i := 0; i < 4000; i++ {
		now, err = fr.Insert(now, kv.Record{Key: kv.Key(i*16 + 3), Value: kv.Value(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := fr.Stats()
	if st.GroupFlushes == 0 {
		t.Fatal("no group flushes")
	}
	if st.GangSubmits == 0 {
		t.Fatal("no merged gang submissions: shards never flushed together")
	}
	if st.GroupedShards <= st.GroupFlushes {
		t.Fatalf("no merging: %d shards over %d group flushes", st.GroupedShards, st.GroupFlushes)
	}
	if st.Tree.GangedWrites == 0 {
		t.Fatal("no write batches were deferred into gangs")
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRangePartitionerRouting(t *testing.T) {
	p := RangePartitioner{Bounds: []kv.Key{100, 200}}
	if p.Shards() != 3 {
		t.Fatalf("shards %d", p.Shards())
	}
	cases := map[kv.Key]int{0: 0, 99: 0, 100: 1, 199: 1, 200: 2, 1 << 40: 2}
	for k, want := range cases {
		if got := p.Shard(k); got != want {
			t.Fatalf("shard(%d) = %d, want %d", k, got, want)
		}
	}
	if got := p.RangeShards(50, 150); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("rangeshards(50,150) = %v", got)
	}
	if got := p.RangeShards(120, 121); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rangeshards(120,121) = %v", got)
	}
	if got := p.RangeShards(10, 10); got != nil {
		t.Fatalf("empty range gave %v", got)
	}
}

func TestForestRejectsBadConfig(t *testing.T) {
	cfg := forestCfg()
	dev := flashsim.MustDevice(flashsim.P300())
	space := ssdio.NewSpace(dev)
	f, _ := space.Create("s0", 1<<20)
	pf, _ := pagefile.New(f, cfg.PageSize)
	if _, err := NewForest(nil, ForestConfig{Shard: cfg}); err == nil {
		t.Fatal("accepted zero shards")
	}
	if _, err := NewForest([]*pagefile.PageFile{pf}, ForestConfig{
		Partitioner: HashPartitioner{N: 2}, Shard: cfg,
	}); err == nil {
		t.Fatal("accepted mismatched partitioner")
	}
	if _, err := NewForest([]*pagefile.PageFile{pf}, ForestConfig{
		Partitioner: RangePartitioner{}, Shard: cfg,
	}); err != nil {
		t.Fatalf("single-shard range partitioner rejected: %v", err)
	}
	ablated := cfg
	ablated.DisablePsync = true
	if _, err := NewForest([]*pagefile.PageFile{pf}, ForestConfig{Shard: ablated}); err == nil {
		t.Fatal("accepted DisablePsync")
	}
}

// TestValidatePartitioner covers the shard-configuration validation: a
// HashPartitioner with N <= 0 would divide by zero on the first Shard
// call, and RangePartitioner bounds must be strictly ascending.
func TestValidatePartitioner(t *testing.T) {
	if err := validatePartitioner(HashPartitioner{N: 0}, 0); err == nil {
		t.Fatal("HashPartitioner{N:0} accepted")
	}
	if err := validatePartitioner(HashPartitioner{N: -3}, -3); err == nil {
		t.Fatal("HashPartitioner{N:-3} accepted")
	}
	if err := validatePartitioner(HashPartitioner{N: 4}, 4); err != nil {
		t.Fatalf("valid hash partitioner rejected: %v", err)
	}
	if err := validatePartitioner(RangePartitioner{Bounds: []kv.Key{10, 10}}, 3); err == nil {
		t.Fatal("duplicate range bounds accepted")
	}
	if err := validatePartitioner(RangePartitioner{Bounds: []kv.Key{20, 10}}, 3); err == nil {
		t.Fatal("descending range bounds accepted")
	}
	if err := validatePartitioner(RangePartitioner{Bounds: []kv.Key{10, 20}}, 3); err != nil {
		t.Fatalf("valid range partitioner rejected: %v", err)
	}
}

// TestForestRejectsBadRangeBounds: NewForest must reject unsorted and
// duplicate RangePartitioner bounds with a clear error.
func TestForestRejectsBadRangeBounds(t *testing.T) {
	cfg := forestCfg()
	dev := flashsim.MustDevice(flashsim.P300())
	space := ssdio.NewSpace(dev)
	pfs := make([]*pagefile.PageFile, 3)
	for i := range pfs {
		f, _ := space.Create(fmt.Sprintf("s%d", i), 1<<20)
		pfs[i], _ = pagefile.New(f, cfg.PageSize)
	}
	for _, bounds := range [][]kv.Key{{50, 50}, {100, 50}} {
		if _, err := NewForest(pfs, ForestConfig{
			Partitioner: RangePartitioner{Bounds: bounds}, Shard: cfg,
		}); err == nil {
			t.Fatalf("bounds %v accepted", bounds)
		}
	}
}

// TestForestRejectsBadLogs: the WAL attachment must be none or exactly
// one distinct, non-nil log per shard.
func TestForestRejectsBadLogs(t *testing.T) {
	cfg := forestCfg()
	dev := flashsim.MustDevice(flashsim.P300())
	space := ssdio.NewSpace(dev)
	pfs := make([]*pagefile.PageFile, 3)
	logs := make([]*wal.Log, 3)
	for i := range pfs {
		f, _ := space.Create(fmt.Sprintf("s%d", i), 1<<20)
		pfs[i], _ = pagefile.New(f, cfg.PageSize)
		wf, _ := space.Create(fmt.Sprintf("wal%d", i), 1<<20)
		var err error
		if logs[i], err = wal.NewLog(wf, cfg.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	l := logs[0]
	for name, bad := range map[string][]*wal.Log{
		"one log for 3 shards":  {l},
		"2 logs for 3 shards":   {logs[0], logs[1]},
		"4 logs for 3 shards":   {logs[0], logs[1], logs[2], l},
		"nil entry":             {logs[0], nil, logs[2]},
		"same log at 3 indexes": {l, l, l},
		"same log at 2 indexes": {logs[0], logs[1], logs[0]},
	} {
		if _, err := NewForest(pfs, ForestConfig{Shard: cfg, Logs: bad}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, good := range [][]*wal.Log{nil, logs} {
		if _, err := NewForest(pfs, ForestConfig{Shard: cfg, Logs: good}); err != nil {
			t.Errorf("%d logs for 3 shards rejected: %v", len(good), err)
		}
	}
}

// TestBuildLayout: Build names and sizes every file from the Spec, creates
// a log per shard only with a WAL, and arms the watchdog at the shard
// retry policy's deadline.
func TestBuildLayout(t *testing.T) {
	const capacity = 6 << 20
	cfg := forestCfg()
	cfg.Retry.StuckTimeout = 3 * vtime.Millisecond
	for _, withWAL := range []bool{true, false} {
		space := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300()))
		fr, pfs, logs, err := Build(space, Spec{
			Prefix: "p-", Shards: 3, Capacity: capacity, WAL: withWAL,
			Forest: ForestConfig{Shard: cfg},
		})
		if err != nil {
			t.Fatal(err)
		}
		if fr.ShardCount() != 3 || len(pfs) != 3 {
			t.Fatalf("WAL=%v: %d shards, %d page files, want 3", withWAL, fr.ShardCount(), len(pfs))
		}
		for i := range 3 {
			f, err := space.Open(fmt.Sprintf("p-shard%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if f.Size() != capacity/3+1<<20 {
				t.Errorf("p-shard%d is %d bytes, want %d", i, f.Size(), capacity/3+1<<20)
			}
			w, err := space.Open(fmt.Sprintf("p-wal%d", i))
			switch {
			case !withWAL && err == nil:
				t.Errorf("p-wal%d exists without a WAL", i)
			case withWAL && err != nil:
				t.Error(err)
			case withWAL && w.Size() != 16<<20:
				t.Errorf("p-wal%d is %d bytes, want %d", i, w.Size(), 16<<20)
			}
		}
		if withWAL && (len(logs) != 3 || len(fr.logs) != 3) {
			t.Errorf("%d logs returned, %d attached, want 3 each", len(logs), len(fr.logs))
		}
		if !withWAL && (logs != nil || len(fr.logs) != 0) {
			t.Errorf("no WAL: %d logs returned, %d attached", len(logs), len(fr.logs))
		}
		if got := space.StuckTimeout(); got != 3*vtime.Millisecond {
			t.Errorf("watchdog armed at %v, want 3ms", got)
		}
	}
}
