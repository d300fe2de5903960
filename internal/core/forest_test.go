package core

import (
	"fmt"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// newTestForest builds a forest of n shards on a fresh simulated device.
func newTestForest(t *testing.T, n int, cfg Config, part Partitioner) *Forest {
	t.Helper()
	dev := flashsim.MustDevice(flashsim.P300())
	space := ssdio.NewSpace(dev)
	pfs := make([]*pagefile.PageFile, n)
	for i := range pfs {
		f, err := space.Create(fmt.Sprintf("shard%d", i), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		pfs[i], err = pagefile.New(f, cfg.PageSize)
		if err != nil {
			t.Fatal(err)
		}
	}
	fr, err := NewForest(pfs, ForestConfig{Partitioner: part, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
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

// TestForestSingleShardMatchesConcurrent checks that a one-shard forest
// reproduces the Concurrent wrapper's virtual timings exactly: the forest
// generalizes the paper's scheme and must not change the single-partition
// baseline.
func TestForestSingleShardMatchesConcurrent(t *testing.T) {
	cfg := forestCfg()

	tr := newTestTree(t, cfg)
	cc := NewConcurrent(tr)
	fr := newTestForest(t, 1, cfg, nil)

	var recs []kv.Record
	for i := 0; i < 400; i++ {
		recs = append(recs, kv.Record{Key: kv.Key(i*16 + 8), Value: kv.Value(i)})
	}
	if err := cc.Tree().BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}

	var tc, tf vtime.Ticks
	for i := 0; i < 1500; i++ {
		var err1, err2 error
		if i%3 == 0 {
			_, _, tc2, e1 := cc.Search(tc, kv.Key((i%400)*16+8))
			_, _, tf2, e2 := fr.Search(tf, kv.Key((i%400)*16+8))
			tc, tf, err1, err2 = tc2, tf2, e1, e2
		} else {
			r := kv.Record{Key: kv.Key(i*16 + 1), Value: kv.Value(i)}
			tc, err1 = cc.Insert(tc, r)
			tf, err2 = fr.Insert(tf, r)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if tc != tf {
			t.Fatalf("op %d: concurrent at %d, single-shard forest at %d", i, tc, tf)
		}
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
}

// TestValidatePartitioner covers the shard-configuration validation: a
// HashPartitioner with N <= 0 would divide by zero on the first Shard
// call, and RangePartitioner bounds must be strictly ascending.
func TestValidatePartitioner(t *testing.T) {
	if err := ValidatePartitioner(HashPartitioner{N: 0}, 0); err == nil {
		t.Fatal("HashPartitioner{N:0} accepted")
	}
	if err := ValidatePartitioner(HashPartitioner{N: -3}, -3); err == nil {
		t.Fatal("HashPartitioner{N:-3} accepted")
	}
	if err := ValidatePartitioner(HashPartitioner{N: 4}, 4); err != nil {
		t.Fatalf("valid hash partitioner rejected: %v", err)
	}
	if err := ValidatePartitioner(RangePartitioner{Bounds: []kv.Key{10, 10}}, 3); err == nil {
		t.Fatal("duplicate range bounds accepted")
	}
	if err := ValidatePartitioner(RangePartitioner{Bounds: []kv.Key{20, 10}}, 3); err == nil {
		t.Fatal("descending range bounds accepted")
	}
	if err := ValidatePartitioner(RangePartitioner{Bounds: []kv.Key{10, 20}}, 3); err != nil {
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

func TestForestApplyOPQBudget(t *testing.T) {
	fr := newTestForest(t, 4, forestCfg(), nil)
	var recs []kv.Record
	for i := 0; i < 400; i++ {
		recs = append(recs, kv.Record{Key: kv.Key(i*16 + 8), Value: kv.Value(i)})
	}
	if err := fr.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	perShardBefore := fr.Stats().ShardLoads[0].OPQPages
	if perShardBefore != 1 {
		t.Fatalf("initial per-shard OPQ pages = %d, want 1 (4 pages / 4 shards)", perShardBefore)
	}
	var now vtime.Ticks
	var err error
	// Queue some updates so a shrink has something to flush.
	for i := 0; i < 200; i++ {
		now, err = fr.Insert(now, kv.Record{Key: kv.Key(i*16 + 1), Value: kv.Value(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Grow: 16 global pages -> 4 per shard.
	now, resized, skipped, err := fr.ApplyOPQBudget(now, 16)
	if err != nil || resized != 4 || skipped != 0 {
		t.Fatalf("grow: resized=%d skipped=%d err=%v", resized, skipped, err)
	}
	for i, l := range fr.Stats().ShardLoads {
		if l.OPQPages != 4 {
			t.Fatalf("shard %d OPQPages = %d after grow, want 4", i, l.OPQPages)
		}
	}
	// More traffic fills the larger queues, then shrink back to 1 page per
	// shard: the queues must be flushed down, not truncated.
	for i := 200; i < 400; i++ {
		now, err = fr.Insert(now, kv.Record{Key: kv.Key(i*16 + 1), Value: kv.Value(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	countBefore := fr.Count()
	now, resized, skipped, err = fr.ApplyOPQBudget(now, 4)
	if err != nil || resized != 4 || skipped != 0 {
		t.Fatalf("shrink: resized=%d skipped=%d err=%v", resized, skipped, err)
	}
	_ = now
	if got := fr.Count(); got != countBefore {
		t.Fatalf("shrink lost keys: count %d -> %d", countBefore, got)
	}
	for i, l := range fr.Stats().ShardLoads {
		if l.OPQPages != 1 {
			t.Fatalf("shard %d OPQPages = %d after shrink, want 1", i, l.OPQPages)
		}
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Invalid budget rejected.
	if _, _, _, err := fr.ApplyOPQBudget(now, 0); err == nil {
		t.Fatal("zero-page budget accepted")
	}
}
