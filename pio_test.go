package pio

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	dev := NewDevice(P300)
	idx, err := Open(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	for i := uint64(0); i < 5000; i++ {
		done, err := idx.Insert(clock.Now(), Record{Key: i * 2, Value: i})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	v, ok, done, err := idx.Search(clock.Now(), 4000)
	if err != nil || !ok || v != 2000 {
		t.Fatalf("Search: %v %v %v", v, ok, err)
	}
	clock.Advance(done)
	recs, done, err := idx.RangeSearch(clock.Now(), 100, 200)
	if err != nil || len(recs) != 50 {
		t.Fatalf("Range: %d %v", len(recs), err)
	}
	clock.Advance(done)
	got, done, err := idx.SearchMany(clock.Now(), []Key{2, 4, 6, 9999999})
	if err != nil || len(got) != 3 {
		t.Fatalf("SearchMany: %v %v", got, err)
	}
	clock.Advance(done)
	done, err = idx.Delete(clock.Now(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	_, ok, _, err = idx.Search(clock.Now(), 4000)
	if err != nil || ok {
		t.Fatalf("deleted key visible: %v %v", ok, err)
	}
	done, err = idx.Checkpoint(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	if idx.Pending() != 0 {
		t.Fatalf("pending after checkpoint: %d", idx.Pending())
	}
	if idx.Count() != 4999 {
		t.Fatalf("count = %d", idx.Count())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if dev.Stats().TotalOps() == 0 {
		t.Fatal("no device traffic")
	}
}

// TestIndexUpdateAndStats drives Open's Update and Stats: an update
// replaces a key's value, both while it waits in the OPQ and after the
// flush writes it to its leaf, leaves Count alone, and counts as one
// buffered update.
func TestIndexUpdateAndStats(t *testing.T) {
	dev := NewDevice(P300)
	idx, err := Open(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 10000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i) * 2, Value: uint64(i)}
	}
	if err := idx.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	var clock Clock
	count, before := idx.Count(), idx.Stats().Tree.UpdateOps
	done, err := idx.Update(clock.Now(), Record{Key: 4000, Value: 777})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	if got := idx.Stats().Tree.UpdateOps - before; got != 1 {
		t.Fatalf("Stats().UpdateOps grew by %d for one update, want 1", got)
	}
	check := func(when string) {
		t.Helper()
		v, ok, done, err := idx.Search(clock.Now(), 4000)
		if err != nil || !ok || v != 777 {
			t.Fatalf("%s: Search(4000) = %v, %v, %v; want 777", when, v, ok, err)
		}
		clock.Advance(done)
		if idx.Count() != count {
			t.Fatalf("%s: Count = %d, want %d", when, idx.Count(), count)
		}
	}
	check("buffered")
	done, err = idx.Flush(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	if idx.Pending() != 0 {
		t.Fatalf("pending after flush: %d", idx.Pending())
	}
	check("flushed")
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadAndHeight(t *testing.T) {
	dev := NewDevice(Iodrive)
	idx, err := Open(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 100000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i) * 3, Value: uint64(i)}
	}
	if err := idx.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if idx.Count() != 100000 || idx.Height() < 2 {
		t.Fatalf("count=%d height=%d", idx.Count(), idx.Height())
	}
	v, ok, _, err := idx.Search(0, 150000)
	if err != nil || !ok || v != 50000 {
		t.Fatalf("Search: %v %v %v", v, ok, err)
	}
}

func TestWALRecovery(t *testing.T) {
	dev := NewDevice(F120)
	opts := DefaultOptions()
	opts.WAL = true
	idx, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	for i := uint64(0); i < 100; i++ {
		done, err := idx.Insert(clock.Now(), Record{Key: i, Value: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	// Force the log (commit), then crash and recover.
	done, err := idx.Flush(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	idx.Crash()
	rep, done, err := idx.Recover(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	_ = rep
	for i := uint64(0); i < 100; i++ {
		v, ok, d, err := idx.Search(clock.Now(), i)
		if err != nil || !ok || v != i+1 {
			t.Fatalf("after recovery Search(%d): %v %v %v", i, v, ok, err)
		}
		clock.Advance(d)
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Iodrive, P300, F120, X25E, X25M, Vertex2} {
		d := NewDevice(p)
		if d == nil {
			t.Fatalf("nil device for %s", p)
		}
	}
	if _, err := NewDeviceNamed("bogus"); err == nil {
		t.Fatal("bogus profile accepted")
	}
}

// TestOpenZeroValueOptionsKeepWAL: defaulting the tree knobs of a
// zero-value Options must keep the caller's WAL, so Recover works.
func TestOpenZeroValueOptionsKeepWAL(t *testing.T) {
	idx, err := Open(NewDevice(P300), Options{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	var clock Clock
	for i := uint64(0); i < 100; i++ {
		done, err := idx.Insert(clock.Now(), Record{Key: i, Value: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	done, err := idx.Checkpoint(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	idx.Crash()
	if _, _, err := idx.Recover(clock.Now()); err != nil {
		t.Fatalf("Recover after Open(Options{WAL: true}): %v", err)
	}
	if got := idx.Count(); got != 100 {
		t.Fatalf("count %d, want 100", got)
	}
}

// TestOpenWALLogBounded: Open's index is a one-shard forest, so the flush
// commits that empty its queue cut its log, and a crash still recovers
// every committed key.
func TestOpenWALLogBounded(t *testing.T) {
	opts := DefaultOptions()
	opts.WAL = true
	idx, err := Open(NewDevice(P300), opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var clock Clock
	for i := uint64(0); i < n; i++ {
		done, err := idx.Insert(clock.Now(), Record{Key: i * 3, Value: i})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(done)
	}
	done, err := idx.Sync(clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	st := idx.Stats()
	if st.Tree.Flushes < 3 {
		t.Fatalf("%d flushes, want the OPQ filled several times", st.Tree.Flushes)
	}
	if st.LogTruncatedBytes <= 0 {
		t.Fatalf("log truncated %d B after %d flushes, want > 0", st.LogTruncatedBytes, st.Tree.Flushes)
	}
	idx.Crash()
	if _, done, err = idx.Recover(clock.Now()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(done)
	for i := uint64(0); i < n; i++ {
		v, ok, d, err := idx.Search(clock.Now(), i*3)
		if err != nil || !ok || v != i {
			t.Fatalf("after recovery Search(%d) = %v, %v, %v; want %d", i*3, v, ok, err, i)
		}
		clock.Advance(d)
	}
	if idx.Count() != n {
		t.Fatalf("count %d, want %d", idx.Count(), n)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenGoroutines: Open's index serves writers, readers and a
// checkpointer from separate goroutines (run under -race).
func TestOpenGoroutines(t *testing.T) {
	opts := DefaultOptions()
	opts.WAL = true
	idx, err := Open(NewDevice(P300), opts)
	if err != nil {
		t.Fatal(err)
	}
	const loaded, writers, perWriter = 2000, 4, 500
	recs := make([]Record, loaded)
	for i := range recs {
		recs[i] = Record{Key: uint64(i) * 2, Value: uint64(i)}
	}
	if err := idx.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	var work, ckpt sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			var clock Clock
			base := Key(w+1) * 1_000_000
			for i := uint64(0); i < perWriter; i++ {
				done, err := idx.Insert(clock.Now(), Record{Key: base + Key(i), Value: i})
				if err != nil {
					t.Error(err)
					return
				}
				clock.Advance(done)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		work.Add(1)
		go func(r int) {
			defer work.Done()
			var clock Clock
			for i := 0; i < perWriter; i++ {
				k := recs[(r*997+i*31)%loaded]
				v, ok, done, err := idx.Search(clock.Now(), k.Key)
				if err != nil || !ok || v != k.Value {
					t.Errorf("Search(%d) = %v, %v, %v; want %d", k.Key, v, ok, err, k.Value)
					return
				}
				clock.Advance(done)
			}
		}(r)
	}
	ckpt.Add(1)
	go func() {
		defer ckpt.Done()
		var clock Clock
		for !stop.Load() {
			done, err := idx.Checkpoint(clock.Now())
			if err != nil {
				t.Error(err)
				return
			}
			clock.Advance(done)
		}
	}()
	work.Wait()
	stop.Store(true)
	ckpt.Wait()
	if got, want := idx.Count(), int64(loaded+writers*perWriter); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
