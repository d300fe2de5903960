package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kv"
	"repro/internal/vtime"
)

// hammer runs writers, readers, a checkpointer and a stats poller as real
// goroutines against a forest, then verifies virtual-time monotonicity
// and that no update was lost. It is primarily a -race test: the
// simulated timings are interleaving-dependent, the data must not be.
func hammer(t *testing.T, idx *Forest, poll func(), loaded []kv.Record) {
	t.Helper()
	const (
		writers      = 4
		readers      = 3
		opsPerWorker = 300
	)
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, writers+readers+2)

	// Writers: disjoint fresh key ranges, one delete of a private loaded
	// key per 10 inserts. Each tracks its own virtual clock and asserts
	// completion times never run backwards.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var now vtime.Ticks
			base := kv.Key(1<<40) + kv.Key(w)<<20
			for i := 0; i < opsPerWorker; i++ {
				var done vtime.Ticks
				var err error
				if i%10 == 9 {
					// Delete a loaded key owned by this writer.
					k := loaded[(w*opsPerWorker+i)%len(loaded)].Key
					done, err = idx.Delete(now, k)
				} else {
					done, err = idx.Insert(now, kv.Record{Key: base + kv.Key(i), Value: kv.Value(i)})
				}
				if err != nil {
					errs <- err
					return
				}
				if done < now {
					t.Errorf("writer %d: virtual time ran backwards: %d -> %d", w, now, done)
					return
				}
				now = done
			}
		}(w)
	}

	// Readers: point and range searches over the loaded keys.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var now vtime.Ticks
			for i := 0; i < opsPerWorker; i++ {
				var done vtime.Ticks
				var err error
				if i%20 == 19 {
					lo := loaded[(r*31+i)%len(loaded)].Key
					_, done, err = idx.RangeSearch(now, lo, lo+256)
				} else {
					_, _, done, err = idx.Search(now, loaded[(r*17+i)%len(loaded)].Key)
				}
				if err != nil {
					errs <- err
					return
				}
				if done < now {
					t.Errorf("reader %d: virtual time ran backwards: %d -> %d", r, now, done)
					return
				}
				now = done
			}
		}(r)
	}

	// Checkpointer: periodic full flushes racing the workload.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var now vtime.Ticks
		for i := 0; i < 10; i++ {
			done, err := idx.Checkpoint(now)
			if err != nil {
				errs <- err
				return
			}
			now = done
		}
	}()

	// Stats poller: reads counters mid-workload (the racy seed accessors).
	// Not part of wg: it runs until the workers have drained.
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for !stop.Load() {
			poll()
		}
	}()

	go func() {
		wg.Wait()
		close(errs)
	}()
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-pollerDone

	// No lost updates: every writer's surviving inserts must be visible.
	done, err := idx.Checkpoint(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		base := kv.Key(1<<40) + kv.Key(w)<<20
		for i := 0; i < opsPerWorker; i++ {
			if i%10 == 9 {
				continue
			}
			v, ok, _, err := idx.Search(done, base+kv.Key(i))
			if err != nil {
				t.Fatal(err)
			}
			if !ok || v != kv.Value(i) {
				t.Fatalf("lost update: writer %d op %d (got %d,%v)", w, i, v, ok)
			}
		}
	}
}

func raceLoad(t *testing.T, n int) []kv.Record {
	t.Helper()
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{Key: kv.Key(i*16 + 8), Value: kv.Value(i)}
	}
	return recs
}

func TestForestGoroutineRace(t *testing.T) {
	for _, shards := range []int{1, 4} {
		fr := newTestForest(t, shards, forestCfg(), nil)
		recs := raceLoad(t, 2000)
		if err := fr.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		hammer(t, fr, func() {
			fr.Stats()
			fr.Pending()
			fr.Count()
		}, recs)
		if err := fr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
