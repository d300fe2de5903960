// Quickstart: build a PIO B-tree on a simulated flash SSD, insert,
// search, range-scan and delete, and print the simulated time and device
// activity.
package main

import (
	"fmt"
	"log"

	pio "repro"
)

func main() {
	// A simulated Micron P300 (one of the paper's three main devices).
	dev := pio.NewDevice(pio.P300)
	idx, err := pio.Open(dev, pio.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	var clock pio.Clock

	// Insert 100k records. Updates are buffered in the Operation Queue and
	// batch-flushed via psync I/O, so most inserts complete instantly.
	for i := uint64(0); i < 100_000; i++ {
		done, err := idx.Insert(clock.Now(), pio.Record{Key: i * 10, Value: i})
		if err != nil {
			log.Fatal(err)
		}
		clock.Advance(done)
	}
	fmt.Printf("inserted 100k records in %.3fs simulated (height %d, %d still queued)\n",
		clock.Elapsed(), idx.Height(), idx.Pending())

	// Point search.
	v, ok, done, err := idx.Search(clock.Now(), 500_000)
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("search(500000) = %d, found=%v\n", v, ok)

	// Batched multi-path search: one psync call per tree level resolves
	// all keys at once.
	keys := make([]pio.Key, 64)
	for i := range keys {
		keys[i] = uint64(i) * 10_000
	}
	got, done, err := idx.SearchMany(clock.Now(), keys)
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("MPSearch resolved %d/%d keys in one batch\n", len(got), len(keys))

	// Parallel range search (prange): all leaves of the range are read in
	// one psync batch instead of chasing the leaf chain.
	recs, done, err := idx.RangeSearch(clock.Now(), 100_000, 120_000)
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("prange [100000,120000) -> %d records\n", len(recs))

	// Delete and verify.
	done, err = idx.Delete(clock.Now(), 500_000)
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	_, ok, done, err = idx.Search(clock.Now(), 500_000)
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("after delete, found=%v\n", ok)

	// Flush everything and show the stats.
	done, err = idx.Checkpoint(clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	st := idx.Stats().Tree
	ds := dev.Stats()
	fmt.Printf("totals: %.3fs simulated, %d batch flushes, %d psync reads, %d psync writes\n",
		clock.Elapsed(), st.Flushes, st.PsyncReads, st.PsyncWrites)
	fmt.Printf("device: %d reads, %d writes, largest batch %d requests\n",
		ds.Reads, ds.Writes, ds.MaxBatch)
	if err := idx.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("invariants OK")
}
