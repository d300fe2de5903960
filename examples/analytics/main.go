// Analytics: bulk-load a large index and compare the legacy leaf-chain
// range scan (classic B+-tree) with the PIO B-tree's parallel range search
// across range widths — the workload family of the paper's Figure 10,
// framed as an analytics scan over an orders table.
package main

import (
	"fmt"
	"log"

	pio "repro"
)

func main() {
	const n = 500_000

	dev := pio.NewDevice(pio.Iodrive)
	opts := pio.DefaultOptions()
	opts.LeafSegs = 4 // 8KB leaves: package-level parallelism on scans
	idx, err := pio.Open(dev, opts)
	if err != nil {
		log.Fatal(err)
	}

	// "orders" table: one index record per order, keyed by order id.
	recs := make([]pio.Record, n)
	for i := range recs {
		recs[i] = pio.Record{Key: uint64(i) * 4, Value: uint64(i)}
	}
	if err := idx.BulkLoad(recs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d orders (height %d)\n", n, idx.Height())

	var clock pio.Clock
	fmt.Println("\nscan width -> records, simulated latency")
	for _, width := range []uint64{100, 1_000, 10_000, 100_000} {
		lo := uint64(n/2) * 4
		hi := lo + width*4
		start := clock.Now()
		recs, done, err := idx.RangeSearch(start, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		clock.Advance(done)
		fmt.Printf("  %7d keys -> %7d records in %8.3fms\n",
			width, len(recs), float64(done-start)/1e6)
	}

	// Aggregate over a scan: total "revenue" in an id range.
	lo, hi := uint64(100_000)*4, uint64(150_000)*4
	out, done, err := idx.RangeSearch(clock.Now(), lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	var sum uint64
	for _, r := range out {
		sum += r.Value
	}
	fmt.Printf("\naggregate over [%d,%d): %d rows, sum=%d\n", lo, hi, len(out), sum)

	st := idx.Stats().Tree
	fmt.Printf("psync reads issued: %d (each carrying up to PioMax=%d leaf requests)\n",
		st.PsyncReads, opts.PioMax)
}
