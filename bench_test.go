package pio

// One testing.B benchmark per table/figure of the paper's evaluation.
// Each benchmark regenerates its figure through the internal/bench harness
// and reports headline metrics via b.ReportMetric, so `go test -bench=.`
// prints the series the paper plots. Absolute numbers are simulated time;
// the shapes (who wins, by what factor) are the reproduction target —
// see "Running the figure benchmarks" in README.md for the commands and
// PAPER.md for the paper's headline factors.

import (
	"strconv"
	"testing"

	"repro/internal/bench"
)

// benchScale keeps `go test -bench=.` fast while preserving the paper's
// N/M proportions; run cmd/pioexp for the full default scale.
func benchScale() bench.Scale {
	s := bench.QuickScale()
	s.InitialEntries = 50_000
	s.Ops = 5_000
	s.MemBytes = 16 * 1024
	return s
}

// runFig executes one registered experiment once per benchmark iteration.
func runFig(b *testing.B, id string) []bench.Table {
	b.Helper()
	var tables []bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = bench.Run(id, benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// cell parses a numeric table cell.
func cell(b *testing.B, t bench.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell %d,%d = %q", row, col, t.Rows[row][col])
	}
	return v
}

// BenchmarkFig2LatencyVsIOSize regenerates Figure 2 (read/write latency vs
// I/O size on six devices) and reports the 4KB/2KB read-latency ratio on
// the P300 (paper shape: close to 1.0 thanks to striping).
func BenchmarkFig2LatencyVsIOSize(b *testing.B) {
	tables := runFig(b, "fig2")
	read := tables[0]
	b.ReportMetric(cell(b, read, 1, 2)/cell(b, read, 0, 2), "p300_4k_over_2k_read_latency")
}

// BenchmarkFig3BandwidthVsOutstd regenerates Figure 3(a,b) and reports the
// OutStd-64 over OutStd-1 read-bandwidth gain on the Iodrive (paper: >10x).
func BenchmarkFig3BandwidthVsOutstd(b *testing.B) {
	tables := runFig(b, "fig3")
	read := tables[0]
	last := len(read.Rows) - 1
	b.ReportMetric(cell(b, read, last, 1)/cell(b, read, 0, 1), "iodrive_bw_gain_1_to_64")
}

// BenchmarkFig3cInterleaved regenerates Figure 3(c) and reports the
// non-interleaved over interleaved bandwidth ratio on the P300 at the
// highest OutStd level (paper: 1.25-1.37x).
func BenchmarkFig3cInterleaved(b *testing.B) {
	tables := runFig(b, "fig3c")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, last, 3)/cell(b, t, last, 4), "p300_noninterleaved_over_interleaved")
}

// BenchmarkFig4PsyncVsThreads regenerates Figure 4(a,b) and reports the
// psync-over-threads bandwidth ratio on a shared file at the highest level
// (paper: threads collapse to the OutStd-2 level).
func BenchmarkFig4PsyncVsThreads(b *testing.B) {
	tables := runFig(b, "fig4")
	shared := tables[0]
	last := len(shared.Rows) - 1
	b.ReportMetric(cell(b, shared, last, 3)/cell(b, shared, last, 4), "p300_sharedfile_psync_over_threads")
}

// BenchmarkFig4cContextSwitches regenerates Figure 4(c) and reports the
// thread-over-psync context-switch ratio at OutStd 32 (paper: ~32x).
func BenchmarkFig4cContextSwitches(b *testing.B) {
	tables := runFig(b, "fig4c")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, last, 2)/cell(b, t, last, 1), "ctxswitch_threads_over_psync")
}

// BenchmarkFig9SearchVsBuffer regenerates Figure 9 (point-search time vs
// buffer size) and reports the PIO speedup at the largest buffer on the
// first device (paper: 1.36-1.5x).
func BenchmarkFig9SearchVsBuffer(b *testing.B) {
	tables := runFig(b, "fig9")
	t := tables[0]
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 3), "pio_search_speedup")
}

// BenchmarkFig10RangeSearch regenerates Figure 10 (range-search latency vs
// key range) and reports the prange speedup at the widest range (paper:
// up to ~5x).
func BenchmarkFig10RangeSearch(b *testing.B) {
	tables := runFig(b, "fig10")
	t := tables[0]
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 3), "prange_speedup_widest")
}

// BenchmarkFig11OPQSweep regenerates Figure 11 (insert/search time vs OPQ
// size) and reports the insert speedup of OPQ=1 page over the B+-tree
// (paper: 4.3-8.2x).
func BenchmarkFig11OPQSweep(b *testing.B) {
	tables := runFig(b, "fig11")
	t := tables[0]
	var btIns, opq1 float64
	for r := range t.Rows {
		switch t.Rows[r][0] {
		case "btree":
			btIns = cell(b, t, r, 1)
		case "1":
			opq1 = cell(b, t, r, 1)
		}
	}
	if opq1 > 0 {
		b.ReportMetric(btIns/opq1, "insert_speedup_opq1")
	}
}

// BenchmarkFig12MixedWorkloads regenerates Figure 12 (four indexes, five
// insert/search ratios) and reports PIO's total speedup over the B+-tree
// at 90/10 (paper: up to ~11x).
func BenchmarkFig12MixedWorkloads(b *testing.B) {
	tables := runFig(b, "fig12")
	t := tables[0]
	b.ReportMetric(cell(b, t, len(t.Rows)-1, 9), "pio_total_speedup_90_10")
}

// BenchmarkFig13aTPCCTrace regenerates Figure 13(a) (TPC-C trace, single
// process) and reports PIO's total speedup on the first device (paper:
// 1.25-1.49x).
func BenchmarkFig13aTPCCTrace(b *testing.B) {
	tables := runFig(b, "fig13a")
	t := tables[0]
	b.ReportMetric(cell(b, t, 1, 7), "pio_tpcc_speedup")
}

// BenchmarkFig13bConcurrent regenerates Figure 13(b) (TPC-C, 1..16
// simulated threads, concurrent PIO vs B-link) and reports the speedup at
// 16 threads on the first device (paper: 1.17-1.49x).
func BenchmarkFig13bConcurrent(b *testing.B) {
	tables := runFig(b, "fig13b")
	t := tables[0]
	// Rows: device x threads; find the first device's threads=16 row.
	for r := range t.Rows {
		if t.Rows[r][1] == "16" {
			b.ReportMetric(cell(b, t, r, 4), "pio_over_blink_16threads")
			break
		}
	}
}

// BenchmarkNodeSizeSweep regenerates the Section 3.2.1 node-size study
// and reports the measured-optimal node size in pages on the first device.
func BenchmarkNodeSizeSweep(b *testing.B) {
	tables := runFig(b, "nodesize")
	t := tables[0]
	bestPages, bestCost := 0.0, 0.0
	for r := range t.Rows {
		c := cell(b, t, r, 2)
		if bestPages == 0 || c < bestCost {
			bestPages, bestCost = cell(b, t, r, 0), c
		}
	}
	b.ReportMetric(bestPages, "measured_optimal_node_pages")
}

// BenchmarkTuneAutoConfig regenerates the Section 3.6 self-tuning table.
func BenchmarkTuneAutoConfig(b *testing.B) {
	tables := runFig(b, "tune")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, 2), "L_opt_first_row")
}

// BenchmarkAblationPsync regenerates the psync/LSMap/PioMax ablations and
// reports the insert slowdown with psync disabled.
func BenchmarkAblationPsync(b *testing.B) {
	tables := runFig(b, "ablation")
	t := tables[0]
	base := cell(b, t, 0, 1)
	off := cell(b, t, 1, 1)
	if base > 0 {
		b.ReportMetric(off/base, "psync_off_insert_slowdown")
	}
}

// BenchmarkPointSearch measures the simulated cost of one PIO point search
// on a bulk-loaded tree (microbenchmark of the public API).
func BenchmarkPointSearch(b *testing.B) {
	dev := NewDevice(P300)
	idx, err := Open(dev, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, 100000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i) * 2, Value: uint64(i)}
	}
	if err := idx.BulkLoad(recs); err != nil {
		b.Fatal(err)
	}
	var clock Clock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, done, err := idx.Search(clock.Now(), uint64(i%100000)*2)
		if err != nil {
			b.Fatal(err)
		}
		clock.Advance(done)
	}
	b.ReportMetric(clock.Elapsed()/float64(b.N)*1e6, "sim_µs/op")
}

// BenchmarkInsert measures the simulated amortized insert cost (OPQ append
// plus its share of batch updates). The key space wraps so the on-disk
// footprint stays bounded however far b.N scales.
func BenchmarkInsert(b *testing.B) {
	dev := NewDevice(P300)
	opts := DefaultOptions()
	opts.CapacityHint = 256 << 20
	idx, err := Open(dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	var clock Clock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := idx.Insert(clock.Now(), Record{Key: uint64(i % 1_000_000), Value: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		clock.Advance(done)
	}
	b.ReportMetric(clock.Elapsed()/float64(b.N)*1e6, "sim_µs/op")
}
