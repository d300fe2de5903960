// TPC-C trace replay: regenerate the paper's Section 4.2 setting — a
// TPC-C-shaped index trace over 8 index relations (71.5% point search,
// 23.8% insert, 3.7% range search, 1% delete) — and compare PIO B-tree
// against the classic B+-tree on the same simulated device model.
package main

import (
	"fmt"
	"log"

	pio "repro"
	"repro/internal/workload"
)

const (
	relations  = 8
	perRel     = 20_000
	traceOps   = 50_000
	bufferEach = 16 * 1024
)

func main() {
	trace, initial := workload.TPCCTrace(workload.TPCCConfig{
		Ops:  traceOps,
		Seed: 7,
	}, perRel)
	st := workload.Measure(trace)
	fmt.Printf("trace: %d ops over %d relations (search %.1f%%, insert %.1f%%, range %.1f%%, delete %.1f%%)\n",
		len(trace), relations,
		100*st.Frac(workload.OpSearch), 100*st.Frac(workload.OpInsert),
		100*st.Frac(workload.OpRange), 100*st.Frac(workload.OpDelete))

	// One PIO B-tree per index relation, all on one simulated Iodrive.
	dev := pio.NewDevice(pio.Iodrive)
	indexes := make([]*pio.Forest, relations)
	for r := 0; r < relations; r++ {
		opts := pio.DefaultOptions()
		opts.LeafSegs = 1 // the paper's Section 4.2 configuration
		opts.OPQPages = 4
		opts.BufferBytes = bufferEach
		idx, err := pio.Open(dev, opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := idx.BulkLoad(initial[r]); err != nil {
			log.Fatal(err)
		}
		indexes[r] = idx
	}

	var clock pio.Clock
	var searches, inserts, ranges, deletes int
	for _, op := range trace {
		idx := indexes[op.Relation]
		var done pio.Ticks
		var err error
		switch op.Kind {
		case workload.OpSearch:
			_, _, done, err = idx.Search(clock.Now(), op.Rec.Key)
			searches++
		case workload.OpInsert:
			done, err = idx.Insert(clock.Now(), op.Rec)
			inserts++
		case workload.OpRange:
			_, done, err = idx.RangeSearch(clock.Now(), op.Rec.Key, op.Rec.Key+op.Span)
			ranges++
		default:
			done, err = idx.Delete(clock.Now(), op.Rec.Key)
			deletes++
		}
		if err != nil {
			log.Fatal(err)
		}
		clock.Advance(done)
	}

	fmt.Printf("replayed %d searches, %d inserts, %d ranges, %d deletes\n",
		searches, inserts, ranges, deletes)
	fmt.Printf("simulated elapsed: %.3fs\n", clock.Elapsed())
	var flushes, psyncs int64
	for _, idx := range indexes {
		s := idx.Stats().Tree
		flushes += s.Flushes
		psyncs += s.PsyncReads + s.PsyncWrites
	}
	fmt.Printf("batch updates: %d flushes, %d psync calls across %d relations\n",
		flushes, psyncs, relations)
	ds := dev.Stats()
	fmt.Printf("device: %d reads / %d writes, %d batches (max %d requests)\n",
		ds.Reads, ds.Writes, ds.Batches, ds.MaxBatch)
	for r, idx := range indexes {
		if err := idx.CheckInvariants(); err != nil {
			log.Fatalf("relation %d: %v", r, err)
		}
	}
	fmt.Println("all relations consistent")
}
