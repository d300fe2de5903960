package bench

import (
	"fmt"

	"repro/internal/blink"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// Fig12: mixed insert/search workloads (10/90..90/10) across the four
// indexes (BFTL, B+-tree, FD-tree, PIO B-tree) on the three devices,
// reporting insert and search time separately as in the paper's stacked
// bars.
func Fig12(s Scale) ([]Table, error) {
	ratios := []struct {
		name   string
		insert float64
	}{
		{"10/90", 0.10}, {"30/70", 0.30}, {"50/50", 0.50}, {"70/30", 0.70}, {"90/10", 0.90},
	}
	var out []Table
	for _, dev := range mainDevices() {
		t := &Table{
			ID:    "fig12-" + dev.Name,
			Title: fmt.Sprintf("mixed workload elapsed time (s), %d ops, N=%d", s.Ops, s.InitialEntries),
			Header: []string{"ins/sea", "bftl_ins", "bftl_sea", "btree_ins", "btree_sea",
				"fdtree_ins", "fdtree_sea", "pio_ins", "pio_sea", "pio_total_speedup_vs_btree"},
		}
		for _, r := range ratios {
			row := []string{r.name}
			var btTotal, pioTotal vtime.Ticks

			// BFTL.
			bf, recs, err := buildBftl(dev, s.InitialEntries)
			if err != nil {
				return nil, err
			}
			ops := workload.Mixed(s.Ops, r.insert, recs, s.Seed)
			var ins, sea vtime.Ticks
			var now vtime.Ticks
			for _, op := range ops {
				before := now
				if op.Kind == workload.OpInsert {
					now, err = bf.Insert(now, op.Rec)
					ins += now - before
				} else {
					_, _, now, err = bf.Search(now, op.Rec.Key)
					sea += now - before
				}
				if err != nil {
					return nil, err
				}
			}
			row = append(row, fmtSeconds(ins), fmtSeconds(sea))

			// B+-tree.
			bt, recs, err := buildBtree(dev, s.InitialEntries, s.MemBytes)
			if err != nil {
				return nil, err
			}
			ops = workload.Mixed(s.Ops, r.insert, recs, s.Seed)
			ins, sea, now = 0, 0, 0
			for _, op := range ops {
				before := now
				if op.Kind == workload.OpInsert {
					now, err = bt.Insert(now, op.Rec)
					ins += now - before
				} else {
					_, _, now, err = bt.Search(now, op.Rec.Key)
					sea += now - before
				}
				if err != nil {
					return nil, err
				}
			}
			row = append(row, fmtSeconds(ins), fmtSeconds(sea))
			btTotal = ins + sea

			// FD-tree.
			fd, recs, err := buildFdtree(dev, s.InitialEntries, s.MemBytes)
			if err != nil {
				return nil, err
			}
			ops = workload.Mixed(s.Ops, r.insert, recs, s.Seed)
			ins, sea, now = 0, 0, 0
			for _, op := range ops {
				before := now
				if op.Kind == workload.OpInsert {
					now, err = fd.Insert(now, op.Rec)
					ins += now - before
				} else {
					_, _, now, err = fd.Search(now, op.Rec.Key)
					sea += now - before
				}
				if err != nil {
					return nil, err
				}
			}
			row = append(row, fmtSeconds(ins), fmtSeconds(sea))

			// PIO B-tree, auto-tuned per Section 3.6 for the ratio.
			pp := defaultPio()
			pio, recs, err := buildPio(dev, s.InitialEntries, s.MemBytes, pp)
			if err != nil {
				return nil, err
			}
			ops = workload.Mixed(s.Ops, r.insert, recs, s.Seed)
			ins, sea, now = 0, 0, 0
			for _, op := range ops {
				before := now
				if op.Kind == workload.OpInsert {
					now, err = pio.Insert(now, op.Rec)
					ins += now - before
				} else {
					_, _, now, err = pio.Search(now, op.Rec.Key)
					sea += now - before
				}
				if err != nil {
					return nil, err
				}
			}
			row = append(row, fmtSeconds(ins), fmtSeconds(sea))
			pioTotal = ins + sea

			row = append(row, fmt.Sprintf("%.2f", float64(btTotal)/float64(pioTotal)))
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes,
			"paper: PIO beats BFTL 2-15x, B+-tree 1.4-11x, FD-tree 1.23-1.47x (gap mostly point search)")
		out = append(out, *t)
	}
	return out, nil
}

// tpccIndexes builds one index per relation on a single shared device.
// Each PIO index is a one-shard forest: the paper's Section 4 locking.
type tpccIndexes struct {
	dev    *flashsim.Device
	btrees []*btree.Tree
	pios   []*core.Forest
}

// pioExec runs one trace op on its relation's PIO index.
func (x *tpccIndexes) pioExec(op workload.Op, now vtime.Ticks) (vtime.Ticks, error) {
	pio := x.pios[op.Relation]
	switch op.Kind {
	case workload.OpSearch:
		_, _, n, err := pio.Search(now, op.Rec.Key)
		return n, err
	case workload.OpInsert:
		return pio.Insert(now, op.Rec)
	case workload.OpRange:
		_, n, err := pio.RangeSearch(now, op.Rec.Key, op.Rec.Key+op.Span)
		return n, err
	default:
		return pio.Delete(now, op.Rec.Key)
	}
}

// buildTPCC loads the per-relation initial keys into both index families
// on separate files of one device (paper: "8 index files for 8 index
// relations"), using the Section 4.2 parameters: node/page size 4KB -> at
// our scale pageSize; L=1; OPQ=20 pages; buffer 4MB -> MemBytes/4.
func buildTPCC(p flashsim.Config, initial [][]kv.Record, memBytes int, pioOnly, btreeOnly bool) (*tpccIndexes, error) {
	dev := flashsim.MustDevice(p)
	space := ssdio.NewSpace(dev)
	out := &tpccIndexes{dev: dev}
	perRelMem := memBytes / len(initial)
	if perRelMem < pageSize {
		perRelMem = pageSize
	}
	for r, recs := range initial {
		if !pioOnly {
			f, err := space.Create(fmt.Sprintf("bt%d", r), int64(len(recs))*64+1<<20)
			if err != nil {
				return nil, err
			}
			pf, err := pagefile.New(f, pageSize)
			if err != nil {
				return nil, err
			}
			bt, err := btree.New(pf, btree.Config{NodeSize: pageSize, BufferBytes: perRelMem, CPUPerNode: cpuPerNode})
			if err != nil {
				return nil, err
			}
			if err := bt.BulkLoad(recs); err != nil {
				return nil, err
			}
			out.btrees = append(out.btrees, bt)
		}
		if !btreeOnly {
			opqPages := 4 // scaled from the paper's 20 x 4KB
			bufBytes := perRelMem - opqPages*pageSize
			if bufBytes < pageSize {
				bufBytes = pageSize
			}
			pio, _, _, err := core.Build(space, core.Spec{
				Prefix:   fmt.Sprintf("pio%d-", r),
				Shards:   1,
				Capacity: int64(len(recs)) * 64,
				Forest: core.ForestConfig{Shard: core.Config{
					PageSize: pageSize, LeafSegs: 1, OPQPages: opqPages,
					PioMax: 64, SPeriod: 5000, BCnt: 5000,
					BufferBytes: bufBytes, CPUPerNode: cpuPerNode,
				}},
			})
			if err != nil {
				return nil, err
			}
			if err := pio.BulkLoad(recs); err != nil {
				return nil, err
			}
			out.pios = append(out.pios, pio)
		}
	}
	return out, nil
}

// Fig13a: TPC-C trace, single process: per-op-type elapsed time for
// B+-tree and PIO B-tree on the three devices.
func Fig13a(s Scale) ([]Table, error) {
	trace, initial := workload.TPCCTrace(workload.TPCCConfig{
		Ops:  s.Ops,
		Seed: s.Seed,
	}, s.InitialEntries/8)
	t := &Table{
		ID:    "fig13a",
		Title: fmt.Sprintf("TPC-C trace (%d ops): per-op time (s), single process", len(trace)),
		Header: []string{"device", "index", "search_s", "insert_s", "range_s", "delete_s",
			"total_s", "speedup"},
	}
	for _, dev := range mainDevices() {
		// Each family replays on its own fresh device instance so the
		// virtual resource timelines do not cross-contaminate.
		idx, err := buildTPCC(dev, initial, s.MemBytes/4, false, true)
		if err != nil {
			return nil, err
		}
		idxPio, err := buildTPCC(dev, initial, s.MemBytes/4, true, false)
		if err != nil {
			return nil, err
		}
		btT, err := replayTrace(trace, func(op workload.Op, now vtime.Ticks) (vtime.Ticks, error) {
			bt := idx.btrees[op.Relation]
			switch op.Kind {
			case workload.OpSearch:
				_, _, n, err := bt.Search(now, op.Rec.Key)
				return n, err
			case workload.OpInsert:
				return bt.Insert(now, op.Rec)
			case workload.OpRange:
				_, n, err := bt.RangeSearch(now, op.Rec.Key, op.Rec.Key+op.Span)
				return n, err
			default:
				_, n, err := bt.Delete(now, op.Rec.Key)
				return n, err
			}
		})
		if err != nil {
			return nil, err
		}
		pioT, err := replayTrace(trace, idxPio.pioExec)
		if err != nil {
			return nil, err
		}
		bTot := btT.total()
		pTot := pioT.total()
		t.AddRow(dev.Name, "btree", fmtSeconds(btT.search), fmtSeconds(btT.insert),
			fmtSeconds(btT.rng), fmtSeconds(btT.del), fmtSeconds(bTot), "1.00")
		t.AddRow(dev.Name, "pio", fmtSeconds(pioT.search), fmtSeconds(pioT.insert),
			fmtSeconds(pioT.rng), fmtSeconds(pioT.del), fmtSeconds(pTot),
			fmt.Sprintf("%.2f", float64(bTot)/float64(pTot)))
	}
	st := workload.Measure(trace)
	t.Notes = append(t.Notes, fmt.Sprintf("trace mix: search %.1f%% insert %.1f%% range %.1f%% delete %.1f%%",
		100*st.Frac(workload.OpSearch), 100*st.Frac(workload.OpInsert),
		100*st.Frac(workload.OpRange), 100*st.Frac(workload.OpDelete)))
	t.Notes = append(t.Notes, "paper: PIO 1.25-1.49x total; insert 5.7-6.2x; range 1.9-2.1x")
	return []Table{*t}, nil
}

// opTimes accumulates per-kind elapsed time.
type opTimes struct {
	search, insert, rng, del vtime.Ticks
}

func (o opTimes) total() vtime.Ticks { return o.search + o.insert + o.rng + o.del }

// replayTrace runs the trace single-threaded, attributing time per kind.
func replayTrace(trace []workload.Op, exec func(workload.Op, vtime.Ticks) (vtime.Ticks, error)) (opTimes, error) {
	var o opTimes
	var now vtime.Ticks
	for _, op := range trace {
		next, err := exec(op, now)
		if err != nil {
			return o, err
		}
		d := next - now
		switch op.Kind {
		case workload.OpSearch:
			o.search += d
		case workload.OpInsert:
			o.insert += d
		case workload.OpRange:
			o.rng += d
		default:
			o.del += d
		}
		now = next
	}
	return o, nil
}

// Fig13b: TPC-C trace with 1..16 simulated threads: concurrent PIO B-tree
// vs B-link tree.
func Fig13b(s Scale) ([]Table, error) {
	trace, initial := workload.TPCCTrace(workload.TPCCConfig{
		Ops:  s.Ops,
		Seed: s.Seed,
	}, s.InitialEntries/8)
	t := &Table{
		ID:     "fig13b",
		Title:  fmt.Sprintf("TPC-C trace (%d ops): elapsed (s) vs threads", len(trace)),
		Header: []string{"device", "threads", "blink_s", "pio_s", "speedup"},
	}
	for _, dev := range mainDevices() {
		for _, threads := range []int{1, 2, 4, 8, 16} {
			// B-link tree family.
			idx, err := buildTPCC(dev, initial, s.MemBytes/4, false, true)
			if err != nil {
				return nil, err
			}
			blinks := make([]*blink.Tree, len(idx.btrees))
			for i, bt := range idx.btrees {
				blinks[i] = blink.New(bt, vtime.Microsecond)
			}
			blinkTime := runTraceThreads(trace, threads, func(op workload.Op, now vtime.Ticks) (vtime.Ticks, error) {
				b := blinks[op.Relation]
				switch op.Kind {
				case workload.OpSearch:
					_, _, n, err := b.Search(now, op.Rec.Key)
					return n, err
				case workload.OpInsert:
					return b.Insert(now, op.Rec)
				case workload.OpRange:
					_, n, err := b.RangeSearch(now, op.Rec.Key, op.Rec.Key+op.Span)
					return n, err
				default:
					_, n, err := b.Delete(now, op.Rec.Key)
					return n, err
				}
			})

			// PIO family, one one-shard forest per relation.
			idx2, err := buildTPCC(dev, initial, s.MemBytes/4, true, false)
			if err != nil {
				return nil, err
			}
			pioTime := runTraceThreads(trace, threads, idx2.pioExec)
			t.AddRow(dev.Name, fmt.Sprintf("%d", threads), fmtSeconds(blinkTime), fmtSeconds(pioTime),
				fmt.Sprintf("%.2f", float64(blinkTime)/float64(pioTime)))
		}
	}
	t.Notes = append(t.Notes, "paper: concurrent PIO 1.17-1.49x faster than B-link across thread counts")
	return []Table{*t}, nil
}

// runTraceThreads partitions the trace round-robin across simulated
// threads and returns the makespan.
func runTraceThreads(trace []workload.Op, threads int, exec func(workload.Op, vtime.Ticks) (vtime.Ticks, error)) vtime.Ticks {
	ths := make([]*vtimeThread, threads)
	for i := 0; i < threads; i++ {
		tid := i
		ths[i] = newVtimeThread(i, func(_, step int, now vtime.Ticks) (vtime.Ticks, bool) {
			idx := step*threads + tid
			if idx >= len(trace) {
				return now, false
			}
			next, err := exec(trace[idx], now)
			if err != nil {
				panic(err)
			}
			return next, true
		})
	}
	return runThreads(3*vtime.Microsecond, ths)
}

func init() {
	Register("fig12", Fig12)
	Register("fig13a", Fig13a)
	Register("fig13b", Fig13b)
}
