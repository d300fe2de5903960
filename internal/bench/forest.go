package bench

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// buildForest bulk-loads a sharded PIO forest on a fresh device instance.
// OPQ and buffer budgets are global (the forest splits them), with
// buildPio's memory accounting, so a one-shard forest gets one tree's
// budgets.
func buildForest(p flashsim.Config, n, memBytes, shards int, pp pioParams) (*core.Forest, []kv.Record, error) {
	dev := flashsim.MustDevice(p)
	space := ssdio.NewSpace(dev)
	pfs := make([]*pagefile.PageFile, shards)
	perShardBytes := int64(n)*64/int64(shards) + 1<<20
	for i := range pfs {
		f, err := space.Create(fmt.Sprintf("forest%d", i), perShardBytes)
		if err != nil {
			return nil, nil, err
		}
		pfs[i], err = pagefile.New(f, pageSize)
		if err != nil {
			return nil, nil, err
		}
	}
	leaves := n / (core.Config{PageSize: pageSize, LeafSegs: pp.LeafSegs}).LeafEntryEstimate()
	bufBytes := memBytes - pp.OPQPages*pageSize - leaves
	if bufBytes < shards*pageSize {
		bufBytes = shards * pageSize
	}
	fr, err := core.NewForest(pfs, core.ForestConfig{
		Shard: core.Config{
			PageSize:    pageSize,
			LeafSegs:    pp.LeafSegs,
			OPQPages:    pp.OPQPages, // global budget, split by the forest
			PioMax:      64,
			SPeriod:     5000,
			BCnt:        pp.BCnt,
			BufferBytes: bufBytes, // global budget, split by the forest
			CPUPerNode:  cpuPerNode,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	recs := initialRecords(n)
	if err := fr.BulkLoad(recs); err != nil {
		return nil, nil, err
	}
	return fr, recs, nil
}

// forestTune picks the forest parameters: the per-shard (L, O) optimum of
// eq. (10) at the per-shard scale (Section 3.6 extended to sharding),
// reported as a global OPQ budget.
func forestTune(p flashsim.Config, n, memBytes, shards int, insertRatio float64) pioParams {
	dev := flashsim.MustDevice(p)
	d := costmodel.Calibrate(dev, pageSize, 16, 64, 8)
	params := costmodel.TreeParams{
		N:                 float64(n),
		F:                 float64(pageSize / kv.RecordSize),
		U:                 0.7,
		Ri:                insertRatio,
		Rs:                1 - insertRatio,
		M:                 float64(memBytes / pageSize),
		OPQEntriesPerPage: float64(pageSize / kv.EntrySize),
	}
	maxO := memBytes/pageSize - 1
	if maxO < shards {
		maxO = shards
	}
	pp := defaultPio()
	res, err := costmodel.TuneForest(params, d, 5000, 16, maxO, shards)
	if err == nil {
		pp.LeafSegs = res.PerShard.L
		pp.OPQPages = res.GlobalO
	}
	return pp
}

// runMixedThreads replays a mixed insert/search workload round-robin over
// simulated threads against any concurrent index and returns the
// makespan.
func runMixedThreads(ops []workload.Op, threads int,
	insert func(vtime.Ticks, kv.Record) (vtime.Ticks, error),
	search func(vtime.Ticks, kv.Key) (kv.Value, bool, vtime.Ticks, error)) vtime.Ticks {
	ths := make([]*vtimeThread, threads)
	for i := 0; i < threads; i++ {
		tid := i
		ths[i] = newVtimeThread(i, func(_, step int, now vtime.Ticks) (vtime.Ticks, bool) {
			idx := step*threads + tid
			if idx >= len(ops) {
				return now, false
			}
			op := ops[idx]
			var next vtime.Ticks
			var err error
			if op.Kind == workload.OpInsert {
				next, err = insert(now, op.Rec)
			} else {
				_, _, next, err = search(now, op.Rec.Key)
			}
			if err != nil {
				panic(err)
			}
			return next, true
		})
	}
	return runThreads(3*vtime.Microsecond, ths)
}

// ForestScaling is the shard-scaling experiment: a mixed workload driven
// by simulated threads against forests of growing shard count, on the
// multi-channel device profiles. Row 0, the speedup base, is the
// one-shard forest: the paper's Section 4.2 whole-index flush lock.
// Per-shard flush locks let searches on other shards proceed during a
// flush, and ripe shards flush together through one concatenated psync
// submission; both effects grow with the shard count until the device's
// channels saturate.
func ForestScaling(s Scale) ([]Table, error) {
	threads := s.Threads
	if threads <= 0 {
		threads = 8
	}
	shardLadder := []int{1, 2, 4, 8}
	if s.Shards > 0 {
		shardLadder = slices.Compact([]int{1, s.Shards})
	}
	const insertRatio = 0.5
	var out []Table
	for _, dev := range []flashsim.Config{flashsim.Iodrive(), flashsim.P300()} {
		t := &Table{
			ID: "forest-" + dev.Name,
			Title: fmt.Sprintf("shard scaling, %d ops 50/50 mix, %d threads, N=%d, %d channels",
				s.Ops, threads, s.InitialEntries, dev.Channels),
			Header: []string{"index", "shards", "elapsed_s", "speedup", "flushes",
				"gang_submits", "shards_per_group", "vlock_wait_ms"},
		}

		var baseTime vtime.Ticks
		for _, shards := range shardLadder {
			pp := forestTune(dev, s.InitialEntries, s.MemBytes, shards, insertRatio)
			fr, recs, err := buildForest(dev, s.InitialEntries, s.MemBytes, shards, pp)
			if err != nil {
				return nil, err
			}
			ops := workload.Mixed(s.Ops, insertRatio, recs, s.Seed)
			elapsed := runMixedThreads(ops, threads, fr.Insert, fr.Search)
			if shards == 1 {
				baseTime = elapsed
			}
			fst := fr.Stats()
			perGroup := 0.0
			if fst.GroupFlushes > 0 {
				perGroup = float64(fst.GroupedShards) / float64(fst.GroupFlushes)
			}
			t.AddRow("forest", fmt.Sprintf("%d", shards), fmtSeconds(elapsed),
				fmt.Sprintf("%.2f", float64(baseTime)/float64(elapsed)),
				fmt.Sprintf("%d", fst.Tree.Flushes),
				fmt.Sprintf("%d", fst.GangSubmits),
				fmt.Sprintf("%.2f", perGroup),
				fmt.Sprintf("%.1f", fst.VLockContended.Millis()))
		}
		t.Notes = append(t.Notes,
			"per-shard flush locks stop one shard's flush from stalling the others; gang_submits counts cross-shard flush batches merged into one psync call")
		out = append(out, *t)
	}
	return out, nil
}

func init() {
	Register("forest", ForestScaling)
}
