package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/wal"
	"repro/internal/workload"
)

// buildWALForest is buildForest plus one write-ahead log per shard on the
// same simulated device, so ganged log forces share the device with the
// ganged data writes. A nil partitioner hash-partitions; the rebalance
// bench passes skewed range bounds.
func buildWALForest(p flashsim.Config, n, memBytes, shards int, pp pioParams, part core.Partitioner, disableGang bool) (*core.Forest, []*wal.Log, []kv.Record, error) {
	dev := flashsim.MustDevice(p)
	space := ssdio.NewSpace(dev)
	pfs := make([]*pagefile.PageFile, shards)
	logs := make([]*wal.Log, shards)
	perShardBytes := int64(n)*64/int64(shards) + 1<<20
	for i := range pfs {
		f, err := space.Create(fmt.Sprintf("forest%d", i), perShardBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		pfs[i], err = pagefile.New(f, pageSize)
		if err != nil {
			return nil, nil, nil, err
		}
		wf, err := space.Create(fmt.Sprintf("wal%d", i), 16<<20)
		if err != nil {
			return nil, nil, nil, err
		}
		logs[i], err = wal.NewLog(wf, pageSize)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	leaves := n / (core.Config{PageSize: pageSize, LeafSegs: pp.LeafSegs}).LeafEntryEstimate()
	bufBytes := memBytes - pp.OPQPages*pageSize - leaves
	if bufBytes < shards*pageSize {
		bufBytes = shards * pageSize
	}
	fr, err := core.NewForest(pfs, core.ForestConfig{
		Partitioner: part,
		Shard: core.Config{
			PageSize:    pageSize,
			LeafSegs:    pp.LeafSegs,
			OPQPages:    pp.OPQPages,
			PioMax:      64,
			SPeriod:     5000,
			BCnt:        pp.BCnt,
			BufferBytes: bufBytes,
			CPUPerNode:  cpuPerNode,
		},
		Logs:           logs,
		DisableLogGang: disableGang,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	recs := initialRecords(n)
	if err := fr.BulkLoad(recs); err != nil {
		return nil, nil, nil, err
	}
	return fr, logs, recs, nil
}

// RecoveryBench measures the log plane of the sharded forest: an
// insert-only workload against WAL-attached forests of growing shard
// count, once with the coordinator's two-phase ganged group commit and
// once with per-shard serial log forces (the baseline). It reports the
// blocking log submissions each mode issued, then crashes each forest at
// a commit point and replays the WAL, reporting the redo volume and
// recovery time.
func RecoveryBench(s Scale) ([]Table, error) {
	threads := s.Threads
	if threads <= 0 {
		threads = 8
	}
	shardLadder := []int{1, 2, 4, 8}
	if s.Shards > 0 {
		shardLadder = []int{s.Shards}
	}
	const insertRatio = 1.0
	var out []Table
	for _, dev := range []flashsim.Config{flashsim.Iodrive(), flashsim.P300()} {
		t := &Table{
			ID: "recovery-" + dev.Name,
			Title: fmt.Sprintf("group-commit WAL, %d inserts, %d threads, N=%d, %d channels",
				s.Ops, threads, s.InitialEntries, dev.Channels),
			Header: []string{"mode", "shards", "elapsed_s", "log_submits",
				"log_gangs", "log_forces", "flushes", "redone", "recover_ms"},
		}
		for _, shards := range shardLadder {
			pp := forestTune(dev, s.InitialEntries, s.MemBytes, shards, insertRatio)
			for _, mode := range []string{"ganged", "per-shard"} {
				fr, logs, recs, err := buildWALForest(dev, s.InitialEntries, s.MemBytes, shards, pp, nil, mode == "per-shard")
				if err != nil {
					return nil, err
				}
				ops := workload.Mixed(s.Ops, insertRatio, recs, s.Seed)
				elapsed := runMixedThreads(ops, threads, fr.Insert, fr.Search)
				// Commit point: one last ganged force makes the queued
				// entries' redo records durable, then the crash hits.
				endAt, _, err := wal.ForceGroup(elapsed, logs)
				if err != nil {
					return nil, err
				}
				st := fr.Stats()
				fr.Crash()
				rep, recDone, err := fr.Recover(endAt)
				if err != nil {
					return nil, err
				}
				if err := fr.CheckInvariants(); err != nil {
					return nil, fmt.Errorf("bench: recovered forest invalid: %w", err)
				}
				t.AddRow(mode, fmt.Sprintf("%d", shards), fmtSeconds(elapsed),
					fmt.Sprintf("%d", st.LogSubmits),
					fmt.Sprintf("%d", st.LogGangSubmits),
					fmt.Sprintf("%d", st.LogForceWrites),
					fmt.Sprintf("%d", st.Tree.Flushes),
					fmt.Sprintf("%d", rep.Total.RedoneEntries),
					fmt.Sprintf("%.2f", (recDone-endAt).Millis()))
			}
		}
		t.Notes = append(t.Notes,
			"log_submits counts blocking log-force submissions (serial forces + ganged group commits); ganged mode turns each group flush's per-member forces into two shared submissions",
			"the crash hits a commit point, so recovery redoes the queued tail without undo I/O; recover_ms is the timed undo cost (zero here by design)")
		out = append(out, *t)
	}
	return out, nil
}

func init() {
	Register("recovery", RecoveryBench)
}
