package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flashsim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// RecoveryBench measures the log plane of the sharded forest: an
// insert-only workload against WAL-attached forests of growing shard
// count, once with the coordinator's two-phase ganged group commit and
// once with per-shard serial log forces (the baseline). It reports the
// blocking log submissions each mode issued, then crashes each forest at
// a commit point and replays the WAL, reporting the live log it scanned,
// the redo volume and the recovery time.
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
				"log_gangs", "log_forces", "flushes", "log_kb", "redone", "recover_ms"},
		}
		for _, shards := range shardLadder {
			pp := forestTune(dev, s.InitialEntries, s.MemBytes, shards, insertRatio)
			for _, mode := range []string{"ganged", "per-shard"} {
				fr, logs, recs, err := buildForest(dev, s.InitialEntries, s.MemBytes, pp, core.Spec{
					Shards: shards, WAL: true,
					Forest: core.ForestConfig{DisableLogGang: mode == "per-shard"},
				})
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
				var live int64
				for _, l := range logs {
					live += l.LiveBytes()
				}
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
					fmt.Sprintf("%.1f", float64(live)/1024),
					fmt.Sprintf("%d", rep.Total.RedoneEntries),
					fmt.Sprintf("%.2f", (recDone-endAt).Millis()))
			}
		}
		t.Notes = append(t.Notes,
			"log_submits counts blocking log-force submissions (serial forces + ganged group commits); ganged mode turns each group flush's per-member forces into two shared submissions",
			"the crash hits a commit point, so recovery redoes the queued tail without undo I/O; recover_ms is the timed scan of the live log (log_kb): each committed flush that empties its shard's queue moves the log head to its FlushStart, so the scan covers the queued tail and the last flush")
		out = append(out, *t)
	}
	return out, nil
}

func init() {
	Register("recovery", RecoveryBench)
}
