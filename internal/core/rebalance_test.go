package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// rebalForestCfg: 4 range-partitioned shards with roomy OPQs, so a
// migration's copies and purge tombstones stay queued (no incidental
// flushes) and the crash harness can reason about durable state exactly.
func rebalForestCfg() ForestConfig {
	c := smallCfg()
	c.OPQPages = 4 * crashShards
	c.BufferBytes = 32 * 1024
	bounds := make([]kv.Key, crashShards-1)
	for i := range bounds {
		bounds[i] = kv.Key(i+1) * crashStride
	}
	return ForestConfig{
		Partitioner:    RangePartitioner{Bounds: bounds},
		RipeFraction:   0.05,
		Shard:          c,
		MigrationChunk: 16,
	}
}

const rebalPerShard = 60

// loadRebalForest bulk-inserts rebalPerShard keys per shard and
// checkpoints, yielding a fully durable baseline.
func loadRebalForest(t *testing.T, fr *Forest) vtime.Ticks {
	t.Helper()
	var at vtime.Ticks
	var err error
	for j := 0; j < rebalPerShard; j++ {
		for s := 0; s < crashShards; s++ {
			k := phase1Key(s, j)
			at, err = fr.Insert(at, kv.Record{Key: k, Value: crashVal(k)})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	at, err = fr.Checkpoint(at)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// verifyAllKeys asserts every phase-1 key is present with its value.
func verifyAllKeys(t *testing.T, fr *Forest, at vtime.Ticks) vtime.Ticks {
	t.Helper()
	for s := 0; s < crashShards; s++ {
		for j := 0; j < rebalPerShard; j++ {
			k := phase1Key(s, j)
			v, ok, d, err := fr.Search(at, k)
			if err != nil || !ok || v != crashVal(k) {
				t.Fatalf("key %d: v=%d ok=%v err=%v", k, v, ok, err)
			}
			at = d
		}
	}
	if got, want := fr.Count(), int64(crashShards*rebalPerShard); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return at
}

// TestSplitShardMovesKeys: a committed split moves the upper half of a
// shard to the coldest destination and routing follows.
func TestSplitShardMovesKeys(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)

	boundary := phase1Key(0, rebalPerShard/2)
	dst, at, err := fr.SplitShard(at, 0, boundary)
	if err != nil {
		t.Fatal(err)
	}
	if dst == 0 {
		t.Fatalf("split destination is the source shard")
	}
	// Moved: shard 0's keys >= boundary. The destination tree must hold
	// them; routing must point there.
	moved := 0
	for j := rebalPerShard / 2; j < rebalPerShard; j++ {
		k := phase1Key(0, j)
		if got := fr.Routing().Shard(k); got != dst {
			t.Fatalf("key %d routes to %d, want %d", k, got, dst)
		}
		moved++
	}
	for j := 0; j < rebalPerShard/2; j++ {
		if k := phase1Key(0, j); fr.Routing().Shard(k) != 0 {
			t.Fatalf("key %d moved but is below the boundary", k)
		}
	}
	st := fr.Stats()
	if st.Migrations != 1 || st.MigratedKeys != int64(moved) {
		t.Fatalf("stats: %d migrations, %d keys; want 1, %d", st.Migrations, st.MigratedKeys, moved)
	}
	if st.MigrationActive {
		t.Fatal("migration still marked active after commit")
	}
	at = verifyAllKeys(t, fr, at)

	// Range search across the split range merges both shards, no dups.
	recs, _, err := fr.RangeSearch(at, phase1Key(0, 0), phase1Key(0, rebalPerShard))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != rebalPerShard {
		t.Fatalf("range search found %d records, want %d", len(recs), rebalPerShard)
	}
}

// TestMergeShardsAndResplit: merging empties the source; a later split
// picks the emptied shard as its destination.
func TestMergeShardsAndResplit(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)

	at, err := fr.MergeShards(at, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := fr.ShardTree(1).Count(); n != 0 {
		t.Fatalf("merged-away shard still holds %d keys", n)
	}
	at = verifyAllKeys(t, fr, at)

	// Shard 0 now carries two stripes; split it at the stripe boundary —
	// the emptied shard 1 must be chosen as destination.
	dst, at, err := fr.SplitShard(at, 0, crashStride)
	if err != nil {
		t.Fatal(err)
	}
	if dst != 1 {
		t.Fatalf("split chose shard %d, want the emptied shard 1", dst)
	}
	verifyAllKeys(t, fr, at)
}

// TestOnlineSplitUnderTraffic drives inserts and searches from many
// goroutines while a split migrates a hot range, then checks nothing was
// lost or duplicated. Run under -race in CI.
func TestOnlineSplitUnderTraffic(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)

	const workers = 6
	const opsPerWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var now vtime.Ticks
			shard := w % crashShards
			for i := 0; i < opsPerWorker; i++ {
				k := kv.Key(shard)*crashStride + 5000 + kv.Key(w*opsPerWorker+i)
				var err error
				if i%3 == 0 {
					_, _, now, err = fr.Search(now, k)
				} else {
					now, err = fr.Insert(now, kv.Record{Key: k, Value: crashVal(k)})
				}
				if err != nil {
					panic(err)
				}
			}
		}(w)
	}
	// Concurrently split shard 0 at its stripe midpoint.
	boundary := kv.Key(5000 + workers*opsPerWorker/2)
	if _, _, err := fr.SplitShard(at, 0, boundary); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every inserted key must be found exactly once through routing.
	var now vtime.Ticks
	for w := 0; w < workers; w++ {
		shard := w % crashShards
		for i := 0; i < opsPerWorker; i++ {
			if i%3 == 0 {
				continue
			}
			k := kv.Key(shard)*crashStride + 5000 + kv.Key(w*opsPerWorker+i)
			v, ok, d, err := fr.Search(now, k)
			if err != nil || !ok || v != crashVal(k) {
				t.Fatalf("key %d after online split: v=%d ok=%v err=%v", k, v, ok, err)
			}
			now = d
		}
	}
}

// TestCountHammerRace calls Forest.Count while writers insert fresh keys
// (their full queues flush) and a mover splits shard 0 chunk by chunk.
// Each sweep counts one shard at a time under the migration lock, so a
// key is counted once wherever it lives, and inserts only add: every
// count lies between the loaded and the final content and never falls.
func TestCountHammerRace(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)
	const workers, opsPerWorker = 4, 200
	loaded := int64(crashShards * rebalPerShard)
	final := loaded + workers*opsPerWorker
	var writers, counter sync.WaitGroup
	var stop atomic.Bool
	counter.Add(1)
	go func() {
		defer counter.Done()
		for last := loaded; ; {
			n := fr.Count()
			if n < last || n > final {
				t.Errorf("Count() = %d after %d, want it in [%d, %d] and never falling", n, last, last, final)
				return
			}
			if last = n; stop.Load() {
				return
			}
		}
	}()
	before := fr.Stats().Tree.Flushes
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var now vtime.Ticks
			for i := 0; i < opsPerWorker; i++ {
				k := kv.Key(w%crashShards)*crashStride + 5000 + kv.Key(w*opsPerWorker+i)
				var err error
				if now, err = fr.Insert(now, kv.Record{Key: k, Value: crashVal(k)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	_, _, err := fr.SplitShard(at, 0, kv.Key(30))
	writers.Wait()
	stop.Store(true)
	counter.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stats().Tree.Flushes == before {
		t.Fatal("no writer's queue flushed")
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := fr.Count(); n != final {
		t.Fatalf("Count() = %d at the end, want %d", n, final)
	}
}

// TestAutoRebalanceSplitsHotspot: a hotspot shard absorbing most traffic
// triggers an automatic split at its median key.
func TestAutoRebalanceSplitsHotspot(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)

	// Prime the policy's delta baseline.
	if moved, _, _, _, err := fr.AutoRebalance(at, RebalancePolicy{MinOps: 100}); err != nil || moved {
		t.Fatalf("premature rebalance: moved=%v err=%v", moved, err)
	}
	// Hammer shard 0 only.
	var err error
	for i := 0; i < 400; i++ {
		k := phase1Key(0, i%rebalPerShard)
		_, _, at, err = fr.Search(at, k)
		if err != nil {
			t.Fatal(err)
		}
	}
	moved, from, to, at, err := fr.AutoRebalance(at, RebalancePolicy{MinOps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !moved || from != 0 {
		t.Fatalf("auto rebalance: moved=%v from=%d to=%d", moved, from, to)
	}
	if fr.Stats().Migrations != 1 {
		t.Fatalf("expected one committed migration, got %d", fr.Stats().Migrations)
	}
	verifyAllKeys(t, fr, at)
}

// migCut selects where the injected crash lands relative to a
// migration's WAL record sequence.
type migCut int

const (
	// cutPreStart: the MigrationStart force never completed — no
	// migration is visible in the durable log.
	cutPreStart migCut = iota
	// cutPreKeyMoved: the destination holds the first chunk's copies
	// (they were forced), but the source's KeyMoved record was lost — the
	// move must roll back.
	cutPreKeyMoved
	// cutMidKeyMoved: the first chunk's KeyMoved is durable but its
	// source deletes were torn off the same force — the move resumes from
	// the frontier and re-purges the stale source copies.
	cutMidKeyMoved
	// cutAfterChunk: a clean crash right after the first chunk committed.
	cutAfterChunk
	// cutPreEnd: every chunk committed, MigrationEnd lost — the resume
	// path re-commits the flip.
	cutPreEnd
	// cutComplete: the whole migration is durable.
	cutComplete
)

func (c migCut) String() string {
	return [...]string{"preStart", "preKeyMoved", "midKeyMoved", "afterChunk", "preEnd", "complete"}[c]
}

// cutBeforeKind truncates recs just before the idx-th record of the
// given kind (idx counts from 0).
func cutBeforeKind(recs []wal.Record, kind wal.Kind, idx int) []wal.Record {
	seen := 0
	for i, r := range recs {
		if r.Kind == kind {
			if seen == idx {
				return recs[:i]
			}
			seen++
		}
	}
	return recs
}

// cutAfterKind truncates recs just after the idx-th record of the kind.
func cutAfterKind(recs []wal.Record, kind wal.Kind, idx int) []wal.Record {
	seen := 0
	for i, r := range recs {
		if r.Kind == kind {
			if seen == idx {
				return recs[:i+1]
			}
			seen++
		}
	}
	return recs
}

// TestMigrationCrashMatrix cuts a split's WAL at every protocol boundary
// — before MigrationStart, around the first KeyMoved, and before
// MigrationEnd — rebuilds the forest from the durable prefix, and
// verifies Recover restores a consistent routing table with no lost or
// duplicated keys.
func TestMigrationCrashMatrix(t *testing.T) {
	for _, cut := range []migCut{cutPreStart, cutPreKeyMoved, cutMidKeyMoved, cutAfterChunk, cutPreEnd, cutComplete} {
		t.Run(cut.String(), func(t *testing.T) { runMigrationCrashScenario(t, cut) })
	}
}

func runMigrationCrashScenario(t *testing.T, cut migCut) {
	cfg := rebalForestCfg()
	fr, logs, pfs := newCrashForest(t, cfg)
	at := loadRebalForest(t, fr)

	// The durable pre-migration baseline: everything checkpointed.
	preFiles := make([][]byte, crashShards)
	pages := make([]int64, crashShards)
	for i, pf := range pfs {
		preFiles[i] = pf.File().Snapshot()
		pages[i] = pf.NumPages()
	}
	preMeta := fr.SnapshotMeta()

	// Split shard 0 at its midpoint toward some destination; drive the
	// chunks by hand so the crash can land between protocol records. With
	// 30 keys moving and 16-key chunks there are exactly 2 chunks.
	boundary := phase1Key(0, rebalPerShard/2)
	m, now, err := fr.StartMigration(at, boundary, MaxMigrationKey, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	switch cut {
	case cutPreStart, cutPreKeyMoved, cutMidKeyMoved, cutAfterChunk:
		steps = 1 // first chunk only
	default:
		for {
			done, d, err := m.Step(now)
			if err != nil {
				t.Fatal(err)
			}
			now = d
			if done {
				break
			}
		}
	}
	for i := 0; i < steps; i++ {
		if _, now, err = m.Step(now); err != nil {
			t.Fatal(err)
		}
	}

	// Capture the durable log images and cut them per the scenario.
	srcRecs, err := logs[0].Records()
	if err != nil {
		t.Fatal(err)
	}
	dstRecs, err := logs[1].Records()
	if err != nil {
		t.Fatal(err)
	}
	switch cut {
	case cutPreStart:
		srcRecs = cutBeforeKind(srcRecs, wal.KindMigrationStart, 0)
		dstRecs = cutBeforeKind(dstRecs, wal.KindMigrationStart, 0)
	case cutPreKeyMoved:
		srcRecs = cutBeforeKind(srcRecs, wal.KindKeyMoved, 0)
	case cutMidKeyMoved:
		// KeyMoved durable, the same force's trailing deletes torn off.
		srcRecs = cutAfterKind(srcRecs, wal.KindKeyMoved, 0)
	case cutAfterChunk:
		// Everything the first chunk forced survives.
	case cutPreEnd:
		srcRecs = cutBeforeKind(srcRecs, wal.KindMigrationEnd, 0)
		dstRecs = cutBeforeKind(dstRecs, wal.KindMigrationEnd, 0)
	case cutComplete:
	}

	// Rebuild on a fresh device: pre-migration data files (no flush ran
	// during the migration — the copies and tombstones were still queued)
	// plus the cut logs, then recover.
	dev2 := flashsim.MustDevice(flashsim.P300())
	space2 := ssdio.NewSpace(dev2)
	pfs2 := make([]*pagefile.PageFile, crashShards)
	logs2 := make([]*wal.Log, crashShards)
	for i := 0; i < crashShards; i++ {
		f, err := space2.Create(fmt.Sprintf("shard%d", i), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		f.Restore(preFiles[i])
		pfs2[i], err = pagefile.New(f, cfg.Shard.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for pfs2[i].NumPages() < pages[i] {
			pfs2[i].Alloc()
		}
		wf, err := space2.Create(fmt.Sprintf("wal%d", i), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		logs2[i], err = wal.NewLog(wf, cfg.Shard.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		recs := []wal.Record(nil)
		switch i {
		case 0:
			recs = srcRecs
		case 1:
			recs = dstRecs
		default:
			if recs, err = logs[i].Records(); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range recs {
			logs2[i].Append(r)
		}
		if _, err := logs2[i].Force(0); err != nil {
			t.Fatal(err)
		}
	}
	cfg2 := rebalForestCfg()
	cfg2.Logs = logs2
	fr2, err := NewForest(pfs2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr2.RestoreMeta(preMeta); err != nil {
		t.Fatal(err)
	}
	rep, at2, err := fr2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}

	// Shape of the resolution per scenario.
	rules := fr2.Routing().Rules()
	switch cut {
	case cutPreStart:
		if rep.ResumedMigrations != 0 || rep.RolledBackMigrations != 0 || len(rules) != 0 {
			t.Fatalf("preStart resolved something: %+v rules=%v", rep, rules)
		}
	case cutPreKeyMoved:
		if rep.RolledBackMigrations != 1 || len(rules) != 0 {
			t.Fatalf("preKeyMoved: %+v rules=%v", rep, rules)
		}
	case cutMidKeyMoved, cutAfterChunk, cutPreEnd:
		if rep.ResumedMigrations != 1 || len(rules) != 1 {
			t.Fatalf("%v: %+v rules=%v", cut, rep, rules)
		}
	case cutComplete:
		if rep.ResumedMigrations != 0 || rep.RolledBackMigrations != 0 || len(rules) != 1 {
			t.Fatalf("complete: %+v rules=%v", rep, rules)
		}
	}
	// Whatever the cut, the recovered forest holds exactly the loaded
	// keys — none lost, none duplicated — and routing resolves them.
	verifyAllKeys(t, fr2, at2)

	// Resolved scenarios must place the moved range on the destination.
	if len(rules) == 1 {
		for j := rebalPerShard / 2; j < rebalPerShard; j++ {
			k := phase1Key(0, j)
			if got := fr2.Routing().Shard(k); got != 1 {
				t.Fatalf("key %d routes to %d after recovery, want 1", k, got)
			}
		}
		if n := fr2.ShardTree(0).Count(); n != rebalPerShard/2 {
			t.Fatalf("source still holds %d keys, want %d", n, rebalPerShard/2)
		}
	}
}

// TestMigrationRecoverInPlace crashes mid-migration without rebuilding:
// the volatile frontier is lost, Recover resumes from the durable one.
func TestMigrationRecoverInPlace(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)

	boundary := phase1Key(0, rebalPerShard/2)
	m, now, err := fr.StartMigration(at, boundary, MaxMigrationKey, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = m.Step(now); err != nil { // one chunk committed
		t.Fatal(err)
	}
	fr.Crash()
	rep, at2, err := fr.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedMigrations != 1 {
		t.Fatalf("expected an in-place resume, got %+v", rep)
	}
	verifyAllKeys(t, fr, at2)
	if len(fr.Routing().Rules()) != 1 {
		t.Fatalf("routing rules after resume: %v", fr.Routing().Rules())
	}
}

// TestRebalancingPartitionerRangeShards covers the wrapper's RangeShards
// edge cases over both base partitioners: empty range, lo==hi,
// boundary-equal keys, and rule/migration widening.
func TestRebalancingPartitionerRangeShards(t *testing.T) {
	rng := RangePartitioner{Bounds: []kv.Key{100, 200}}
	p, err := newRebalancingPartitioner(rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RangeShards(50, 50); got != nil {
		t.Fatalf("lo==hi must be empty, got %v", got)
	}
	if got := p.RangeShards(80, 50); got != nil {
		t.Fatalf("inverted range must be empty, got %v", got)
	}
	// A boundary-equal lo lands in the upper shard; hi is exclusive, so
	// [100, 200) touches only shard 1.
	if got := p.RangeShards(100, 200); len(got) != 1 || got[0] != 1 {
		t.Fatalf("[100,200) = %v, want [1]", got)
	}
	if got := p.RangeShards(99, 101); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("[99,101) = %v, want [0 1]", got)
	}
	// A committed rule widens overlapping ranges to its target.
	p.cur.Store(&routing{base: rng, slots: 3,
		rules: []MoveRule{{Lo: 150, Hi: 180, From: 1, To: 2, ID: 1}}})
	if got := p.RangeShards(150, 160); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ruled range = %v, want [1 2]", got)
	}
	if got := p.Shard(155); got != 2 {
		t.Fatalf("ruled key routes to %d, want 2", got)
	}
	if got := p.Shard(180); got != 1 {
		t.Fatalf("rule hi is exclusive; key 180 routes to %d, want 1", got)
	}
	// An in-flight migration widens too, but only routes below the
	// frontier.
	p.cur.Store(&routing{base: rng, slots: 3,
		mig: &migRoute{id: 2, lo: 0, hi: 100, src: 0, dst: 2, frontier: 40}})
	if got := p.RangeShards(0, 100); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("migrating range = %v, want [0 2]", got)
	}
	if got := p.Shard(39); got != 2 {
		t.Fatalf("below-frontier key routes to %d, want 2", got)
	}
	if got := p.Shard(40); got != 0 {
		t.Fatalf("frontier key routes to %d, want 0 (frontier exclusive)", got)
	}

	// Hash base: a range never prunes, and the wrapper passes it through.
	hp, err := newRebalancingPartitioner(HashPartitioner{N: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := hp.RangeShards(7, 7); got != nil {
		t.Fatalf("hash lo==hi must be empty, got %v", got)
	}
	if got := hp.RangeShards(7, 8); len(got) != 3 {
		t.Fatalf("hash single-key range = %v, want all shards", got)
	}
}

// TestValidateRebalancingPartitioner covers validatePartitioner on the
// wrapper: base validation still applies and bad rules are rejected.
func TestValidateRebalancingPartitioner(t *testing.T) {
	good, err := newRebalancingPartitioner(RangePartitioner{Bounds: []kv.Key{10}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := validatePartitioner(good, 2); err != nil {
		t.Fatalf("valid wrapper rejected: %v", err)
	}
	if err := validatePartitioner(good, 3); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if _, err := newRebalancingPartitioner(HashPartitioner{N: 2}, 3); err == nil {
		t.Fatal("base/slot mismatch accepted")
	}
	if _, err := newRebalancingPartitioner(good, 2); err == nil {
		t.Fatal("nested wrapper accepted")
	}
	bad, _ := newRebalancingPartitioner(RangePartitioner{Bounds: []kv.Key{10}}, 2)
	bad.cur.Store(&routing{base: RangePartitioner{Bounds: []kv.Key{10}}, slots: 2,
		rules: []MoveRule{{Lo: 5, Hi: 5, From: 0, To: 1}}})
	if err := validatePartitioner(bad, 2); err == nil {
		t.Fatal("empty-range rule accepted")
	}
	bad.cur.Store(&routing{base: RangePartitioner{Bounds: []kv.Key{10}}, slots: 2,
		rules: []MoveRule{{Lo: 0, Hi: 5, From: 0, To: 7}}})
	if err := validatePartitioner(bad, 2); err == nil {
		t.Fatal("out-of-range rule target accepted")
	}
	// The unsorted-bounds check still fires through the wrapper.
	wrapped, _ := newRebalancingPartitioner(RangePartitioner{Bounds: []kv.Key{20, 10}}, 3)
	if err := validatePartitioner(wrapped, 3); err == nil {
		t.Fatal("unsorted base bounds accepted through the wrapper")
	}
}

// TestRoutingMetaRoundTrip checks the snapshot encoding recovery relies
// on, and that a payload with a 20-byte header (no evacuated mask) is
// rejected rather than misread.
func TestRoutingMetaRoundTrip(t *testing.T) {
	in := RoutingMeta{Epoch: 7, MaxCommitted: 3, Evacuated: 1<<3 | 1<<63, Rules: []MoveRule{
		{Lo: 10, Hi: 20, From: 0, To: 2, ID: 2},
		{Lo: 0, Hi: MaxMigrationKey, From: 3, To: 1, ID: 3},
	}}
	enc := encodeRoutingMeta(in)
	out, err := decodeRoutingMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
	if _, err := decodeRoutingMeta([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
	for n := 0; n <= len(in.Rules); n++ {
		// A 20-byte header: epoch, max-committed, rule count; then n rules.
		short := append(append([]byte(nil), enc[:16]...), enc[24:28]...)
		short = append(short, enc[28:28+32*n]...)
		binary.LittleEndian.PutUint32(short[16:], uint32(n))
		if m, err := decodeRoutingMeta(short); err == nil {
			t.Fatalf("%d-byte payload with a 20-byte header accepted as %+v", len(short), m)
		}
	}
}

// TestCheckpointTruncatesLogs: the forest checkpoint truncates each
// log's head past the dead prefix, recovery still works, and truncation
// is skipped while a migration is in flight.
func TestCheckpointTruncatesLogs(t *testing.T) {
	fr, logs, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr) // includes a checkpoint

	st := fr.Stats()
	if st.LogTruncatedBytes == 0 {
		t.Fatal("checkpoint truncated nothing")
	}
	for i, l := range logs {
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || recs[0].Kind != wal.KindCheckpoint {
			t.Fatalf("log %d head after truncation starts with %v, want the checkpoint", i, recs[:min(len(recs), 3)])
		}
	}
	// Post-truncation crash recovery restores the checkpointed state.
	var err error
	k := phase1Key(0, 0)
	at, err = fr.Insert(at, kv.Record{Key: k + 500000, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	at, err = fr.Sync(at)
	if err != nil {
		t.Fatal(err)
	}
	pre := fr.Count()
	fr.Crash()
	if _, _, err := fr.Recover(at); err != nil {
		t.Fatal(err)
	}
	if got := fr.Count(); got != pre {
		t.Fatalf("count %d after post-truncation recovery, want %d", got, pre)
	}

	// While a migration is in flight, a checkpoint must keep its records:
	// no log is cut at this round's checkpoint record. (Its drains are
	// flush commits, which cut below their pins as every flush does.)
	m, now, err := fr.StartMigration(at, phase1Key(0, rebalPerShard/2), MaxMigrationKey, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = m.Step(now); err != nil {
		t.Fatal(err)
	}
	if now, err = fr.Checkpoint(now); err != nil {
		t.Fatal(err)
	}
	for i, l := range logs {
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		last := -1
		for j, r := range recs {
			if r.Kind == wal.KindCheckpoint {
				last = j
			}
		}
		if last <= 0 {
			t.Fatalf("log %d: cut at this round's checkpoint record during a migration (checkpoint at record %d)", i, last)
		}
		if i == 0 && !slices.ContainsFunc(recs, func(r wal.Record) bool { return r.Kind == wal.KindMigrationStart }) {
			t.Fatal("MigrationStart truncated away mid-migration")
		}
	}
	trunc := fr.Stats().LogTruncatedBytes
	// Finish the move; the next checkpoint truncates again.
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}
	if _, err = fr.Checkpoint(now); err != nil {
		t.Fatal(err)
	}
	if got := fr.Stats().LogTruncatedBytes; got <= trunc {
		t.Fatalf("post-migration checkpoint truncated nothing (still %d)", got)
	}
}

// TestCheckpointBoundsLogImage: however much log the checkpoint rounds
// write, each log file's host image stays within its live bytes plus the
// two extents the live range only partly covers (the head's and the
// tail's): truncation releases the host memory it cuts.
func TestCheckpointBoundsLogImage(t *testing.T) {
	cfg := crashForestCfg()
	space := ssdio.NewSpace(flashsim.MustDevice(flashsim.P300()))
	pfs := make([]*pagefile.PageFile, crashShards)
	wfs := make([]*ssdio.File, crashShards)
	for i := range pfs {
		f, err := space.Create(fmt.Sprintf("shard%d", i), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if pfs[i], err = pagefile.New(f, cfg.Shard.PageSize); err != nil {
			t.Fatal(err)
		}
		if wfs[i], err = space.Create(fmt.Sprintf("wal%d", i), int64(cfg.Shard.PageSize)); err != nil {
			t.Fatal(err)
		}
		l, err := wal.NewLog(wfs[i], cfg.Shard.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Logs = append(cfg.Logs, l)
	}
	fr, err := NewForest(pfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 40, 50
	var at vtime.Ticks
	for r := 0; r < rounds; r++ {
		for j := 0; j < perRound; j++ {
			for s := 0; s < crashShards; s++ {
				k := phase1Key(s, r*perRound+j)
				if at, err = fr.Insert(at, kv.Record{Key: k, Value: crashVal(k)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if at, err = fr.Checkpoint(at); err != nil {
			t.Fatal(err)
		}
		for i, l := range cfg.Logs {
			if got, bound := wfs[i].ResidentBytes(), l.LiveBytes()+2*ssdio.ExtentSize; got > bound {
				t.Fatalf("round %d: log %d holds %d bytes of image for %d live, want <= %d", r, i, got, l.LiveBytes(), bound)
			}
		}
	}
	// The bound only bites if the rounds wrote well past it.
	for i, l := range cfg.Logs {
		if got := l.TruncatedBytes(); got < 4*ssdio.ExtentSize {
			t.Fatalf("log %d truncated only %d bytes over %d rounds", i, got, rounds)
		}
	}
}

// TestMigrationHashBase: migrating a key range out of a hash-partitioned
// shard, where the destination natively holds its own keys inside the
// migrating range — the recovery purge must not touch them.
func TestMigrationHashBase(t *testing.T) {
	cfg := rebalForestCfg()
	cfg.Partitioner = HashPartitioner{N: crashShards}
	fr, _, _ := newCrashForest(t, cfg)
	const n = 400
	var at vtime.Ticks
	var err error
	for k := kv.Key(1); k <= n; k++ {
		at, err = fr.Insert(at, kv.Record{Key: k, Value: crashVal(k)})
		if err != nil {
			t.Fatal(err)
		}
	}
	at, err = fr.Checkpoint(at)
	if err != nil {
		t.Fatal(err)
	}

	// Move shard 2's slice of [1, n/2) onto shard 3; crash after one
	// chunk; recovery resumes and must keep shard 3's native keys.
	m, now, err := fr.StartMigration(at, 1, n/2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = m.Step(now); err != nil {
		t.Fatal(err)
	}
	fr.Crash()
	rep, at2, err := fr.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedMigrations != 1 {
		t.Fatalf("hash-base resume: %+v", rep)
	}
	for k := kv.Key(1); k <= n; k++ {
		v, ok, d, err := fr.Search(at2, k)
		if err != nil || !ok || v != crashVal(k) {
			t.Fatalf("key %d after hash-base migration recovery: %v %v %v", k, v, ok, err)
		}
		at2 = d
	}
	if got := fr.Count(); got != n {
		t.Fatalf("count %d, want %d", got, n)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Migrated keys route to 3; shard 2 no longer owns anything in the
	// moved range.
	base := HashPartitioner{N: crashShards}
	for k := kv.Key(1); k < n/2; k++ {
		if base.Shard(k) == 2 {
			if got := fr.Routing().Shard(k); got != 3 {
				t.Fatalf("moved key %d routes to %d, want 3", k, got)
			}
		}
	}
}

// TestStaleMigrationHandleAfterCrash: a Migration handle that survived a
// crash (whose Recover resolved the move) must error on Step, not panic
// or corrupt routing.
func TestStaleMigrationHandleAfterCrash(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)
	m, now, err := fr.StartMigration(at, phase1Key(0, rebalPerShard/2), MaxMigrationKey, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = m.Step(now); err != nil {
		t.Fatal(err)
	}
	fr.Crash()
	if _, at, err = fr.Recover(now); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Step(at); err == nil {
		t.Fatal("stale handle Step succeeded after crash+recover")
	}
	if _, err := m.Drain(at); err == nil {
		t.Fatal("stale handle Drain succeeded after crash+recover")
	}
	// The resolved forest keeps serving and can start a fresh migration.
	at = verifyAllKeys(t, fr, at)
	if _, err = fr.MergeShards(at, 0, 1); err != nil {
		t.Fatal(err)
	}
}
