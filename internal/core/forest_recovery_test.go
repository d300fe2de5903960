package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// shardCrash selects how far one shard's durable state got before the
// injected crash of a group flush.
type shardCrash int

const (
	// crashComplete: the shard's FlushEnd reached the log — its flush
	// committed; recovery must skip its redo records.
	crashComplete shardCrash = iota
	// crashNoEnd: FlushStart and undo records durable, FlushEnd lost, the
	// data gang's writes applied — recovery must undo, then redo.
	crashNoEnd
	// crashNoEndNoData: as crashNoEnd but the crash also beat the data
	// gang, so the pages still hold pre-flush content.
	crashNoEndNoData
	// crashPreFlush: the crash beat the group's prepare force — only the
	// logical redo records are durable.
	crashPreFlush
	// crashLostTail: the phase-2 redo records never reached the commit
	// point; the entries are legitimately lost.
	crashLostTail
)

func (c shardCrash) String() string {
	switch c {
	case crashComplete:
		return "complete"
	case crashNoEnd:
		return "noEnd"
	case crashNoEndNoData:
		return "noEndNoData"
	case crashPreFlush:
		return "preFlush"
	default:
		return "lostTail"
	}
}

const (
	crashShards    = 4
	crashStride    = kv.Key(1) << 20
	phase1PerShard = 100
	phase2PerShard = 20
)

// crashForestCfg keeps each shard's OPQ at one page (~42 entries) so the
// phase-2 batches stay queued until the controlled group flush.
func crashForestCfg() ForestConfig {
	c := smallCfg()
	c.OPQPages = crashShards // one page per shard after the global split
	c.BufferBytes = 32 * 1024
	bounds := make([]kv.Key, crashShards-1)
	for i := range bounds {
		bounds[i] = kv.Key(i+1) * crashStride
	}
	return ForestConfig{
		Partitioner:  RangePartitioner{Bounds: bounds},
		RipeFraction: 0.05, // every non-empty shard joins the group flush
		Shard:        c,
	}
}

// newCrashForest builds a WAL-attached forest (one log per shard, all on
// one simulated device) from cfg.
func newCrashForest(t *testing.T, cfg ForestConfig) (*Forest, []*wal.Log, []*pagefile.PageFile) {
	t.Helper()
	fr, _, pfs, logs := buildTestForest(t, Spec{Shards: crashShards, WAL: true, Forest: cfg})
	return fr, logs, pfs
}

func phase1Key(shard, j int) kv.Key { return kv.Key(shard)*crashStride + kv.Key(j) }
func phase2Key(shard, j int) kv.Key { return kv.Key(shard)*crashStride + 500 + kv.Key(j) }
func crashVal(k kv.Key) kv.Value    { return kv.Value(k*3 + 1) }

// cutRecords truncates one shard's durable log at the crash point the
// scenario prescribes. The controlled group flush's records are the
// log's tail: ... redo*, FlushStart, undo*, FlushEnd.
func cutRecords(t *testing.T, recs []wal.Record, c shardCrash) []wal.Record {
	t.Helper()
	lastOf := func(k wal.Kind) int {
		idx := -1
		for i, r := range recs {
			if r.Kind == k {
				idx = i
			}
		}
		return idx
	}
	switch c {
	case crashComplete:
		return recs
	case crashNoEnd, crashNoEndNoData:
		i := lastOf(wal.KindFlushEnd)
		if i < 0 {
			t.Fatal("no FlushEnd in durable log")
		}
		return recs[:i]
	case crashPreFlush:
		i := lastOf(wal.KindFlushStart)
		if i < 0 {
			t.Fatal("no FlushStart in durable log")
		}
		return recs[:i]
	default: // crashLostTail
		i := lastOf(wal.KindCheckpoint)
		if i < 0 {
			t.Fatal("no checkpoint in durable log")
		}
		return recs[:i+1]
	}
}

// TestForestCrashRecoveryMatrix injects crashes at arbitrary points of a
// multi-shard group flush — per shard: flush committed, FlushEnd lost
// with and without the data writes applied, prepare force lost, and
// redo-tail lost — and verifies Forest.Recover restores exactly the
// durable prefix on every shard.
func TestForestCrashRecoveryMatrix(t *testing.T) {
	scenarios := [][]shardCrash{
		{crashComplete, crashComplete, crashComplete, crashComplete},
		{crashNoEnd, crashNoEnd, crashNoEnd, crashNoEnd},
		{crashNoEndNoData, crashNoEndNoData, crashNoEndNoData, crashNoEndNoData},
		{crashPreFlush, crashPreFlush, crashPreFlush, crashPreFlush},
		{crashComplete, crashNoEnd, crashPreFlush, crashLostTail},
		{crashNoEnd, crashComplete, crashNoEndNoData, crashComplete},
		{crashLostTail, crashLostTail, crashComplete, crashNoEnd},
	}
	for _, sc := range scenarios {
		name := ""
		for i, c := range sc {
			if i > 0 {
				name += "-"
			}
			name += c.String()
		}
		t.Run(name, func(t *testing.T) { runForestCrashScenario(t, sc, 0) })
	}
}

// TestForestUndoneMemberStaysUndone: a group flush whose FlushEnd reached
// every member's log but one is recovered, undoing that member's flush
// alone. Half of the member's queue then flushes again and commits, so
// its log head stays below the undone flush, and a second crash follows
// with no checkpoint in between: the second recovery must not undo the
// first flush again over the pages the second one wrote.
func TestForestUndoneMemberStaysUndone(t *testing.T) {
	crashes := []shardCrash{crashComplete, crashNoEnd, crashComplete, crashComplete}
	fr, at := runForestCrashScenario(t, crashes, phase2PerShard/2)
	at, err := fr.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = fr.Sync(at); err != nil {
		t.Fatal(err)
	}
	rep, at := crashRecover(t, fr, at)
	if rep.UndoneFlushes != 0 || rep.UndoPagesApplied != 0 || rep.RedoneEntries != phase2PerShard/2 {
		t.Fatalf("second recovery: %+v, want no undo and %d entries redone", rep, phase2PerShard/2)
	}
	checkCrashPrefix(t, fr, at, crashes)
}

// runForestCrashScenario crashes a 4-shard group flush as crashes
// prescribes, recovers a forest rebuilt over the durable state, checks
// its report and content, and returns it. The rebuilt forest flushes at
// most bcnt entries at a time (<= 0: the whole queue).
func runForestCrashScenario(t *testing.T, crashes []shardCrash, bcnt int) (*Forest, vtime.Ticks) {
	cfg := crashForestCfg()
	fr, logs, pfs := newCrashForest(t, cfg)

	// Phase 1: load every shard and checkpoint (fully durable baseline).
	var at vtime.Ticks
	var err error
	for j := 0; j < phase1PerShard; j++ {
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

	// Phase 2: queue a batch on every shard, then commit the redo records.
	for j := 0; j < phase2PerShard; j++ {
		for s := 0; s < crashShards; s++ {
			k := phase2Key(s, j)
			at, err = fr.Insert(at, kv.Record{Key: k, Value: crashVal(k)})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if at, _, err = wal.ForceGroup(at, logs); err != nil {
		t.Fatal(err)
	}

	// Capture the pre-flush durable state, run the group flush, capture
	// the post-flush state. The flush's commit moves each log's head to
	// its FlushStart, so the records before it are captured here.
	preFiles := make([][]byte, crashShards)
	for i, pf := range pfs {
		preFiles[i] = pf.File().Snapshot()
	}
	fullRecs := make([][]wal.Record, crashShards)
	for i, l := range logs {
		if fullRecs[i], err = l.Records(); err != nil {
			t.Fatal(err)
		}
	}
	preMeta := fr.SnapshotMeta()
	preStats := fr.Stats()
	if at, err = fr.Flush(at); err != nil {
		t.Fatal(err)
	}
	st := fr.Stats()
	if got := st.GroupedShards - preStats.GroupedShards; got != crashShards {
		t.Fatalf("group flush covered %d shards, want %d", got, crashShards)
	}
	if got := st.LogGangSubmits - preStats.LogGangSubmits; got != 2 {
		t.Fatalf("group commit issued %d ganged log forces, want 2 (prepare+commit)", got)
	}
	postFiles := make([][]byte, crashShards)
	pages := make([]int64, crashShards)
	for i, pf := range pfs {
		postFiles[i] = pf.File().Snapshot()
		pages[i] = pf.NumPages()
	}
	postMeta := fr.SnapshotMeta()
	for i, l := range logs {
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		last := fullRecs[i][len(fullRecs[i])-1].LSN
		for _, r := range recs {
			if r.LSN > last {
				fullRecs[i] = append(fullRecs[i], r)
			}
		}
	}

	// Rebuild the post-crash forest on a fresh device from the durable
	// prefix each shard's scenario prescribes.
	dev2 := flashsim.MustDevice(flashsim.P300())
	space2 := ssdio.NewSpace(dev2)
	pfs2 := make([]*pagefile.PageFile, crashShards)
	logs2 := make([]*wal.Log, crashShards)
	meta2 := make([]Meta, crashShards)
	for i := 0; i < crashShards; i++ {
		data, meta := postFiles[i], postMeta[i]
		switch crashes[i] {
		case crashNoEnd:
			// Data writes hit the device, but the flush must be undone to
			// the pre-flush structural state.
			meta = preMeta[i]
		case crashNoEndNoData, crashPreFlush, crashLostTail:
			data, meta = preFiles[i], preMeta[i]
		}
		f, err := space2.Create(fmt.Sprintf("shard%d", i), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		f.Restore(data)
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
		for _, r := range cutRecords(t, fullRecs[i], crashes[i]) {
			logs2[i].Append(r)
		}
		if _, err := logs2[i].Force(0); err != nil {
			t.Fatal(err)
		}
		meta2[i] = meta
	}
	cfg2 := crashForestCfg()
	cfg2.Shard.BCnt = bcnt
	cfg2.Logs = logs2
	fr2, err := NewForest(pfs2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr2.RestoreMeta(meta2); err != nil {
		t.Fatal(err)
	}

	rep, at2, err := fr2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}

	// Per-shard report shape.
	for i, c := range crashes {
		r := rep.Shards[i]
		switch c {
		case crashComplete:
			if r.SkippedEntries != phase2PerShard || r.RedoneEntries != 0 || r.UndoneFlushes != 0 {
				t.Fatalf("shard %d (%v): report %+v", i, c, r)
			}
		case crashNoEnd, crashNoEndNoData:
			if r.UndoneFlushes != 1 || r.RedoneEntries != phase2PerShard || r.UndoPagesApplied == 0 {
				t.Fatalf("shard %d (%v): report %+v", i, c, r)
			}
		case crashPreFlush:
			if r.UndoneFlushes != 0 || r.RedoneEntries != phase2PerShard {
				t.Fatalf("shard %d (%v): report %+v", i, c, r)
			}
		case crashLostTail:
			if r.UndoneFlushes != 0 || r.RedoneEntries != 0 || r.SkippedEntries != 0 {
				t.Fatalf("shard %d (%v): report %+v", i, c, r)
			}
		}
	}

	return fr2, checkCrashPrefix(t, fr2, at2, crashes)
}

// checkCrashPrefix asserts that the recovered forest holds exactly the
// durable prefix: every phase-1 key, the phase-2 keys of every shard
// except lostTail ones.
func checkCrashPrefix(t *testing.T, fr2 *Forest, at2 vtime.Ticks, crashes []shardCrash) vtime.Ticks {
	t.Helper()
	expected := int64(0)
	for s := 0; s < crashShards; s++ {
		for j := 0; j < phase1PerShard; j++ {
			k := phase1Key(s, j)
			v, ok, d, err := fr2.Search(at2, k)
			if err != nil || !ok || v != crashVal(k) {
				t.Fatalf("shard %d phase-1 key %d: %v %v %v", s, k, v, ok, err)
			}
			at2 = d
			expected++
		}
		for j := 0; j < phase2PerShard; j++ {
			k := phase2Key(s, j)
			v, ok, d, err := fr2.Search(at2, k)
			if err != nil {
				t.Fatal(err)
			}
			at2 = d
			if crashes[s] == crashLostTail {
				if ok {
					t.Fatalf("shard %d uncommitted key %d survived the crash", s, k)
				}
			} else {
				if !ok || v != crashVal(k) {
					t.Fatalf("shard %d phase-2 key %d lost: %v %v", s, k, v, ok)
				}
				expected++
			}
		}
	}
	if got := fr2.Count(); got != expected {
		t.Fatalf("recovered count %d, want %d", got, expected)
	}
	if err := fr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return at2
}

// TestForestGroupCommitFewerSubmissions: at 4 shards the ganged log force
// must issue strictly fewer blocking log submissions than the per-shard
// baseline for the same workload.
func TestForestGroupCommitFewerSubmissions(t *testing.T) {
	run := func(disableGang bool) ForestStats {
		cfg := crashForestCfg()
		cfg.DisableLogGang = disableGang
		fr, _, _ := newCrashForest(t, cfg)
		var at vtime.Ticks
		var err error
		for j := 0; j < 200; j++ {
			for s := 0; s < crashShards; s++ {
				k := phase1Key(s, j)
				at, err = fr.Insert(at, kv.Record{Key: k, Value: crashVal(k)})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err = fr.Flush(at); err != nil {
			t.Fatal(err)
		}
		return fr.Stats()
	}
	ganged := run(false)
	baseline := run(true)
	if ganged.LogGangSubmits == 0 {
		t.Fatal("ganged mode issued no ganged log forces")
	}
	if baseline.LogGangSubmits != 0 {
		t.Fatalf("baseline issued %d ganged forces, want 0", baseline.LogGangSubmits)
	}
	if ganged.LogSubmits >= baseline.LogSubmits {
		t.Fatalf("ganged log submissions %d not fewer than per-shard baseline %d",
			ganged.LogSubmits, baseline.LogSubmits)
	}
}

// TestForestWALHammerRace drives a WAL-attached forest from many real
// goroutines (group commits racing across shards), then crashes and
// recovers it. Run under -race in CI.
func TestForestWALHammerRace(t *testing.T) {
	cfg := crashForestCfg()
	fr, _, _ := newCrashForest(t, cfg)
	const workers = 8
	const opsPerWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var at vtime.Ticks
			var err error
			shard := w % crashShards
			for i := 0; i < opsPerWorker; i++ {
				k := kv.Key(shard)*crashStride + kv.Key(w*opsPerWorker+i)
				switch i % 3 {
				case 0, 1:
					at, err = fr.Insert(at, kv.Record{Key: k, Value: crashVal(k)})
				default:
					_, _, at, err = fr.Search(at, k)
				}
				if err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Commit everything in flight, crash, recover in place.
	at, err := fr.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	pre := fr.Count()
	fr.Crash()
	rep, _, err := fr.Recover(at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.RedoneEntries != 0 || rep.Total.UndoneFlushes != 0 {
		t.Fatalf("post-checkpoint recovery did work: %+v", rep.Total)
	}
	if got := fr.Count(); got != pre {
		t.Fatalf("count %d after recovery, want %d", got, pre)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
