package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// The containment suite drives failures whose errors carry no TransientIO
// marker — a plain error from the device, as a real backend or a bug
// would return — and forests without a WAL through every path that
// attributes a failure: a group flush's flush, prepare, data and commit
// stages, a solo flush, the quarantine rollback, and a migration's chunk,
// abort purge and commit. Each failure costs only the shards it names;
// the rest of the forest keeps full service, and the named shards come
// back through Heal.

var errPlain = errors.New("core test: plain device fault")

// permanentIO is an I/O-plane fault that no retry can fix: it carries the
// TransientIO marker, set false.
type permanentIO struct{}

func (permanentIO) Error() string     { return "core test: permanent I/O fault" }
func (permanentIO) TransientIO() bool { return false }

// plainFault is an ssdio.Injector failing every write to the files in
// writes and every read of the files in reads with errPlain.
type plainFault struct{ writes, reads []string }

func (p plainFault) Decide(file, _ string, _ vtime.Ticks, reqs []ssdio.Req) ssdio.FaultDecision {
	files := p.writes
	if reqs[0].Op == flashsim.Read {
		files = p.reads
	}
	if slices.Contains(files, file) {
		return ssdio.FaultDecision{Err: errPlain}
	}
	return ssdio.FaultDecision{}
}

// newContainForest is the fault-matrix forest with three shards, one OPQ
// page each; mod adjusts its configuration.
func newContainForest(t *testing.T, mod func(*ForestConfig)) (*Forest, *ssdio.Space) {
	t.Helper()
	fr, space, _, _ := newFaultForestOf(t, 3, 3, mod)
	return fr, space
}

func noWAL(c *ForestConfig) { c.Logs = nil }

// checkServes asserts that shard si serves its committed keys and takes a
// fresh write.
func checkServes(t *testing.T, fr *Forest, at vtime.Ticks, si int) vtime.Ticks {
	t.Helper()
	at = fmCheckKeys(t, fr, at, fmShardKeys(si))
	k := kv.Key(si)*fmStride + 700
	at, err := fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)})
	if err != nil {
		t.Fatalf("shard %d insert: %v", si, err)
	}
	return fmCheckKeys(t, fr, at, []kv.Key{k})
}

// checkOut asserts that exactly the shards in want are out of write
// service.
func checkOut(t *testing.T, fr *Forest, at vtime.Ticks, want ...int) {
	t.Helper()
	if q := fr.Quarantined(); !slices.Equal(q, want) {
		t.Fatalf("Quarantined() = %v, want %v", q, want)
	}
	for _, si := range want {
		k := kv.Key(si)*fmStride + 800
		if _, err := fr.Insert(at, kv.Record{Key: k, Value: 1}); !errors.Is(err, ErrShardQuarantined) {
			t.Fatalf("insert into shard %d: %v, want ErrShardQuarantined", si, err)
		}
	}
}

// checkOffline asserts that shard si rejects reads too.
func checkOffline(t *testing.T, fr *Forest, at vtime.Ticks, si int) {
	t.Helper()
	if _, _, _, err := fr.Search(at, kv.Key(si)*fmStride); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("read of offline shard %d: %v, want ErrShardQuarantined", si, err)
	}
}

// healAll heals the given shards and checks their committed keys.
func healAll(t *testing.T, fr *Forest, at vtime.Ticks, keys []kv.Key, shards ...int) vtime.Ticks {
	t.Helper()
	var err error
	for _, si := range shards {
		if at, err = fr.Heal(at, si); err != nil {
			t.Fatalf("Heal(%d): %v", si, err)
		}
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after Heal", q)
	}
	at = fmCheckKeys(t, fr, at, keys)
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return at
}

// TestAttribute drives attribute over ganged and serial log forces and a
// data gang: the members it blames, and that a serial force attempts
// every log whatever the error.
func TestAttribute(t *testing.T) {
	cases := []struct {
		name   string
		serial bool
		fault  ssdio.Injector
		err    error   // when set, attribute's error; the force lands
		lost   []error // a data gang's lost batches
		want   []bool
	}{
		{name: "no error", want: []bool{false, false, false}},
		{name: "no error, serial", serial: true, want: []bool{false, false, false}},
		{name: "one log left unforced", serial: true, fault: plainFault{writes: []string{"wal1"}},
			want: []bool{false, true, false}},
		{name: "partial gang", fault: plainFault{writes: []string{"wal1", "wal2"}},
			want: []bool{false, true, true}},
		{name: "gang batch did not land", err: errPlain, lost: []error{nil, nil, errPlain},
			want: []bool{false, false, true}},
		{name: "no member unforced", err: errPlain, want: []bool{true, true, true}},
		{name: "serial, first log plain", serial: true, fault: plainFault{writes: []string{"wal0"}},
			want: []bool{true, false, false}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fr, space := newContainForest(t, func(fc *ForestConfig) { fc.DisableLogGang = c.serial })
			logs := make([]*wal.Log, len(fr.shards))
			for i, s := range fr.shards {
				logs[i] = s.tree.log
				logs[i].Append(wal.Record{Kind: wal.KindHealProbe, Relation: s.tree.cfg.Relation})
			}
			space.SetInjector(c.fault)
			_, err := fr.forceLogs(0, logs)
			if c.err != nil {
				if err != nil {
					t.Fatalf("force: %v", err)
				}
				err = c.err
			}
			got := attribute(err, fr.shards, c.lost)
			for i, e := range got {
				if e != nil && e != err {
					t.Errorf("member %d blamed with %v, want %v", i, e, err)
				}
			}
			for i, w := range c.want {
				if blamed := got != nil && got[i] != nil; blamed != w {
					t.Errorf("member %d blamed = %v, want %v (err %v)", i, blamed, w, err)
				}
				if c.err == nil && logs[i].Unforced() != w {
					t.Errorf("log %d unforced = %v, want %v: every log is attempted", i, logs[i].Unforced(), w)
				}
			}
		})
	}
}

// TestContainNoWALGroupMember: in a forest without WALs, a group flush
// member whose data-gang batch fails cannot roll back, so it goes offline;
// its gang-mate commits and the rest of the forest keeps serving.
func TestContainNoWALGroupMember(t *testing.T) {
	fr, space := newContainForest(t, noWAL)
	at := fmBaseline(t, fr)
	space.SetInjector(plainFault{writes: []string{"shard0"}})
	_, _, at = fmTriggerFlush(t, fr, at)
	at = checkServes(t, fr, at, 2)
	at = checkServes(t, fr, at, 1)
	checkOut(t, fr, at, 0)
	checkOffline(t, fr, at, 0)
	// Without a WAL there is nothing to replay: the shard stays offline.
	space.SetInjector(nil)
	if _, err := fr.Heal(at, 0); err == nil {
		t.Fatal("Heal of a shard without a WAL succeeded")
	}
	checkOut(t, fr, at, 0)
}

// TestContainNoWALSoloFlush: a solo flush whose data file fails takes its
// shard out of service like a group member's — the batch it took from the
// queue is gone, so the shard must reject writes and reads.
func TestContainNoWALSoloFlush(t *testing.T) {
	fr, space := newContainForest(t, noWAL)
	at := fmBaseline(t, fr)
	before := fr.Stats()
	space.SetInjector(plainFault{writes: []string{"shard0"}})
	var err error
	for j := 0; err == nil; j++ {
		if j == 500 {
			t.Fatal("shard 0 never flushed")
		}
		k := 500 + kv.Key(j)
		at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)})
	}
	if !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("insert through the failed flush: %v, want ErrShardQuarantined", err)
	}
	if st := fr.Stats(); st.GroupFlushes != before.GroupFlushes+1 || st.GroupedShards != before.GroupedShards+1 {
		t.Fatalf("want solo flushes only: %+v", st)
	}
	checkOut(t, fr, at, 0)
	checkOffline(t, fr, at, 0)
	at = checkServes(t, fr, at, 1)
	checkServes(t, fr, at, 2)
}

// TestContainRollbackReplayFailure: a group member whose data batch fails
// is rolled back, and the rollback's log read fails with a plain error, so
// memory and disk may disagree: the member goes offline, and a Heal after
// the fault clears restores it with every accepted key.
func TestContainRollbackReplayFailure(t *testing.T) {
	fr, space := newContainForest(t, func(*ForestConfig) {})
	at := fmBaseline(t, fr)
	space.SetInjector(plainFault{writes: []string{"shard0"}, reads: []string{"wal0"}})
	accepted, _, at := fmTriggerFlush(t, fr, at)
	at = checkServes(t, fr, at, 2)
	at = checkServes(t, fr, at, 1)
	checkOut(t, fr, at, 0)
	checkOffline(t, fr, at, 0)
	space.SetInjector(nil)
	healAll(t, fr, at, append(fmShardKeys(0), accepted...), 0)
}

// TestContainGroupFlushFailure: a group member's flush fails on a plain
// read error before the group commits. Only that member leaves service;
// the flush records its log carries are still forced, so a Heal brings
// back every accepted key.
func TestContainGroupFlushFailure(t *testing.T) {
	fr, space := newContainForest(t, func(*ForestConfig) {})
	at := fmBaseline(t, fr)
	space.SetInjector(plainFault{reads: []string{"shard0"}})
	accepted, werr, at := fmTriggerFlush(t, fr, at)
	at = checkServes(t, fr, at, 2)
	at = checkServes(t, fr, at, 1)
	if !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger insert: %v, want ErrShardQuarantined", werr)
	}
	checkOut(t, fr, at, 0)
	space.SetInjector(nil)
	healAll(t, fr, at, append(fmShardKeys(0), accepted...), 0)
}

// startMove starts migrating shard 0's keys onto shard 1.
func startMove(t *testing.T, fr *Forest, at vtime.Ticks) (*Migration, vtime.Ticks) {
	t.Helper()
	m, at, err := fr.StartMigration(at, 0, fmPerShard, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, at
}

// checkPollAndRerun asserts the next AutoRebalance poll is clean, heals
// the pair, and re-runs the move to completion: nothing lost, nothing
// served twice.
func checkPollAndRerun(t *testing.T, fr *Forest, at vtime.Ticks, space *ssdio.Space) {
	t.Helper()
	if _, _, _, d, err := fr.AutoRebalance(at, fmDrivePolicy()); err != nil {
		t.Fatalf("AutoRebalance after the contained failure: %v", err)
	} else {
		at = d
	}
	space.SetInjector(nil)
	at = healAll(t, fr, at, append(fmShardKeys(0), fmShardKeys(1)...), 0, 1)
	m, at := startMove(t, fr, at)
	at, err := m.Drain(at)
	if err != nil {
		t.Fatalf("re-run migration: %v", err)
	}
	at = fmCheckKeys(t, fr, at, append(fmShardKeys(0), fmShardKeys(1)...))
	recs, _, err := fr.RangeSearch(at, 0, fmPerShard)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != fmPerShard {
		t.Fatalf("moved range holds %d keys, want %d", len(recs), fmPerShard)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestContainMigrationChunkFailure: a chunk whose destination log force
// fails with a plain error aborts the migration with the pair
// quarantined, and the rest of the forest keeps serving.
func TestContainMigrationChunkFailure(t *testing.T) {
	fr, space := newContainForest(t, func(*ForestConfig) {})
	at := fmBaseline(t, fr)
	m, at := startMove(t, fr, at)
	space.SetInjector(plainFault{writes: []string{"wal1"}})
	_, at, err := m.Step(at)
	at = checkServes(t, fr, at, 2)
	if !errors.Is(err, ErrShardQuarantined) || !errors.Is(err, errPlain) {
		t.Fatalf("Step: %v, want a contained abort", err)
	}
	checkOut(t, fr, at, 0, 1)
	checkPollAndRerun(t, fr, at, space)
}

// purgeFault fails the source log's writes with a permanent I/O fault and,
// once that has struck, the destination log's writes with a plain error:
// the chunk aborts on the first, and the abort's purge on the second.
type purgeFault struct{ struck atomic.Bool }

func (p *purgeFault) Decide(file, _ string, _ vtime.Ticks, reqs []ssdio.Req) ssdio.FaultDecision {
	switch {
	case reqs[0].Op != flashsim.Write:
	case file == "wal0":
		p.struck.Store(true)
		return ssdio.FaultDecision{Err: permanentIO{}}
	case file == "wal1" && p.struck.Load():
		return ssdio.FaultDecision{Err: errPlain}
	}
	return ssdio.FaultDecision{}
}

// TestContainAbortPurgeFailure: an abort whose purge of the destination's
// copies fails leaves stale copies in its memory, so the destination goes
// offline and the rest of the purge waits in its log tail; a Heal applies
// it, and no key is served twice.
func TestContainAbortPurgeFailure(t *testing.T) {
	fr, space := newContainForest(t, func(*ForestConfig) {})
	at := fmBaseline(t, fr)
	// Fill the destination's queue so that the purge has to flush it.
	var err error
	for j := 0; j < 40; j++ {
		k := fmStride + 200 + kv.Key(j)
		if at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = fr.Sync(at); err != nil {
		t.Fatal(err)
	}
	m, at := startMove(t, fr, at)
	space.SetInjector(&purgeFault{})
	_, at, err = m.Step(at)
	at = checkServes(t, fr, at, 2)
	if !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("Step: %v, want a contained abort", err)
	}
	checkOut(t, fr, at, 0, 1)
	checkOffline(t, fr, at, 1)
	checkPollAndRerun(t, fr, at, space)
}

// TestContainMigrationCommitFailure: under serial log forces the End
// record's force on the destination fails with a plain error after every
// chunk committed. The move still commits, the destination is quarantined
// until a Heal forces its End, and the rest of the forest keeps serving.
func TestContainMigrationCommitFailure(t *testing.T) {
	fr, space := newContainForest(t, func(c *ForestConfig) { c.DisableLogGang = true })
	at := fmBaseline(t, fr)
	m, at := startMove(t, fr, at)
	for m.idx < len(m.bounds)-1 {
		var err error
		if _, at, err = m.Step(at); err != nil {
			t.Fatal(err)
		}
	}
	space.SetInjector(plainFault{writes: []string{"wal1"}})
	done, at, err := m.Step(at)
	at = checkServes(t, fr, at, 2)
	if err != nil || !done {
		t.Fatalf("commit step = (%v, %v), want a committed move", done, err)
	}
	checkOut(t, fr, at, 1)
	if s := fr.Routing().Shard(0); s != 1 {
		t.Fatalf("moved key routes to shard %d, want 1", s)
	}
	at = fmCheckKeys(t, fr, at, fmShardKeys(0))
	if _, _, _, d, err := fr.AutoRebalance(at, fmDrivePolicy()); err != nil {
		t.Fatalf("AutoRebalance after the contained failure: %v", err)
	} else {
		at = d
	}
	space.SetInjector(nil)
	at = healAll(t, fr, at, append(fmShardKeys(0), fmShardKeys(1)...), 1)
	if n := fr.Count(); n != 3*fmPerShard+1 {
		t.Fatalf("Count() = %d, want %d", n, 3*fmPerShard+1)
	}
	// The End is durable now: a crash recovers the committed move.
	fr.Crash()
	if _, at, err = fr.Recover(at); err != nil {
		t.Fatal(err)
	}
	fmCheckKeys(t, fr, at, append(fmShardKeys(0), fmShardKeys(1)...))
}

// TestContainPlainFaultHammerRace: goroutines insert into and search every
// shard while shard 1's files fail every write with a plain error. The
// other shards never see an error; once the fault clears and Heal runs,
// every acknowledged key reads back. One incident per run: a second
// rollback before a checkpoint would re-apply an undone flush's images.
func TestContainPlainFaultHammerRace(t *testing.T) {
	fr, space := newContainForest(t, func(c *ForestConfig) { c.Shard.Retry = RetryPolicy{Disabled: true} })
	at := fmBaseline(t, fr)
	var (
		stop    atomic.Bool
		horizon atomic.Int64 // the latest writer clock
		ackMu   sync.Mutex
		acked   []kv.Key
		wg      sync.WaitGroup // readers
		writing sync.WaitGroup
	)
	advance := func(now vtime.Ticks) {
		for h := horizon.Load(); int64(now) > h && !horizon.CompareAndSwap(h, int64(now)); h = horizon.Load() {
		}
	}
	// check tolerates ErrShardQuarantined on shard 1 only.
	check := func(who string, k kv.Key, err error) bool {
		if err == nil || k/fmStride == 1 && errors.Is(err, ErrShardQuarantined) {
			return true
		}
		t.Errorf("%s: key %d: %v", who, k, err)
		return false
	}
	defer func() {
		stop.Store(true)
		writing.Wait()
		wg.Wait()
	}()
	const writers, readers, writerOps = 3, 2, 300
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			now := at
			for i := 0; i < writerOps && !stop.Load(); i++ {
				k := kv.Key(i%3)*fmStride + 100 + kv.Key(w*writerOps+i)
				done, err := fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
				if !check("writer", k, err) {
					return
				}
				if err == nil {
					ackMu.Lock()
					acked = append(acked, k)
					ackMu.Unlock()
				}
				now = vtime.Max(now, done)
				advance(now)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			now := at
			for i := r; !stop.Load(); i++ {
				k := kv.Key(i%3)*fmStride + kv.Key(i*7)%fmPerShard
				v, ok, done, err := fr.Search(now, k)
				if !check("reader", k, err) {
					return
				}
				if err == nil && (!ok || v != fmVal(k)) {
					t.Errorf("reader: committed key %d = (%d, %v)", k, v, ok)
					return
				}
				now = vtime.Max(now, done)
			}
		}(r)
	}

	space.SetInjector(plainFault{writes: []string{"shard1", "wal1"}})
	now := at
	for j := 0; ; j++ {
		if j == 300 {
			t.Fatal("shard 1 never left service")
		}
		now = vtime.Max(now, vtime.Ticks(horizon.Load()))
		// Writers use the offsets 1 mod 3 in shard 1's range.
		k := fmStride + 100 + 3*kv.Key(j)
		d, err := fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
		now = vtime.Max(now, d)
		if errors.Is(err, ErrShardQuarantined) {
			break
		}
		if err != nil {
			t.Fatalf("driver Insert(%d): %v", k, err)
		}
		ackMu.Lock()
		acked = append(acked, k)
		ackMu.Unlock()
	}
	space.SetInjector(nil)
	now = vtime.Max(now, vtime.Ticks(horizon.Load()))
	now, err := fr.Heal(now, 1)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	writing.Wait()
	stop.Store(true)
	wg.Wait()

	now = fmCheckKeys(t, fr, vtime.Max(now, vtime.Ticks(horizon.Load())), acked)
	for si := 0; si < 3; si++ {
		now = fmCheckKeys(t, fr, now, fmShardKeys(si))
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
