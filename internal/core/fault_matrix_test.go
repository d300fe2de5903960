package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faultio"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// The fault-matrix suite drives every I/O injection point — shard data
// psync/gang writes, WAL forces (serial, ganged, migration commits) and
// WAL replay reads — through the fault classes {transient-retried,
// transient-exhausted, permanent, partial-gang} and checks the
// containment contract: committed keys are never lost, degraded reads
// stay correct, writes to quarantined shards are rejected with
// ErrShardQuarantined, and Heal restores full service once the fault
// clears.

const (
	fmShards    = 2
	fmStride    = kv.Key(1000)
	fmPerShard  = 100
	fmChunkSize = 16
)

func fmVal(k kv.Key) kv.Value { return kv.Value(k*7 + 3) }

// newFaultForest builds a two-shard, range-partitioned, WAL-attached
// forest on one simulated device whose file names (shard0/shard1,
// wal0/wal1) the fault programs target.
func newFaultForest(t *testing.T, retry RetryPolicy) (*Forest, *ssdio.Space) {
	t.Helper()
	return newFaultForestCfg(t, retry, HealPolicy{}, EvacuationPolicy{})
}

// newFaultForestCfg is newFaultForest with explicit self-healing
// policies (the zero values mean "enabled with defaults"; the healing
// suite shortens the evacuation deadline so tests stay fast).
func newFaultForestCfg(t *testing.T, retry RetryPolicy, heal HealPolicy, evac EvacuationPolicy) (*Forest, *ssdio.Space) {
	t.Helper()
	fr, space, _, _ := newFaultForestFull(t, retry, heal, evac, fmShards)
	return fr, space
}

// newFaultForestFull also returns the page files and logs so crash
// tests can snapshot durable images and cut WAL records. opqPages sets
// the global OPQ budget (fmShards = one page per shard; crash-image
// tests raise it so no flush interleaves with the records they cut).
func newFaultForestFull(t *testing.T, retry RetryPolicy, heal HealPolicy, evac EvacuationPolicy, opqPages int) (*Forest, *ssdio.Space, []*pagefile.PageFile, []*wal.Log) {
	t.Helper()
	return newFaultForestOf(t, fmShards, opqPages, func(c *ForestConfig) {
		c.Shard.Retry, c.Heal, c.Evacuation = retry, heal, evac
	})
}

// newFaultForestOf builds the fault-matrix forest with n shards, shard i
// covering [i*fmStride, (i+1)*fmStride) (the last one open above), and
// lets mod adjust the configuration before the forest is built — for
// instance dropping the logs, which are created either way.
func newFaultForestOf(t *testing.T, n, opqPages int, mod func(*ForestConfig)) (*Forest, *ssdio.Space, []*pagefile.PageFile, []*wal.Log) {
	t.Helper()
	dev := flashsim.MustDevice(flashsim.P300())
	space := ssdio.NewSpace(dev)
	cfg := smallCfg()
	cfg.OPQPages = opqPages
	cfg.BufferBytes = 32 * 1024
	pfs := make([]*pagefile.PageFile, n)
	logs := make([]*wal.Log, n)
	bounds := make([]kv.Key, n-1)
	for i := range pfs {
		df, err := space.Create(fmt.Sprintf("shard%d", i), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		pfs[i], err = pagefile.New(df, cfg.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := space.Create(fmt.Sprintf("wal%d", i), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		logs[i], err = wal.NewLog(wf, cfg.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			bounds[i-1] = kv.Key(i) * fmStride
		}
	}
	fcfg := ForestConfig{
		Partitioner:    RangePartitioner{Bounds: bounds},
		RipeFraction:   0.05,
		Shard:          cfg,
		Logs:           logs,
		MigrationChunk: fmChunkSize,
	}
	mod(&fcfg)
	fr, err := NewForest(pfs, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return fr, space, pfs, logs
}

// fmBaseline loads fmPerShard keys per shard and checkpoints: everything
// inserted here is committed (fully durable) before any fault program is
// installed.
func fmBaseline(t *testing.T, fr *Forest) vtime.Ticks {
	t.Helper()
	var at vtime.Ticks
	var err error
	for j := 0; j < fmPerShard; j++ {
		for s := 0; s < fr.ShardCount(); s++ {
			k := kv.Key(s)*fmStride + kv.Key(j)
			at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)})
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

// fmInstall compiles and installs a fault program on the forest's device.
func fmInstall(t *testing.T, space *ssdio.Space, program string) *faultio.Plane {
	t.Helper()
	prog, err := faultio.Parse(program)
	if err != nil {
		t.Fatal(err)
	}
	prog.Seed = 1
	pl := faultio.New(prog)
	space.SetInjector(pl)
	return pl
}

// fmCheckKeys asserts every key in keys resolves to fmVal(key).
func fmCheckKeys(t *testing.T, fr *Forest, at vtime.Ticks, keys []kv.Key) vtime.Ticks {
	t.Helper()
	for _, k := range keys {
		v, ok, done, err := fr.Search(at, k)
		if err != nil {
			t.Fatalf("Search(%d): %v", k, err)
		}
		if !ok || v != fmVal(k) {
			t.Fatalf("Search(%d) = (%d, %v), want (%d, true)", k, v, ok, fmVal(k))
		}
		at = done
	}
	return at
}

func fmShardKeys(s int) []kv.Key {
	keys := make([]kv.Key, fmPerShard)
	for j := range keys {
		keys[j] = kv.Key(s)*fmStride + kv.Key(j)
	}
	return keys
}

// fmTriggerFlush fills shard1 to ripeness and then shard0 until a group
// flush runs (extra keys start above the baseline block). It returns the
// keys whose Insert was ACCEPTED (nil error) and the first write error.
func fmTriggerFlush(t *testing.T, fr *Forest, at vtime.Ticks) (accepted []kv.Key, werr error, done vtime.Ticks) {
	t.Helper()
	base := fr.Stats().GroupFlushes
	for j := 0; j < 10; j++ {
		k := fmStride + 500 + kv.Key(j)
		var err error
		at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)})
		if err != nil {
			return accepted, err, at
		}
		accepted = append(accepted, k)
	}
	for j := 0; j < 500; j++ {
		k := 500 + kv.Key(j)
		var err error
		at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)})
		if err != nil {
			return accepted, err, at
		}
		accepted = append(accepted, k)
		if fr.Stats().GroupFlushes > base {
			return accepted, nil, at
		}
	}
	t.Fatal("no group flush triggered after 500 inserts")
	return nil, nil, at
}

// TestFaultMatrixTransientRetried covers the transient column: a fault
// window shorter than the first backoff at each injection point — data
// gang writes, ganged WAL forces, and a migration's serial WAL force —
// is absorbed by the retry loop with no quarantine and no lost update.
func TestFaultMatrixTransientRetried(t *testing.T) {
	// Backoff far above the fault window so the first retry of a faulted
	// submission is guaranteed to land outside it.
	retry := RetryPolicy{MaxRetries: 4, BaseBackoff: 20 * vtime.Millisecond, MaxBackoff: 80 * vtime.Millisecond}
	cases := []struct {
		name string
		rule string // window bound appended at install time
		run  func(t *testing.T, fr *Forest, at vtime.Ticks) vtime.Ticks
	}{
		{"data-gang", "transient call=gang file=shard*", func(t *testing.T, fr *Forest, at vtime.Ticks) vtime.Ticks {
			accepted, err, done := fmTriggerFlush(t, fr, at)
			if err != nil {
				t.Fatalf("flush under windowed fault: %v", err)
			}
			return fmCheckKeys(t, fr, done, accepted)
		}},
		{"wal-gang", "transient call=gang file=wal*", func(t *testing.T, fr *Forest, at vtime.Ticks) vtime.Ticks {
			accepted, err, done := fmTriggerFlush(t, fr, at)
			if err != nil {
				t.Fatalf("flush under windowed fault: %v", err)
			}
			return fmCheckKeys(t, fr, done, accepted)
		}},
		{"migration-force", "transient call=sync file=wal*", func(t *testing.T, fr *Forest, at vtime.Ticks) vtime.Ticks {
			m, done, err := fr.StartMigration(at, 0, 200, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			done, err = m.Drain(done)
			if err != nil {
				t.Fatalf("migration under windowed fault: %v", err)
			}
			return fmCheckKeys(t, fr, done, fmShardKeys(0))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr, space := newFaultForest(t, retry)
			at := fmBaseline(t, fr)
			window := at + 10*vtime.Millisecond
			fmInstall(t, space, fmt.Sprintf("%s until=%dns", tc.rule, window))
			at = tc.run(t, fr, at)
			st := fr.Stats()
			if st.IORetries == 0 {
				t.Fatal("fault window never hit: IORetries = 0")
			}
			if st.IORetriesExhausted != 0 {
				t.Fatalf("retries exhausted %d times under a sub-backoff window", st.IORetriesExhausted)
			}
			if q := fr.Quarantined(); len(q) != 0 {
				t.Fatalf("quarantined shards %v after a retried transient", q)
			}
			space.SetInjector(nil)
			if err := fr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultMatrixExhaustedQuarantine covers the exhausted column: an
// unbounded transient fault on shard0's data gang writes survives every
// retry, so the group flush quarantines shard0 while shard1 commits.
// Degraded reads serve both the committed baseline and the accepted
// (phase-1-durable) updates; writes are rejected; Heal restores service.
func TestFaultMatrixExhaustedQuarantine(t *testing.T) {
	fr, space := newFaultForest(t, RetryPolicy{})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "transient call=gang file=shard0")

	accepted, werr, at := fmTriggerFlush(t, fr, at)
	if !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("flush error = %v, want ErrShardQuarantined", werr)
	}
	st := fr.Stats()
	if st.IORetriesExhausted == 0 {
		t.Fatal("no exhausted retry recorded")
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}
	if st.QuarantinedShards != 1 || !st.ShardLoads[0].Quarantined {
		t.Fatalf("stats disagree: QuarantinedShards=%d loads=%+v", st.QuarantinedShards, st.ShardLoads)
	}

	// Degraded reads: the baseline AND every accepted pre-fault update are
	// readable — the accepted updates' redo records became durable in the
	// group commit's phase-1 force (wal0 is healthy), so the quarantine
	// rollback replayed them.
	at = fmCheckKeys(t, fr, at, fmShardKeys(0))
	at = fmCheckKeys(t, fr, at, fmShardKeys(1))
	at = fmCheckKeys(t, fr, at, accepted)
	recs, done, err := fr.RangeSearch(at, 0, fmStride)
	if err != nil {
		t.Fatal(err)
	}
	at = done
	shard0Accepted := 0
	for _, k := range accepted {
		if k < fmStride {
			shard0Accepted++
		}
	}
	if len(recs) != fmPerShard+shard0Accepted {
		t.Fatalf("degraded RangeSearch found %d records, want %d", len(recs), fmPerShard+shard0Accepted)
	}

	// Writes: shard0 rejected, shard1 still fully served.
	if _, err := fr.Insert(at, kv.Record{Key: 900, Value: 1}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("quarantined insert error = %v, want ErrShardQuarantined", err)
	}
	at, err = fr.Insert(at, kv.Record{Key: fmStride + 900, Value: fmVal(fmStride + 900)})
	if err != nil {
		t.Fatalf("healthy-shard insert: %v", err)
	}

	// Heal after the fault clears: full service, nothing lost.
	space.SetInjector(nil)
	at, err = fr.Heal(at, 0)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after Heal", q)
	}
	at, err = fr.Insert(at, kv.Record{Key: 901, Value: fmVal(901)})
	if err != nil {
		t.Fatalf("post-Heal insert: %v", err)
	}
	at, err = fr.Checkpoint(at)
	if err != nil {
		t.Fatalf("post-Heal checkpoint: %v", err)
	}
	at = fmCheckKeys(t, fr, at, fmShardKeys(0))
	at = fmCheckKeys(t, fr, at, accepted)
	_ = fmCheckKeys(t, fr, at, []kv.Key{901})
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMatrixPartialGang covers the partial-gang column: the gang's
// healthy member batches land and commit while the faulted member's
// batch is dropped and its shard quarantined — one device submission,
// two outcomes.
func TestFaultMatrixPartialGang(t *testing.T) {
	fr, space := newFaultForest(t, RetryPolicy{})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "transient call=gang file=shard1")

	// Trigger with shard1 ripe so both shards share the data gang; the
	// trigger inserts route to shard0, whose batch lands.
	accepted, werr, at := fmTriggerFlush(t, fr, at)
	if werr != nil {
		// The flush was triggered by a shard0 insert; shard0 committed, so
		// the write that triggered the flush is not rejected.
		t.Fatalf("trigger insert error = %v", werr)
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", q)
	}
	// shard0's side of the gang committed: its accepted keys are readable
	// and writable; shard1 is read-only on its replayed state.
	at = fmCheckKeys(t, fr, at, accepted)
	at = fmCheckKeys(t, fr, at, fmShardKeys(1))
	if _, err := fr.Insert(at, kv.Record{Key: fmStride + 901, Value: 1}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("quarantined insert error = %v, want ErrShardQuarantined", err)
	}
	var err error
	at, err = fr.Insert(at, kv.Record{Key: 902, Value: fmVal(902)})
	if err != nil {
		t.Fatalf("healthy-shard insert: %v", err)
	}

	space.SetInjector(nil)
	at, err = fr.Heal(at, 1)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	at, err = fr.Checkpoint(at)
	if err != nil {
		t.Fatal(err)
	}
	_ = fmCheckKeys(t, fr, at, append(fmShardKeys(1), 902))
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMatrixPermanentWAL covers the permanent column at the log
// plane: wal0 dies permanently, failing the group commit's phase-1
// force. ForceGroup commits the members whose writes landed, so the
// failure is attributed to shard0 alone — shard1's flush carries on and
// commits. shard0's rollback replay cannot read its dead log, so it
// goes offline — and Heal keeps failing until the file
// is revived.
func TestFaultMatrixPermanentWAL(t *testing.T) {
	fr, space := newFaultForest(t, RetryPolicy{})
	at := fmBaseline(t, fr)
	// The rule's window covers only the faulting flush; the file then
	// STAYS dead via the plane's dead-file mark until Revive — so Revive
	// alone (not rule expiry) is what lets the later Heal succeed.
	window := at + 5*vtime.Millisecond
	plane := fmInstall(t, space, fmt.Sprintf("permanent file=wal0 until=%dns", window))

	_, werr, at := fmTriggerFlush(t, fr, at)
	if !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("flush error = %v, want ErrShardQuarantined", werr)
	}
	// The phase-1 gang force committed wal1's write, so the failure is
	// attributed to shard0 alone: shard1's flush went through and it
	// keeps full service. shard0's rollback replay read a dead log —
	// offline, reads rejected too.
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}
	if _, _, _, err := fr.Search(at, 5); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("offline-shard read error = %v, want ErrShardQuarantined", err)
	}
	at = fmCheckKeys(t, fr, at, fmShardKeys(1))
	var werr2 error
	at, werr2 = fr.Insert(at, kv.Record{Key: fmStride + 905, Value: fmVal(fmStride + 905)})
	if werr2 != nil {
		t.Fatalf("healthy-member insert after attributed phase-1 failure: %v", werr2)
	}

	// Heal fails while the log is dead (the tail force cannot land)...
	at = vtime.Max(at, window) // past the rule window: only the dead mark remains
	if _, err := fr.Heal(at, 0); err == nil {
		t.Fatal("Heal succeeded on a dead WAL")
	}
	// ...and succeeds after the simulated drive slice is replaced.
	plane.Revive("wal0")
	at, err := fr.Heal(at, 0)
	if err != nil {
		t.Fatalf("Heal after revive: %v", err)
	}
	at, err = fr.Heal(at, 1)
	if err != nil {
		t.Fatalf("Heal shard1: %v", err)
	}
	space.SetInjector(nil)
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after Heal", q)
	}
	// The accepted pre-fault updates sat in wal0's unforced tail; Heal
	// forced it, so they are recovered rather than lost.
	at = fmCheckKeys(t, fr, at, fmShardKeys(0))
	at = fmCheckKeys(t, fr, at, fmShardKeys(1))
	at, err = fr.Insert(at, kv.Record{Key: 903, Value: fmVal(903)})
	if err != nil {
		t.Fatalf("post-Heal insert: %v", err)
	}
	if _, err = fr.Checkpoint(at); err != nil {
		t.Fatal(err)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMatrixMigrationAbort covers the migration path: retries
// exhaust on the destination's WAL force, aborting the move mid-stream
// (a transient rule keeps the replay reads alive, so both shards serve
// degraded reads; the permanent/offline variant is covered by the crash
// test below). With
// no committed chunk the abort rolls back entirely; with committed
// chunks it publishes the partial rule [lo, frontier). Either way no key
// is lost, and after healing the migration can be re-run to completion.
func TestFaultMatrixMigrationAbort(t *testing.T) {
	for _, committedChunks := range []int{0, 2} {
		t.Run(fmt.Sprintf("chunks=%d", committedChunks), func(t *testing.T) {
			fr, space := newFaultForest(t, RetryPolicy{})
			at := fmBaseline(t, fr)
			m, at, err := fr.StartMigration(at, 0, kv.Key(fmPerShard), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < committedChunks; i++ {
				done, next, serr := m.Step(at)
				if serr != nil || done {
					t.Fatalf("pre-fault step %d: done=%v err=%v", i, done, serr)
				}
				at = next
			}
			fmInstall(t, space, "transient call=sync file=wal1")
			_, at, err = m.Step(at)
			if err == nil {
				t.Fatal("Step succeeded with the destination WAL force failing")
			}
			if q := fr.Quarantined(); len(q) != 2 {
				t.Fatalf("Quarantined() = %v, want both shards", q)
			}
			rules := fr.Routing().Rules()
			wantFrontier := kv.Key(committedChunks * fmChunkSize)
			if committedChunks == 0 {
				if len(rules) != 0 {
					t.Fatalf("rules = %v after full abort", rules)
				}
			} else {
				if len(rules) != 1 || rules[0].Lo != 0 || rules[0].Hi != wantFrontier {
					t.Fatalf("rules = %v, want [{0 %d 0 1}]", rules, wantFrontier)
				}
			}
			// Degraded reads: every key is still served from one of the two
			// quarantined shards — committed chunks from dst, the rest from
			// src.
			at = fmCheckKeys(t, fr, at, fmShardKeys(0))
			at = fmCheckKeys(t, fr, at, fmShardKeys(1))

			space.SetInjector(nil)
			at, err = fr.Heal(at, 0)
			if err != nil {
				t.Fatalf("Heal src: %v", err)
			}
			at, err = fr.Heal(at, 1)
			if err != nil {
				t.Fatalf("Heal dst: %v", err)
			}
			at = fmCheckKeys(t, fr, at, fmShardKeys(0))

			// Re-run the move to completion: the remaining keys stream over.
			m2, at, err := fr.StartMigration(at, 0, kv.Key(fmPerShard), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			at, err = m2.Drain(at)
			if err != nil {
				t.Fatalf("post-Heal migration: %v", err)
			}
			at = fmCheckKeys(t, fr, at, fmShardKeys(0))
			at = fmCheckKeys(t, fr, at, fmShardKeys(1))
			if err := fr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			_ = at
		})
	}
}

// TestFaultMatrixMigrationAbortCrashRecovery proves the dual-outcome
// tail contract: after a partial abort, a crash (which also drops the
// never-forced compensation tails) recovers to the same committed
// prefix — the partial rule rebuilt from the End record's range, every
// key served exactly once.
func TestFaultMatrixMigrationAbortCrashRecovery(t *testing.T) {
	fr, space := newFaultForest(t, RetryPolicy{})
	at := fmBaseline(t, fr)
	m, at, err := fr.StartMigration(at, 0, kv.Key(fmPerShard), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		done, next, serr := m.Step(at)
		if serr != nil || done {
			t.Fatalf("pre-fault step %d: done=%v err=%v", i, done, serr)
		}
		at = next
	}
	fmInstall(t, space, "permanent call=sync file=wal1")
	if _, at, err = m.Step(at); err == nil {
		t.Fatal("Step succeeded with the destination WAL dead")
	}
	space.SetInjector(nil)

	fr.Crash()
	_, at, err = fr.Recover(at)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	rules := fr.Routing().Rules()
	wantFrontier := kv.Key(2 * fmChunkSize)
	if len(rules) != 1 || rules[0].Lo != 0 || rules[0].Hi != wantFrontier {
		t.Fatalf("recovered rules = %v, want [{0 %d 0 1}]", rules, wantFrontier)
	}
	at = fmCheckKeys(t, fr, at, fmShardKeys(0))
	at = fmCheckKeys(t, fr, at, fmShardKeys(1))
	recs, _, err := fr.RangeSearch(at, 0, kv.Key(fmPerShard))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != fmPerShard {
		t.Fatalf("recovered range holds %d keys, want %d (duplicate or lost key)", len(recs), fmPerShard)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMatrixCrashDuringGroupCommit extends the crash-injection
// matrix with injected-EIO-during-group-commit cases: a transient fault
// hits the flush's data gang, and the machine crashes either BEFORE any
// retry succeeds (retry budget exhausted, shard quarantined, data gang
// never landed — durable state is phase-1 WAL only) or AFTER the retry
// absorbed the fault (the flush committed, a group Sync then marks the
// commit point). Both sides must recover every committed key: in the
// before case the flush's phase-1 ganged force already made every
// buffered redo durable, so even the updates accepted moments before
// the outage survive the crash.
func TestFaultMatrixCrashDuringGroupCommit(t *testing.T) {
	t.Run("before-retry-succeeds", func(t *testing.T) {
		fr, space := newFaultForest(t, RetryPolicy{})
		at := fmBaseline(t, fr)
		fmInstall(t, space, "transient call=gang file=shard0")
		accepted, werr, at := fmTriggerFlush(t, fr, at)
		if !errors.Is(werr, ErrShardQuarantined) {
			t.Fatalf("flush error = %v, want ErrShardQuarantined", werr)
		}
		if st := fr.Stats(); st.IORetriesExhausted == 0 {
			t.Fatal("retry budget never exhausted before the crash")
		}
		// The crash lands mid-outage; the device is healthy at restart.
		space.SetInjector(nil)
		fr.Crash()
		if _, recDone, err := fr.Recover(at); err != nil {
			t.Fatalf("Recover: %v", err)
		} else {
			at = recDone
		}
		if q := fr.Quarantined(); len(q) != 0 {
			t.Fatalf("recovery left shards %v quarantined", q)
		}
		at = fmCheckKeys(t, fr, at, fmShardKeys(0))
		at = fmCheckKeys(t, fr, at, fmShardKeys(1))
		at = fmCheckKeys(t, fr, at, accepted)
		// Write service is back without an explicit Heal: replay IS the
		// rollback.
		k := kv.Key(900)
		if _, err := fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
			t.Fatalf("post-recovery insert: %v", err)
		}
		if err := fr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("after-retry-succeeds", func(t *testing.T) {
		retry := RetryPolicy{MaxRetries: 4, BaseBackoff: 20 * vtime.Millisecond, MaxBackoff: 80 * vtime.Millisecond}
		fr, space := newFaultForest(t, retry)
		at := fmBaseline(t, fr)
		// Fault window shorter than the first backoff: the flush's first
		// gang submission fails, its retry lands beyond the window.
		window := at + 10*vtime.Millisecond
		fmInstall(t, space, fmt.Sprintf("transient call=gang file=shard* until=%dns", window))
		accepted, werr, at := fmTriggerFlush(t, fr, at)
		if werr != nil {
			t.Fatalf("flush under windowed fault: %v", werr)
		}
		st := fr.Stats()
		if st.IORetries == 0 {
			t.Fatal("fault window never hit: IORetries = 0")
		}
		if st.IORetriesExhausted != 0 || len(fr.Quarantined()) != 0 {
			t.Fatalf("retry did not absorb the fault: %+v", st)
		}
		// Commit point: force the buffered redos, then crash.
		at, werr = fr.Sync(at)
		if werr != nil {
			t.Fatalf("Sync: %v", werr)
		}
		fr.Crash()
		if _, recDone, err := fr.Recover(at); err != nil {
			t.Fatalf("Recover: %v", err)
		} else {
			at = recDone
		}
		at = fmCheckKeys(t, fr, at, fmShardKeys(0))
		at = fmCheckKeys(t, fr, at, fmShardKeys(1))
		fmCheckKeys(t, fr, at, accepted)
		if err := fr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFaultMatrixDeterministic reruns the exhausted-quarantine scenario
// and requires identical completion times, stats and degraded contents:
// fault decisions are pure functions of (seed, file, call, vtime, shape),
// never of goroutine schedule or map order.
func TestFaultMatrixDeterministic(t *testing.T) {
	run := func() (vtime.Ticks, ForestStats, []kv.Record) {
		fr, space := newFaultForest(t, RetryPolicy{})
		at := fmBaseline(t, fr)
		fmInstall(t, space, "transient call=gang file=shard0")
		_, _, at = fmTriggerFlush(t, fr, at)
		recs, at, err := fr.RangeSearch(at, 0, 2*fmStride)
		if err != nil {
			t.Fatal(err)
		}
		st := fr.Stats()
		st.ShardLoads = nil // slice identity; contents compared via recs
		return at, st, recs
	}
	at1, st1, recs1 := run()
	at2, st2, recs2 := run()
	if at1 != at2 {
		t.Fatalf("completion times diverge: %d vs %d", at1, at2)
	}
	if fmt.Sprintf("%+v", st1) != fmt.Sprintf("%+v", st2) {
		t.Fatalf("stats diverge:\n%+v\n%+v", st1, st2)
	}
	if len(recs1) != len(recs2) {
		t.Fatalf("degraded contents diverge: %d vs %d records", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if recs1[i] != recs2[i] {
			t.Fatalf("degraded record %d diverges: %+v vs %+v", i, recs1[i], recs2[i])
		}
	}
}
