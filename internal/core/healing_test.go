package core

import (
	"errors"
	"fmt"
	"reflect"
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

// The healing suite drives the self-healing control plane end to end on
// the fault-matrix harness: auto-heal probing re-admits a shard once a
// transient outage clears, auto-evacuation retires a shard whose device
// never comes back, the stuck-I/O watchdog bounds hung submissions, and
// every flow is byte-deterministic and crash-consistent.

// fmDrivePolicy disables the load-based rebalancer so AutoRebalance
// polls exercise only the self-healing paths (probe, heal, evacuate).
func fmDrivePolicy() RebalancePolicy {
	return RebalancePolicy{MinOps: 1 << 40, HotFactor: 100}
}

// fmDriveUntil polls AutoRebalance on a fixed cadence until stop
// reports true, failing the test if it never does.
func fmDriveUntil(t *testing.T, fr *Forest, now vtime.Ticks, step vtime.Ticks, pol RebalancePolicy, stop func() bool) vtime.Ticks {
	t.Helper()
	for i := 0; i < 256; i++ {
		if stop() {
			return now
		}
		now += step
		_, _, _, d, err := fr.AutoRebalance(now, pol)
		if err != nil {
			t.Fatalf("AutoRebalance: %v", err)
		}
		now = vtime.Max(now, d)
	}
	t.Fatalf("condition never reached after 256 polls (now=%v)", now)
	return now
}

// runAutoHealFlow quarantines shard 0 behind a transient WAL outage and
// lets the prober re-admit it: probes inside the fault window reach the
// device (reads are never failed) but the Heal replay's force-tail
// fails, doubling the probe gap; the first probe past the window heals.
// No committed or acknowledged key may be lost.
func runAutoHealFlow(t *testing.T) (ForestStats, int64) {
	t.Helper()
	fr, space := newFaultForest(t, RetryPolicy{Disabled: true})
	at := fmBaseline(t, fr)
	fmInstall(t, space, fmt.Sprintf("transient file=wal0 until=%dns", at+10*vtime.Millisecond))

	accepted, werr, done := fmTriggerFlush(t, fr, at)
	if !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v, want ErrShardQuarantined", werr)
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}

	now := fmDriveUntil(t, fr, done, 250*vtime.Microsecond, fmDrivePolicy(), func() bool {
		return len(fr.Quarantined()) == 0
	})
	st := fr.Stats()
	if st.AutoHeals != 1 {
		t.Fatalf("AutoHeals = %d, want 1", st.AutoHeals)
	}
	if st.HealProbes < 2 {
		t.Fatalf("HealProbes = %d, want >= 2 (failed probes inside the window, then the healing one)", st.HealProbes)
	}
	if st.Evacuations != 0 || st.EvacuatedShards != 0 {
		t.Fatalf("healed shard must not evacuate: %+v", st)
	}

	// Zero lost keys: the heal forced the WAL tail, so even the inserts
	// acknowledged into it right before the quarantine are durable.
	now = fmCheckKeys(t, fr, now, fmShardKeys(0))
	now = fmCheckKeys(t, fr, now, fmShardKeys(1))
	now = fmCheckKeys(t, fr, now, accepted)

	// The healed shard serves writes again.
	k := kv.Key(990)
	now, err := fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
	if err != nil {
		t.Fatalf("post-heal insert: %v", err)
	}
	now = fmCheckKeys(t, fr, now, []kv.Key{k})
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return fr.Stats(), fr.Count()
}

func TestForestAutoHealTransient(t *testing.T) {
	st1, n1 := runAutoHealFlow(t)
	st2, n2 := runAutoHealFlow(t)
	if !reflect.DeepEqual(st1, st2) || n1 != n2 {
		t.Fatalf("auto-heal flow not deterministic:\n run1: %+v count=%d\n run2: %+v count=%d", st1, n1, st2, n2)
	}
}

// runAutoEvacFlow kills shard 1's WAL permanently: probes keep passing
// (reads work) but the Heal replay never does, so the evacuation
// deadline trips and AutoRebalance migrates the shard's committed range
// onto shard 0. Every committed key stays served; the acknowledged
// inserts whose redo sat in the dead WAL's unforced tail are lost —
// like unsynced writes in a crash — absent, never wrong. The evacuated
// state survives both the record path (crash before checkpoint) and the
// snapshot path (crash after checkpoint) of recovery.
func runAutoEvacFlow(t *testing.T) (ForestStats, int64) {
	t.Helper()
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")

	accepted, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", q)
	}
	// Degraded reads stay on while quarantined.
	done = fmCheckKeys(t, fr, done, fmShardKeys(1))

	now := fmDriveUntil(t, fr, done, 500*vtime.Microsecond, fmDrivePolicy(), func() bool {
		return fr.Stats().Evacuations == 1
	})
	st := fr.Stats()
	if st.EvacuatedShards != 1 || st.EvacuatedChunks < 1 {
		t.Fatalf("evacuation stats: %+v", st)
	}
	if st.AutoHeals != 0 {
		t.Fatalf("a dead device must not heal: AutoHeals = %d", st.AutoHeals)
	}
	if st.HealProbes == 0 {
		t.Fatal("the prober should have run before the evacuation deadline")
	}
	if st.QuarantinedShards != 0 {
		t.Fatalf("evacuated shard still counted quarantined: %+v", st)
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after evacuation, want empty", q)
	}

	checkServed := func(now vtime.Ticks) vtime.Ticks {
		t.Helper()
		now = fmCheckKeys(t, fr, now, fmShardKeys(0))
		now = fmCheckKeys(t, fr, now, fmShardKeys(1))
		for _, k := range accepted {
			if k < fmStride {
				now = fmCheckKeys(t, fr, now, []kv.Key{k})
				continue
			}
			// Tail inserts acknowledged into the dead WAL: lost, not wrong.
			_, ok, d, err := fr.Search(now, k)
			if err != nil {
				t.Fatalf("Search(%d): %v", k, err)
			}
			if ok {
				t.Fatalf("tail key %d resurrected without its redo ever being durable", k)
			}
			now = d
		}
		// The evacuated range routes to the destination.
		if s := fr.Routing().Shard(fmStride + 999); s != 0 {
			t.Fatalf("evacuated range routes to shard %d, want 0", s)
		}
		return now
	}
	now = checkServed(now)

	// The retired shard cannot heal — its physical copies are stale.
	if _, err := fr.Heal(now, 1); err == nil {
		t.Fatal("Heal on an evacuated shard must fail")
	}

	// Record path: crash before any checkpoint; Recover replays the
	// evacuation's Start/KeyMoved/End from the destination's log.
	fr.Crash()
	_, now, err := fr.Recover(now)
	if err != nil {
		t.Fatalf("Recover (record path): %v", err)
	}
	if st := fr.Stats(); st.EvacuatedShards != 1 {
		t.Fatalf("evacuation lost across crash (record path): %+v", st)
	}
	now = checkServed(now)

	// Snapshot path: checkpoint persists the routing snapshot (evac mask
	// included), then crash again.
	now, err = fr.Checkpoint(now)
	if err != nil {
		t.Fatalf("Checkpoint with an evacuated shard: %v", err)
	}
	fr.Crash()
	_, now, err = fr.Recover(now)
	if err != nil {
		t.Fatalf("Recover (snapshot path): %v", err)
	}
	if st := fr.Stats(); st.EvacuatedShards != 1 {
		t.Fatalf("evacuation lost across crash (snapshot path): %+v", st)
	}
	now = checkServed(now)

	// Writes to the evacuated range land on the destination.
	k := fmStride + 999
	now, err = fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
	if err != nil {
		t.Fatalf("post-evacuation insert: %v", err)
	}
	now = fmCheckKeys(t, fr, now, []kv.Key{k})
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return fr.Stats(), fr.Count()
}

func TestForestAutoEvacuatePermanent(t *testing.T) {
	st1, n1 := runAutoEvacFlow(t)
	st2, n2 := runAutoEvacFlow(t)
	if !reflect.DeepEqual(st1, st2) || n1 != n2 {
		t.Fatalf("auto-evacuation flow not deterministic:\n run1: %+v count=%d\n run2: %+v count=%d", st1, n1, st2, n2)
	}
}

// TestForestWatchdogStuckGang: a gang member that hangs far past the
// stuck deadline is abandoned by the watchdog at the deadline and
// classified transient, so the flush coordinator retries instead of
// hanging. Disarmed, the same program just waits out the hang — the
// watchdog counter stays zero either way the flush completes.
func TestForestWatchdogStuckGang(t *testing.T) {
	run := func(armed bool) ForestStats {
		fr, space := newFaultForest(t, RetryPolicy{})
		if armed {
			space.SetStuckTimeout(RetryPolicy{}.StuckDeadline())
		}
		at := fmBaseline(t, fr)
		fmInstall(t, space, fmt.Sprintf("stuck call=gang file=shard0 until=%dns", at+8*vtime.Millisecond))
		accepted, werr, done := fmTriggerFlush(t, fr, at)
		if werr != nil {
			t.Fatalf("armed=%v: flush should be retried to success, got %v", armed, werr)
		}
		if q := fr.Quarantined(); len(q) != 0 {
			t.Fatalf("armed=%v: stuck I/O must not quarantine: %v", armed, q)
		}
		if done > at+60*vtime.Millisecond {
			t.Fatalf("armed=%v: flush took unbounded time: %v -> %v", armed, at, done)
		}
		done = fmCheckKeys(t, fr, done, fmShardKeys(0))
		done = fmCheckKeys(t, fr, done, fmShardKeys(1))
		fmCheckKeys(t, fr, done, accepted)
		if err := fr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return fr.Stats()
	}
	armed := run(true)
	if armed.WatchdogTimeouts < 1 {
		t.Fatalf("armed: WatchdogTimeouts = %d, want >= 1", armed.WatchdogTimeouts)
	}
	if armed.IORetries < 1 {
		t.Fatalf("armed: the abandoned submission must be retried, IORetries = %d", armed.IORetries)
	}
	disarmed := run(false)
	if disarmed.WatchdogTimeouts != 0 {
		t.Fatalf("disarmed: WatchdogTimeouts = %d, want 0", disarmed.WatchdogTimeouts)
	}
	// Determinism of the armed flow.
	if again := run(true); !reflect.DeepEqual(armed, again) {
		t.Fatalf("watchdog flow not deterministic:\n run1: %+v\n run2: %+v", armed, again)
	}
}

// TestForestWatchdogStallPulse: a device-wide correlated stall (a GC
// pause) hangs every in-flight submission with no error at all. The
// watchdog abandons each at the deadline; retries land later in the
// pulse until the remaining stall fits under the deadline and the I/O
// rides it out. The flush completes with bounded per-submission waits
// and no quarantine.
func TestForestWatchdogStallPulse(t *testing.T) {
	fr, space := newFaultForest(t, RetryPolicy{})
	space.SetStuckTimeout(RetryPolicy{}.StuckDeadline())
	at := fmBaseline(t, fr)
	fmInstall(t, space, fmt.Sprintf("stall delay=20ms every=60ms from=%dns", at))
	accepted, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil {
		t.Fatalf("stalled flush should ride out the pulse, got %v", werr)
	}
	st := fr.Stats()
	if st.WatchdogTimeouts < 1 {
		t.Fatalf("WatchdogTimeouts = %d, want >= 1 (submissions hung mid-pulse)", st.WatchdogTimeouts)
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("a stall must not quarantine: %v", q)
	}
	done = fmCheckKeys(t, fr, done, fmShardKeys(0))
	done = fmCheckKeys(t, fr, done, fmShardKeys(1))
	fmCheckKeys(t, fr, done, accepted)
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHealIdempotentHealthy: Heal on a healthy shard is a no-op at zero
// cost, out-of-range shards are rejected, and nothing counts as an
// auto-heal.
func TestHealIdempotentHealthy(t *testing.T) {
	fr, _ := newFaultForest(t, RetryPolicy{})
	at := fmBaseline(t, fr)
	for i := 0; i < 2; i++ {
		done, err := fr.Heal(at, 0)
		if err != nil || done != at {
			t.Fatalf("Heal #%d on healthy shard: done=%v err=%v, want no-op", i, done, err)
		}
	}
	if _, err := fr.Heal(at, -1); err == nil {
		t.Fatal("Heal(-1) must fail")
	}
	if _, err := fr.Heal(at, fmShards); err == nil {
		t.Fatalf("Heal(%d) must fail", fmShards)
	}
	if st := fr.Stats(); st.AutoHeals != 0 || st.HealProbes != 0 {
		t.Fatalf("manual no-op heals counted as prober activity: %+v", st)
	}
}

// TestHealRefailStaysQuarantined: Heal against a still-dead device
// fails without changing the shard's state — quarantined, reads on —
// however often it is retried; once the device recovers, Heal succeeds
// and is idempotent from then on, with the forced tail fully durable.
func TestHealRefailStaysQuarantined(t *testing.T) {
	fr, space := newFaultForest(t, RetryPolicy{Disabled: true})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal0")
	accepted, werr, now := fmTriggerFlush(t, fr, at)
	if !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v, want ErrShardQuarantined", werr)
	}
	for i := 0; i < 3; i++ {
		if _, err := fr.Heal(now, 0); err == nil {
			t.Fatalf("Heal #%d against a dead device must fail", i)
		}
		if q := fr.Quarantined(); len(q) != 1 || q[0] != 0 {
			t.Fatalf("failed heal #%d changed quarantine state: %v", i, q)
		}
		now = fmCheckKeys(t, fr, now, fmShardKeys(0)) // reads stay on
	}
	space.SetInjector(nil) // the device comes back
	now2, err := fr.Heal(now, 0)
	if err != nil {
		t.Fatalf("Heal after recovery: %v", err)
	}
	if _, err := fr.Heal(now2, 0); err != nil {
		t.Fatalf("second Heal must be a no-op: %v", err)
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after heal", q)
	}
	now2 = fmCheckKeys(t, fr, now2, fmShardKeys(0))
	now2 = fmCheckKeys(t, fr, now2, fmShardKeys(1))
	now2 = fmCheckKeys(t, fr, now2, accepted)
	k := kv.Key(991)
	if now2, err = fr.Insert(now2, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
		t.Fatalf("post-heal insert: %v", err)
	}
	fmCheckKeys(t, fr, now2, []kv.Key{k})
	if st := fr.Stats(); st.AutoHeals != 0 {
		t.Fatalf("manual heal counted as auto-heal: %+v", st)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationCrashResumeInPlace parks an evacuation mid-stream with
// a one-tick drain budget, crashes, and recovers in place: the durable
// frontier resumes the evacuation during Recover, and the parked
// (now stale) AutoRebalance handle must not poison later polls.
func TestEvacuationCrashResumeInPlace(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")
	_, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	pol := fmDrivePolicy()
	pol.DrainBudget = 1 // one chunk per poll: the evacuation parks in flight
	// Crash only after the second chunk streamed: its phase-1 force made
	// the first chunk's KeyMoved durable, so recovery finds a durable
	// frontier to resume from (one chunk in, the frontier record is still
	// an unforced tail and recovery would — correctly — roll back).
	now := fmDriveUntil(t, fr, done, 500*vtime.Microsecond, pol, func() bool {
		st := fr.Stats()
		return st.MigrationActive && st.EvacuatedChunks >= 2
	})
	if fr.Stats().Evacuations != 0 {
		t.Fatal("evacuation finished before the crash could land mid-stream")
	}
	fr.Crash()
	rep, now, err := fr.Recover(now)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.ResumedMigrations != 1 {
		t.Fatalf("expected the evacuation to resume from its durable frontier: %+v", rep)
	}
	st := fr.Stats()
	if st.EvacuatedShards != 1 {
		t.Fatalf("resume did not retire the source: %+v", st)
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v", q)
	}
	now = fmCheckKeys(t, fr, now, fmShardKeys(0))
	now = fmCheckKeys(t, fr, now, fmShardKeys(1))
	// The stale parked handle must be gone: the next poll is clean.
	if _, _, _, _, err := fr.AutoRebalance(now+vtime.Millisecond, fmDrivePolicy()); err != nil {
		t.Fatalf("poll after crash-resume: %v", err)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationAbortDestinationFails parks an evacuation after its
// first chunk and then kills the destination's WAL: the next chunk's
// copy force fails and the evacuation aborts. Nothing may be committed —
// the source deleted nothing, so no prefix can move — and the streamed
// copies must be purged from the destination. Once the destination's
// fault window closes, the prober heals it and the evacuation re-runs to
// completion.
func TestEvacuationAbortDestinationFails(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")
	accepted, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	pol := fmDrivePolicy()
	pol.DrainBudget = 1 // one chunk per poll: the evacuation parks in flight
	now := fmDriveUntil(t, fr, done, 500*vtime.Microsecond, pol, func() bool {
		st := fr.Stats()
		return st.MigrationActive && st.EvacuatedChunks >= 1
	})

	// The destination's WAL dies too: the next chunk cannot make its
	// copies durable.
	fmInstall(t, space, "readonly file=wal1; readonly file=wal0")
	now += 500 * vtime.Microsecond
	_, _, _, now, err := fr.AutoRebalance(now, pol)
	if err != nil {
		t.Fatalf("AutoRebalance must contain the abort: %v", err)
	}
	st := fr.Stats()
	if st.MigrationAborts != 1 || st.Evacuations != 0 || st.MigrationActive {
		t.Fatalf("after the destination failed: %+v", st)
	}
	if rules := fr.Routing().Rules(); len(rules) != 0 {
		t.Fatalf("aborted evacuation added rules %v", rules)
	}
	if fr.Routing().isEvacuated(1) || st.EvacuatedShards != 0 {
		t.Fatal("aborted evacuation marked the source evacuated")
	}
	if q := fr.Quarantined(); len(q) != 2 {
		t.Fatalf("Quarantined() = %v, want both shards", q)
	}
	now = fmCheckKeys(t, fr, now, fmShardKeys(0))
	now = fmCheckKeys(t, fr, now, fmShardKeys(1))
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The destination's window closes: it heals, and the evacuation
	// re-runs from scratch and commits.
	fmInstall(t, space, "readonly file=wal1")
	now = fmDriveUntil(t, fr, now, 500*vtime.Microsecond, fmDrivePolicy(), func() bool {
		return fr.Stats().Evacuations == 1
	})
	st = fr.Stats()
	if st.AutoHeals < 1 || st.EvacuatedShards != 1 || st.MigrationAborts != 1 {
		t.Fatalf("after the rescue: %+v", st)
	}
	now = fmCheckKeys(t, fr, now, fmShardKeys(0))
	now = fmCheckKeys(t, fr, now, fmShardKeys(1))
	var durable int64
	for _, k := range accepted {
		if k < fmStride {
			now = fmCheckKeys(t, fr, now, []kv.Key{k})
			durable++
		}
	}
	if want := int64(2*fmPerShard) + durable; fr.Count() != want {
		t.Fatalf("Count() = %d, want %d", fr.Count(), want)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationStartIntoDeadShardContained is the evacuation twin of
// TestMigrationStartIntoDeadShardContained: the destination picked for
// an evacuation has a silently dead WAL — idle since its last force, so
// it is still healthy when the evacuation is planned — and the Start
// record's force is the first write to hit it. The start is contained
// like a migration's: the destination quarantined, the never-published
// evacuation closed with an abort record, the refusal surfaced as
// ErrShardQuarantined, the routing untouched. Once the destination's
// device comes back it heals, and the evacuation re-runs and commits.
func TestEvacuationStartIntoDeadShardContained(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")
	accepted, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", q)
	}

	fmInstall(t, space, "readonly file=wal1; readonly file=wal0")
	epoch := fr.Stats().RoutingEpoch
	done += 2 * vtime.Millisecond
	src, dst, ok := fr.dueEvacuation(done)
	if !ok || src != 1 || dst != 0 {
		t.Fatalf("dueEvacuation = (%d, %d, %v), want (1, 0, true)", src, dst, ok)
	}
	m, done, err := fr.evacuate(done, src, dst)
	if m != nil || !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("evacuation start into a dead destination = (%v, %v), want a contained refusal", m, err)
	}
	st := fr.Stats()
	if st.MigrationAborts != 1 || st.MigrationActive || st.Evacuations != 0 {
		t.Fatalf("after the contained start: %+v", st)
	}
	if q := fr.Quarantined(); len(q) != 2 {
		t.Fatalf("Quarantined() = %v, want both shards", q)
	}
	if st.RoutingEpoch != epoch {
		t.Fatalf("routing epoch moved %d -> %d on an aborted start", epoch, st.RoutingEpoch)
	}
	done = fmCheckKeys(t, fr, done, fmShardKeys(0))
	done = fmCheckKeys(t, fr, done, fmShardKeys(1))

	fmInstall(t, space, "readonly file=wal1")
	done = fmDriveUntil(t, fr, done, 500*vtime.Microsecond, fmDrivePolicy(), func() bool {
		return fr.Stats().Evacuations == 1
	})
	st = fr.Stats()
	if st.AutoHeals < 1 || st.EvacuatedShards != 1 || st.MigrationAborts != 1 {
		t.Fatalf("after the rescue: %+v", st)
	}
	done = fmCheckKeys(t, fr, done, fmShardKeys(0))
	done = fmCheckKeys(t, fr, done, fmShardKeys(1))
	var durable int64
	for _, k := range accepted {
		if k < fmStride {
			done = fmCheckKeys(t, fr, done, []kv.Key{k})
			durable++
		}
	}
	if want := int64(2*fmPerShard) + durable; fr.Count() != want {
		t.Fatalf("Count() = %d, want %d", fr.Count(), want)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationSkipsShardHealedSinceScan heals the shard the evacuation
// scan picked before the evacuation starts. The start re-checks the
// source under its lock: the live shard is left alone — no Start record,
// no routing change, no retirement — and the migration slot is released
// for the next move.
func TestEvacuationSkipsShardHealedSinceScan(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")
	_, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	done += 2 * vtime.Millisecond
	src, dst, ok := fr.dueEvacuation(done)
	if !ok || src != 1 || dst != 0 {
		t.Fatalf("dueEvacuation = (%d, %d, %v), want (1, 0, true)", src, dst, ok)
	}

	space.SetInjector(nil) // the device comes back between scan and start
	done, err := fr.Heal(done, 1)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	epoch := fr.Stats().RoutingEpoch
	m, done, err := fr.evacuate(done, src, dst)
	if m != nil || err != nil {
		t.Fatalf("evacuate of a healed shard = (%v, %v), want (nil, nil)", m, err)
	}
	st := fr.Stats()
	if st.MigrationActive || st.MigrationAborts != 0 || st.Evacuations != 0 || st.RoutingEpoch != epoch {
		t.Fatalf("after the skipped evacuation: %+v", st)
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v, want none", q)
	}
	k := fmStride + 700
	if done, err = fr.Insert(done, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
		t.Fatalf("write to the healed shard: %v", err)
	}
	// The slot was released: a migration can start.
	if _, done, err = fr.SplitShard(done, 1, fmStride+50); err != nil {
		t.Fatalf("SplitShard after the skipped evacuation: %v", err)
	}
	done = fmCheckKeys(t, fr, done, fmShardKeys(0))
	done = fmCheckKeys(t, fr, done, fmShardKeys(1))
	fmCheckKeys(t, fr, done, []kv.Key{k})
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationAbortLeavesHealedSource re-admits an in-flight
// evacuation's source with a Heal and writes a key above the frontier,
// which still routes to the source. Then the destination's WAL dies and
// the evacuation aborts. The abort quarantines only the destination: the
// live source is not rolled back, so its unforced write survives, and it
// stays unevacuated.
func TestEvacuationAbortLeavesHealedSource(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")
	_, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	pol := fmDrivePolicy()
	pol.DrainBudget = 1 // one chunk per poll: the evacuation parks in flight
	now := fmDriveUntil(t, fr, done, 500*vtime.Microsecond, pol, func() bool {
		st := fr.Stats()
		return st.MigrationActive && st.EvacuatedChunks >= 1
	})

	space.SetInjector(nil)
	now, err := fr.Heal(now, 1)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	k := fmStride + 900
	if s := fr.Routing().Shard(k); s != 1 {
		t.Fatalf("key %d routes to shard %d, want the source", k, s)
	}
	if now, err = fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
		t.Fatalf("write to the healed source: %v", err)
	}

	fmInstall(t, space, "readonly file=wal0")
	now += 500 * vtime.Microsecond
	if _, _, _, now, err = fr.AutoRebalance(now, pol); err != nil {
		t.Fatalf("AutoRebalance must contain the abort: %v", err)
	}
	st := fr.Stats()
	if st.MigrationAborts != 1 || st.Evacuations != 0 || st.MigrationActive {
		t.Fatalf("after the destination failed: %+v", st)
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}
	if fr.Routing().isEvacuated(1) {
		t.Fatal("aborted evacuation marked the source evacuated")
	}
	now = fmCheckKeys(t, fr, now, []kv.Key{k})
	now = fmCheckKeys(t, fr, now, fmShardKeys(0))
	fmCheckKeys(t, fr, now, fmShardKeys(1))
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationCrashMatrix cuts a committed evacuation's WAL — all of
// whose records ride the destination's log — at every protocol boundary,
// rebuilds the forest from the durable images captured at quarantine
// time, and verifies Recover resolves the evacuation consistently:
// rolled back entirely with the source still live, resumed from the
// frontier, or already complete.
func TestEvacuationCrashMatrix(t *testing.T) {
	for _, cut := range []migCut{cutPreStart, cutPreKeyMoved, cutAfterChunk, cutPreEnd, cutComplete} {
		t.Run(cut.String(), func(t *testing.T) { runEvacuationCrashScenario(t, cut) })
	}
}

func runEvacuationCrashScenario(t *testing.T, cut migCut) {
	retry := RetryPolicy{Disabled: true}
	evacPol := EvacuationPolicy{After: 2 * vtime.Millisecond}
	// A roomier OPQ budget (2 pages = 120 entries per shard) keeps the
	// destination from flushing while the evacuation's 100 copies stream
	// into it: the rebuilt images below restore the quarantine-time data
	// files, so an interleaved FlushEnd in the kept log prefix would make
	// replay skip copies those images never got. Small enough that the
	// trigger's 10 shard-1 inserts still make it ripe (threshold 6).
	const evacOPQPages = 4
	fr, space, pfs, logs := newFaultForestFull(t, retry, HealPolicy{}, evacPol, evacOPQPages)
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")
	accepted, werr, done := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", q)
	}

	// Durable image at quarantine time: the group flush's shard-0 work is
	// committed, the dead WAL's tail was never forced.
	preFiles := make([][]byte, fmShards)
	pages := make([]int64, fmShards)
	for i, pf := range pfs {
		preFiles[i] = pf.File().Snapshot()
		pages[i] = pf.NumPages()
	}
	preMeta := fr.SnapshotMeta()

	fmDriveUntil(t, fr, done, 500*vtime.Microsecond, fmDrivePolicy(), func() bool {
		return fr.Stats().Evacuations == 1
	})

	// Every evacuation record rides the destination's (shard 0's) log;
	// the source's durable log still ends at the baseline.
	dstRecs, err := logs[0].Records()
	if err != nil {
		t.Fatal(err)
	}
	srcRecs, err := logs[1].Records()
	if err != nil {
		t.Fatal(err)
	}
	switch cut {
	case cutPreStart:
		dstRecs = cutBeforeKind(dstRecs, wal.KindMigrationStart, 0)
	case cutPreKeyMoved:
		// The first chunk's copies were forced in the same batch as its
		// KeyMoved; tearing the KeyMoved off leaves copies the rollback
		// must purge from the destination.
		dstRecs = cutBeforeKind(dstRecs, wal.KindKeyMoved, 0)
	case cutAfterChunk:
		dstRecs = cutAfterKind(dstRecs, wal.KindKeyMoved, 0)
	case cutPreEnd:
		dstRecs = cutBeforeKind(dstRecs, wal.KindMigrationEnd, 0)
	case cutComplete:
	}

	// Rebuild on a fresh, healthy device from the quarantine-time images
	// plus the cut logs.
	dev2 := flashsim.MustDevice(flashsim.P300())
	space2 := ssdio.NewSpace(dev2)
	cfg := smallCfg()
	cfg.OPQPages = evacOPQPages
	cfg.BufferBytes = 32 * 1024
	cfg.Retry = retry
	pfs2 := make([]*pagefile.PageFile, fmShards)
	logs2 := make([]*wal.Log, fmShards)
	for i := 0; i < fmShards; i++ {
		f, err := space2.Create(fmt.Sprintf("shard%d", i), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		f.Restore(preFiles[i])
		if pfs2[i], err = pagefile.New(f, cfg.PageSize); err != nil {
			t.Fatal(err)
		}
		for pfs2[i].NumPages() < pages[i] {
			pfs2[i].Alloc()
		}
		wf, err := space2.Create(fmt.Sprintf("wal%d", i), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if logs2[i], err = wal.NewLog(wf, cfg.PageSize); err != nil {
			t.Fatal(err)
		}
		recs := dstRecs
		if i == 1 {
			recs = srcRecs
		}
		for _, r := range recs {
			logs2[i].Append(r)
		}
		if _, err := logs2[i].Force(0); err != nil {
			t.Fatal(err)
		}
	}
	fr2, err := NewForest(pfs2, ForestConfig{
		Partitioner:    RangePartitioner{Bounds: []kv.Key{fmStride}},
		RipeFraction:   0.05,
		Shard:          cfg,
		Logs:           logs2,
		MigrationChunk: fmChunkSize,
		Evacuation:     evacPol,
	})
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

	rules := fr2.Routing().Rules()
	st := fr2.Stats()
	switch cut {
	case cutPreStart:
		if rep.ResumedMigrations != 0 || rep.RolledBackMigrations != 0 || len(rules) != 0 || st.EvacuatedShards != 0 {
			t.Fatalf("preStart resolved something: %+v rules=%v evac=%d", rep, rules, st.EvacuatedShards)
		}
	case cutPreKeyMoved:
		if rep.RolledBackMigrations != 1 || len(rules) != 0 || st.EvacuatedShards != 0 {
			t.Fatalf("preKeyMoved: %+v rules=%v evac=%d", rep, rules, st.EvacuatedShards)
		}
	case cutAfterChunk, cutPreEnd:
		if rep.ResumedMigrations != 1 || len(rules) != 1 || st.EvacuatedShards != 1 {
			t.Fatalf("%v: %+v rules=%v evac=%d", cut, rep, rules, st.EvacuatedShards)
		}
	case cutComplete:
		if rep.ResumedMigrations != 0 || rep.RolledBackMigrations != 0 || len(rules) != 1 || st.EvacuatedShards != 1 {
			t.Fatalf("complete: %+v rules=%v evac=%d", rep, rules, st.EvacuatedShards)
		}
	}

	// Whatever the cut: every durable key is served exactly once — the
	// baseline of both shards plus the flush-committed shard-0 inserts —
	// and the dead WAL's tail inserts stay lost.
	now := fmCheckKeys(t, fr2, at2, fmShardKeys(0))
	now = fmCheckKeys(t, fr2, now, fmShardKeys(1))
	var durable int64
	for _, k := range accepted {
		if k < fmStride {
			now = fmCheckKeys(t, fr2, now, []kv.Key{k})
			durable++
			continue
		}
		_, ok, d, err := fr2.Search(now, k)
		if err != nil {
			t.Fatalf("Search(%d): %v", k, err)
		}
		if ok {
			t.Fatalf("tail key %d resurrected from a never-forced WAL", k)
		}
		now = d
	}
	if want := int64(2*fmPerShard) + durable; fr2.Count() != want {
		t.Fatalf("Count() = %d, want %d", fr2.Count(), want)
	}
	if len(rules) == 1 {
		// The evacuated range routes to the destination.
		if s := fr2.Routing().Shard(fmStride + 999); s != 0 {
			t.Fatalf("evacuated range routes to shard %d, want 0", s)
		}
		if _, err := fr2.Heal(now, 1); err == nil {
			t.Fatal("Heal on the evacuated source must fail")
		}
	}
	if err := fr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationStartIntoDeadShardContained reproduces the shape of the
// blackout scenario's bench-scale failure: the destination picked for a
// fresh migration has a silently dead (read-only) WAL device — cold
// since its last force, so it is still healthy when the migration is
// planned — and the MigrationStart gang force is the first write to hit
// it. The start must be contained exactly like a group flush: the
// destination quarantined via tail attribution, the refusal surfaced as
// ErrShardQuarantined rather than a raw partial-gang fault, the routing
// untouched, and the evacuation deadline must then rescue the range
// while the heal prober keeps failing on the write probe.
func TestMigrationStartIntoDeadShardContained(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	fmInstall(t, space, "readonly file=wal1")

	epoch := fr.Stats().RoutingEpoch
	m, done, err := fr.StartMigration(at, 50, fmStride, 0, 1)
	if m != nil || err == nil {
		t.Fatalf("StartMigration into dead shard = (%v, %v), want contained refusal", m, err)
	}
	if !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("StartMigration error = %v, want ErrShardQuarantined", err)
	}
	st := fr.Stats()
	if st.MigrationAborts != 1 {
		t.Fatalf("MigrationAborts = %d, want 1", st.MigrationAborts)
	}
	if got := fr.Quarantined(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", got)
	}
	if st.RoutingEpoch != epoch {
		t.Fatalf("routing epoch moved %d -> %d on an aborted start", epoch, st.RoutingEpoch)
	}

	// The next AutoRebalance poll (still inside the evacuation grace
	// window) reports the standoff as "no move", never as an error, and
	// both shards' committed keys stay served: the quarantined shard is
	// degraded, not offline.
	moved, _, _, done, err := fr.AutoRebalance(done, fmDrivePolicy())
	if err != nil || moved {
		t.Fatalf("AutoRebalance after contained abort = (%v, %v), want clean no-op", moved, err)
	}
	done = fmCheckKeys(t, fr, done, fmShardKeys(0))
	done = fmCheckKeys(t, fr, done, fmShardKeys(1))

	// The evacuation deadline retires the dead shard. Reads against the
	// device still succeed, so every probe reaches it — but the heal
	// probe record forces a genuine write, which a read-only device must
	// fail: no flapping re-admission before the rescue.
	done = fmDriveUntil(t, fr, done, vtime.Millisecond, fmDrivePolicy(), func() bool {
		return fr.Stats().Evacuations == 1
	})
	st = fr.Stats()
	if st.AutoHeals != 0 {
		t.Fatalf("AutoHeals = %d, want 0: a read-only device must fail the write probe", st.AutoHeals)
	}
	if st.HealProbes == 0 {
		t.Fatal("HealProbes = 0, want probing before the evacuation deadline")
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after evacuation, want none", q)
	}
	done = fmCheckKeys(t, fr, done, fmShardKeys(0))
	_ = fmCheckKeys(t, fr, done, fmShardKeys(1))
	if fr.Count() != int64(2*fmPerShard) {
		t.Fatalf("Count() = %d, want %d", fr.Count(), 2*fmPerShard)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardHealthTransitions drives the shard health automaton through
// every (state, event) pair: the resulting state, whether the incident
// start was opened at the event or kept, and whether the probe schedule
// restarted, backed off, or stayed as it was.
func TestShardHealthTransitions(t *testing.T) {
	const start, at, ready = vtime.Ticks(10), vtime.Ticks(100), vtime.Ticks(120)
	errOld, errNew := errors.New("old fault"), errors.New("new fault")
	states := [...]string{"healthy", "probation", "quarantined", "offline", "retired"}
	events := [...]string{"fail", "replay-fail", "heal", "flush-commit", "recover", "retire"}
	// reach drives a fresh shard into h through the automaton itself, any
	// incident opening at start.
	reach := func(h shardHealth) *forestShard {
		s := &forestShard{}
		s.mu.Lock()
		defer s.mu.Unlock()
		switch h {
		case probation:
			s.transition(evFail, start, start, errOld)
			s.transition(evHeal, start, start, nil)
		case quarantined:
			s.transition(evFail, start, start, errOld)
		case offline:
			s.transition(evReplayFail, start, start, errOld)
		case retired:
			s.transition(evRetire, start, start, nil)
		}
		if s.health != h {
			t.Fatalf("reached %s, want %s", states[s.health], states[h])
		}
		return s
	}
	type probe int
	const (
		kept probe = iota
		restarted
		backedOff
	)
	cases := []struct {
		from  shardHealth
		ev    healthEvent
		to    shardHealth
		opens bool // the incident start moves to at
		probe probe
	}{
		{healthy, evFail, quarantined, true, restarted},
		{healthy, evReplayFail, offline, true, restarted},
		{healthy, evHeal, healthy, false, kept},
		{healthy, evFlushCommit, healthy, false, kept},
		{healthy, evRecover, healthy, false, kept},
		{healthy, evRetire, retired, false, kept},
		{probation, evFail, quarantined, false, restarted}, // the start is kept
		{probation, evReplayFail, offline, false, restarted},
		{probation, evHeal, probation, false, kept},
		{probation, evFlushCommit, healthy, false, kept},
		{probation, evRecover, healthy, false, kept},
		{probation, evRetire, retired, false, kept},
		{quarantined, evFail, quarantined, false, backedOff},
		{quarantined, evReplayFail, offline, false, kept},
		{quarantined, evHeal, probation, false, kept},
		{quarantined, evFlushCommit, quarantined, false, kept},
		{quarantined, evRecover, healthy, false, kept},
		{quarantined, evRetire, retired, false, kept},
		{offline, evFail, offline, false, backedOff},
		{offline, evReplayFail, offline, false, kept},
		{offline, evHeal, probation, false, kept},
		{offline, evFlushCommit, offline, false, kept},
		{offline, evRecover, healthy, false, kept},
		{offline, evRetire, retired, false, kept},
		{retired, evFail, retired, false, kept}, // a no-op
		{retired, evReplayFail, retired, false, kept},
		{retired, evHeal, retired, false, kept}, // refused
		{retired, evFlushCommit, retired, false, kept},
		{retired, evRecover, retired, false, kept},
		{retired, evRetire, retired, false, kept},
	}
	if len(cases) != len(states)*len(events) {
		t.Fatalf("%d cases, want every one of %d (state, event) pairs", len(cases), len(states)*len(events))
	}
	for _, c := range cases {
		name := states[c.from] + " --" + events[c.ev] + "-->"
		s := reach(c.from)
		s.mu.Lock()
		since, from, fails := s.since, s.probeFrom, s.probeFails
		s.transition(c.ev, at, ready, errNew)
		got := s.health
		gotSince, gotFrom, gotFails, cause := s.since, s.probeFrom, s.probeFails, s.cause
		s.mu.Unlock()
		if got != c.to {
			t.Errorf("%s %s, want %s", name, states[got], states[c.to])
		}
		wantSince := since
		if c.opens {
			wantSince = at
		}
		if gotSince != wantSince {
			t.Errorf("%s incident start %v, want %v", name, gotSince, wantSince)
		}
		wantFrom, wantFails := from, fails
		switch c.probe {
		case restarted:
			wantFrom, wantFails = ready, 0
		case backedOff:
			wantFrom, wantFails = ready, fails+1
		}
		if gotFrom != wantFrom || gotFails != wantFails {
			t.Errorf("%s probe schedule (%v, %d), want (%v, %d)", name, gotFrom, gotFails, wantFrom, wantFails)
		}
		var wantCause error
		switch {
		case c.to == retired:
			wantCause = errEvacuated
		case c.probe == restarted:
			wantCause = errNew
		case c.to.probing():
			wantCause = errOld
		}
		if cause != wantCause {
			t.Errorf("%s cause %v, want %v", name, cause, wantCause)
		}
	}
}

// TestEvacuationDeadlineFromVtimeZero quarantines a shard at vtime 0 —
// its WAL is read-only before the first write — and expects the
// evacuation deadline to fire like for any other incident start.
func TestEvacuationDeadlineFromVtimeZero(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	fmInstall(t, space, "readonly file=wal1")
	for j := 0; ; j++ {
		if j == 500 {
			t.Fatal("shard 1 never quarantined")
		}
		k := fmStride + kv.Key(j)
		_, err := fr.Insert(0, kv.Record{Key: k, Value: fmVal(k)})
		if errors.Is(err, ErrShardQuarantined) {
			break
		}
		if err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	var now vtime.Ticks
	for now < 100*vtime.Millisecond {
		now += 500 * vtime.Microsecond
		_, _, _, d, err := fr.AutoRebalance(now, fmDrivePolicy())
		if err != nil {
			t.Fatalf("AutoRebalance: %v", err)
		}
		now = vtime.Max(now, d)
	}
	if st := fr.Stats(); st.Evacuations != 1 || st.EvacuatedShards != 1 {
		t.Fatalf("Evacuations = %d, EvacuatedShards = %d after %d probes; want 1 and 1",
			st.Evacuations, st.EvacuatedShards, st.HealProbes)
	}
	k := fmStride + 999
	now, err := fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
	if err != nil {
		t.Fatalf("insert into the evacuated range: %v", err)
	}
	fmCheckKeys(t, fr, now, []kv.Key{k})
}

// TestSoloFlushCommitEndsIncident heals a quarantined shard and commits
// one solo flush of it, which proves its device is back and ends the
// incident. When the device dies again 50ms later, a new incident opens:
// the next poll must not evacuate against the old incident's start.
func TestSoloFlushCommitEndsIncident(t *testing.T) {
	fr, space := newFaultForest(t, RetryPolicy{Disabled: true})
	at := fmBaseline(t, fr)
	fmInstall(t, space, fmt.Sprintf("transient file=wal1 until=%dns", at+vtime.Millisecond))
	_, werr, now := fmTriggerFlush(t, fr, at)
	if werr != nil && !errors.Is(werr, ErrShardQuarantined) {
		t.Fatalf("trigger write error = %v", werr)
	}
	if q := fr.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", q)
	}
	space.SetInjector(nil)
	now, err := fr.Heal(now, 1)
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}

	// insertUntil inserts fresh shard-1 keys from base until stop holds.
	insertUntil := func(base kv.Key, stop func(error) bool) {
		t.Helper()
		for j := 0; j < 500; j++ {
			k := base + kv.Key(j)
			var err error
			now, err = fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
			if stop(err) {
				return
			}
			if err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
		}
		t.Fatal("condition never reached after 500 inserts")
	}
	before := fr.Stats()
	insertUntil(fmStride+600, func(error) bool { return fr.Stats().GroupFlushes > before.GroupFlushes })
	if st := fr.Stats(); st.GroupedShards-before.GroupedShards != 1 || len(fr.Quarantined()) != 0 {
		t.Fatalf("want one committed solo flush of shard 1: %+v", st)
	}

	now += 50 * vtime.Millisecond
	fmInstall(t, space, "readonly file=wal1")
	insertUntil(fmStride+2000, func(err error) bool { return errors.Is(err, ErrShardQuarantined) })
	if _, _, _, _, err := fr.AutoRebalance(now, fmDrivePolicy()); err != nil {
		t.Fatalf("AutoRebalance: %v", err)
	}
	if st := fr.Stats(); st.Evacuations != 0 {
		t.Fatalf("Evacuations = %d right after a fresh incident opened, want 0", st.Evacuations)
	}
}

// TestShardHealthHammerRace moves shard 1 through its whole health
// lifecycle while real goroutines read, write and poll: a transient WAL
// fault that comes and goes twice (quarantine, heal), then a permanent
// one (quarantine, evacuation). The committed keys stay served
// throughout, and at the end no committed key is lost, no acknowledged
// key reads back wrong, and the forest's invariants hold.
func TestShardHealthHammerRace(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true},
		HealPolicy{}, EvacuationPolicy{After: 2 * vtime.Millisecond})
	at := fmBaseline(t, fr)
	committed := append(fmShardKeys(0), fmShardKeys(1)...)

	var (
		stop    atomic.Bool
		horizon atomic.Int64 // the latest writer clock: the driver never lags behind it
		ackMu   sync.Mutex
		acked   []kv.Key
		wg      sync.WaitGroup
	)
	ack := func(k kv.Key) {
		ackMu.Lock()
		acked = append(acked, k)
		ackMu.Unlock()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	const writers, readers, writerOps = 2, 2, 400
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := at
			for i := 0; i < writerOps && !stop.Load(); i++ {
				// Even ops write shard 0, odd ones shard 1.
				k := 100 + kv.Key(w*writerOps+i)/2
				if i%2 == 1 {
					k = 2*fmStride + kv.Key(w*writerOps+i)
				}
				done, err := fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
				switch {
				case err == nil:
					ack(k)
				case !errors.Is(err, ErrShardQuarantined):
					t.Errorf("writer %d: Insert(%d): %v", w, k, err)
					return
				}
				// A rejected write still spent the flush and rollback that
				// quarantined the shard.
				now = vtime.Max(now, done)
				for h := horizon.Load(); int64(now) > h; h = horizon.Load() {
					if horizon.CompareAndSwap(h, int64(now)) {
						break
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			now := at
			for i := r; !stop.Load(); i++ {
				k := committed[(i*17)%len(committed)]
				if i%16 == 0 {
					_, done, err := fr.RangeSearch(now, k, k+64)
					if err != nil && !errors.Is(err, ErrShardQuarantined) {
						t.Errorf("reader %d: RangeSearch(%d): %v", r, k, err)
						return
					}
					now = vtime.Max(now, done)
					continue
				}
				// An offline shard rejects reads; otherwise a committed key
				// is always served.
				v, ok, done, err := fr.Search(now, k)
				if err == nil && (!ok || v != fmVal(k)) {
					t.Errorf("reader %d: committed key %d = (%d, %v)", r, k, v, ok)
					return
				}
				if err != nil && !errors.Is(err, ErrShardQuarantined) {
					t.Errorf("reader %d: Search(%d): %v", r, k, err)
					return
				}
				now = vtime.Max(now, done)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			fr.Stats()
			fr.Quarantined()
			fr.Count()
		}
	}()

	// The driver runs on the test goroutine: it installs the faults,
	// quarantines shard 1 itself when the writers have not, and polls
	// AutoRebalance.
	now := at
	poll := func() {
		now = vtime.Max(now, vtime.Ticks(horizon.Load())) + 500*vtime.Microsecond
		_, _, _, d, err := fr.AutoRebalance(now, fmDrivePolicy())
		if err != nil {
			t.Fatalf("AutoRebalance: %v", err)
		}
		now = vtime.Max(now, d)
	}
	pollUntil := func(what string, cond func() bool) {
		for i := 0; !cond(); i++ {
			if i == 512 {
				t.Fatalf("%s never happened: %+v", what, fr.Stats())
			}
			poll()
		}
	}
	next := 100 * fmStride
	quarantine := func() {
		for j := 0; j < 500; j++ {
			k := next
			next++
			d, err := fr.Insert(now, kv.Record{Key: k, Value: fmVal(k)})
			now = vtime.Max(now, d)
			if errors.Is(err, ErrShardQuarantined) {
				return
			}
			if err != nil {
				t.Fatalf("driver Insert(%d): %v", k, err)
			}
			ack(k)
		}
		t.Fatal("shard 1 never quarantined")
	}
	for flap := 0; flap < 2; flap++ {
		fmInstall(t, space, "transient file=wal1")
		quarantine()
		space.SetInjector(nil)
		pollUntil("heal", func() bool { return len(fr.Quarantined()) == 0 })
		// Checkpoint before the next fault. A replay undoes a flush whose
		// FlushStart is durable without its FlushEnd but logs nothing that
		// closes it, so a second rollback before a checkpoint would apply
		// its stale pre-images again, over pages a later flush wrote.
		d, err := fr.Checkpoint(now)
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		now = d
	}
	// Every key acknowledged so far is made durable: none may be lost.
	ackMu.Lock()
	durable := len(acked)
	ackMu.Unlock()
	d, err := fr.Sync(now)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	now = d
	fmInstall(t, space, "readonly file=wal1")
	quarantine()
	pollUntil("evacuation", func() bool { return fr.Stats().Evacuations == 1 })
	stop.Store(true)
	wg.Wait()

	st := fr.Stats()
	if st.AutoHeals < 2 || st.EvacuatedShards != 1 || st.QuarantinedShards != 0 {
		t.Fatalf("lifecycle stats: %+v", st)
	}
	now = fmCheckKeys(t, fr, now, committed)
	for i, k := range acked {
		v, ok, d, err := fr.Search(now, k)
		if err != nil {
			t.Fatalf("Search(%d): %v", k, err)
		}
		now = d
		mustSurvive := i < durable || k < fmStride
		if ok && v != fmVal(k) || !ok && mustSurvive {
			t.Fatalf("acknowledged key %d = (%d, %v), durable=%v", k, v, ok, mustSurvive)
		}
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
