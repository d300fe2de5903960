package core

import (
	"math/rand"
	"testing"

	"repro/internal/kv"
	"repro/internal/vtime"
)

// planLoad drives one poll window on the rebalancing forest: hot(i) names
// the key of shard 0's i-th op (400 of them), and shards 1, 2 and 3 get
// 100, 100 and 20 searches spread over their keys. The window's shed
// target is then lm = min(400-155, 155-20) = 135 ops.
func planLoad(t *testing.T, fr *Forest, at vtime.Ticks, hot func(i int) kv.Key) vtime.Ticks {
	t.Helper()
	search := func(k kv.Key) {
		var err error
		if _, _, at, err = fr.Search(at, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		search(hot(i))
	}
	for s, n := range []int{0, 100, 100, 20} {
		for i := 0; i < n; i++ {
			search(phase1Key(s, i*7%rebalPerShard))
		}
	}
	return at
}

// planShed is the window load planLoad sends to shard 0 keys in [lo, hi).
func planShed(hot func(i int) kv.Key, lo, hi kv.Key) int {
	n := 0
	for i := 0; i < 400; i++ {
		if k := hot(i); k >= lo && k < hi {
			n++
		}
	}
	return n
}

// planVerify checks every key the planner tests loaded — rebalPerShard
// per shard plus extra[s] more on shard s — and the forest invariants.
func planVerify(t *testing.T, fr *Forest, at vtime.Ticks, extra [crashShards]int) {
	t.Helper()
	total := int64(0)
	for s := 0; s < crashShards; s++ {
		for j := 0; j < rebalPerShard+extra[s]; j++ {
			k := phase1Key(s, j)
			v, ok, d, err := fr.Search(at, k)
			if err != nil || !ok || v != crashVal(k) {
				t.Fatalf("key %d: v=%d ok=%v err=%v", k, v, ok, err)
			}
			at = d
			total++
		}
	}
	if got := fr.Count(); got != total {
		t.Fatalf("Count() = %d, want %d", got, total)
	}
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// planExtra inserts n more keys on shard s, past its loaded ones.
func planExtra(t *testing.T, fr *Forest, at vtime.Ticks, s, n int) vtime.Ticks {
	t.Helper()
	var err error
	for j := rebalPerShard; j < rebalPerShard+n; j++ {
		k := phase1Key(s, j)
		if at, err = fr.Insert(at, kv.Record{Key: k, Value: crashVal(k)}); err != nil {
			t.Fatal(err)
		}
	}
	return at
}

// planOpen opens a poll window without acting on the load before it.
func planOpen(t *testing.T, fr *Forest, at vtime.Ticks) vtime.Ticks {
	t.Helper()
	moved, _, _, done, err := fr.AutoRebalance(at, RebalancePolicy{MinOps: 1 << 40})
	if err != nil || moved {
		t.Fatalf("opening poll: moved=%v err=%v", moved, err)
	}
	return done
}

// TestAutoRebalancePlanner is the planner's table: each row shapes one
// poll window (planLoad) on a loaded four-shard forest, polls once, and
// checks the move the planner chose. TestAutoRebalancePlannerBudget is
// its two-poll row.
func TestAutoRebalancePlanner(t *testing.T) {
	const lm = 135
	// lowStripe: three ops in four on shard 0's ten lowest keys, the rest
	// spread over its other keys; highStripe mirrors it.
	lowStripe := func(i int) kv.Key {
		if i%4 != 3 {
			return phase1Key(0, i%10)
		}
		return phase1Key(0, 10+i*7%50)
	}
	highStripe := func(i int) kv.Key {
		if i%4 != 3 {
			return phase1Key(0, 50+i%10)
		}
		return phase1Key(0, i*7%50)
	}
	// wide spreads shard 0's load over the 160 keys it holds with 100
	// extra, so the shed share spans several chunks.
	wide := func(i int) kv.Key { return phase1Key(0, i*37%160) }

	for _, tc := range []struct {
		name string
		// extra[s] keys are added to shard s before the window opens.
		extra [crashShards]int
		hot   func(i int) kv.Key
		pol   RebalancePolicy
		check func(t *testing.T, fr *Forest, rule MoveRule, hot func(int) kv.Key)
		// noMove rows expect the poll to refuse.
		noMove bool
	}{
		{
			name: "low stripe moves a low range carrying the excess",
			hot:  lowStripe,
			check: func(t *testing.T, fr *Forest, r MoveRule, hot func(int) kv.Key) {
				if r.Hi > phase1Key(0, 10) {
					t.Fatalf("rule %+v, want a range inside the low stripe", r)
				}
				if got := planShed(hot, r.Lo, r.Hi); got < lm/2 || got > lm*3/2 {
					t.Fatalf("rule %+v carries %d ops of load, want about %d", r, got, lm)
				}
			},
		},
		{
			name: "high stripe moves a high range carrying the excess",
			hot:  highStripe,
			check: func(t *testing.T, fr *Forest, r MoveRule, hot func(int) kv.Key) {
				if r.Lo < phase1Key(0, 50) {
					t.Fatalf("rule %+v, want a range inside the high stripe", r)
				}
				if got := planShed(hot, r.Lo, r.Hi); got < lm/2 || got > lm*3/2 {
					t.Fatalf("rule %+v carries %d ops of load, want about %d", r, got, lm)
				}
			},
		},
		{
			// A sweep touches each of shard 0's 400 keys once: the last 64
			// ops alone would place the load at the sweep's top end.
			name:  "sequential sweep is sampled along its whole length",
			extra: [crashShards]int{0: 400 - rebalPerShard},
			hot:   func(i int) kv.Key { return phase1Key(0, i) },
			check: func(t *testing.T, fr *Forest, r MoveRule, hot func(int) kv.Key) {
				if got := planShed(hot, r.Lo, r.Hi); got < lm/2 || got > lm*3/2 {
					t.Fatalf("rule %+v carries %d ops of load, want about %d", r, got, lm)
				}
			},
		},
		{
			name:   "single-key hotspot makes no move",
			hot:    func(int) kv.Key { return phase1Key(0, 7) },
			noMove: true,
		},
		{
			name:  "destination by load though it holds the most keys",
			extra: [crashShards]int{3: 120},
			hot:   lowStripe,
			check: func(t *testing.T, fr *Forest, r MoveRule, _ func(int) kv.Key) {
				if keys := fr.Stats().ShardLoads[3].Keys; keys <= 2*rebalPerShard {
					t.Fatalf("shard 3 holds %d keys, want the most", keys)
				}
			},
		},
		{
			name:  "zero budget does not cap the move",
			extra: [crashShards]int{0: 100},
			hot:   wide,
			check: func(t *testing.T, fr *Forest, r MoveRule, _ func(int) kv.Key) {
				if n := fr.Stats().MigratedKeys; n <= 2*int64(fr.migChunk) {
					t.Fatalf("unbudgeted move streamed %d keys, want more than two chunks of %d", n, fr.migChunk)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr, _, _ := newCrashForest(t, rebalForestCfg())
			at := loadRebalForest(t, fr)
			for s, n := range tc.extra {
				at = planExtra(t, fr, at, s, n)
			}
			at = planOpen(t, fr, at)
			at = planLoad(t, fr, at, tc.hot)
			pol := tc.pol
			pol.MinOps = 100
			ok, from, to, at, err := fr.AutoRebalance(at, pol)
			if err != nil {
				t.Fatal(err)
			}
			rules := fr.Routing().Rules()
			if tc.noMove {
				if ok || len(rules) != 0 || fr.Stats().MigratedKeys != 0 {
					t.Fatalf("moved=%v rules=%v, want no move", ok, rules)
				}
				planVerify(t, fr, at, tc.extra)
				return
			}
			if !ok || from != 0 || to != 3 || len(rules) != 1 {
				t.Fatalf("moved=%v %d->%d rules=%v, want one move from shard 0 to the least-loaded shard 3", ok, from, to, rules)
			}
			tc.check(t, fr, rules[0], tc.hot)
			planVerify(t, fr, at, tc.extra)
		})
	}
}

// TestAutoRebalancePlannerBudget: the first budgeted move streams one
// chunk; once a chunk has streamed, a budgeted move takes as many chunks
// as the budget covers at the measured streaming cost, and no more.
func TestAutoRebalancePlannerBudget(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	extra := [crashShards]int{0: 300}
	at := planOpen(t, fr, planExtra(t, fr, loadRebalForest(t, fr), 0, extra[0]))
	wide := func(i int) kv.Key { return phase1Key(0, i*37%360) }
	pol := RebalancePolicy{MinOps: 100, DrainBudget: vtime.Millisecond}
	at = planLoad(t, fr, at, wide)
	_, _, _, at, err := fr.AutoRebalance(at, pol)
	if err != nil {
		t.Fatal(err)
	}
	first := fr.Stats().MigratedKeys
	if first != int64(fr.migChunk) {
		t.Fatalf("first budgeted move streamed %d keys, want one chunk of %d", first, fr.migChunk)
	}
	// Give the second poll a budget worth three measured chunks.
	perKey := float64(fr.moveTicks.Load()) / float64(fr.moveKeys.Load())
	pol.DrainBudget = vtime.Ticks(3.5 * perKey * float64(fr.migChunk))
	at = planLoad(t, fr, at, wide)
	ok, from, _, at, err := fr.AutoRebalance(at, pol)
	if err != nil {
		t.Fatal(err)
	}
	second := fr.Stats().MigratedKeys - first
	if !ok || from != 0 || second <= int64(fr.migChunk) || second > 3*int64(fr.migChunk) {
		t.Fatalf("second move: moved=%v from=%d streamed %d keys, want 2-3 chunks of %d", ok, from, second, fr.migChunk)
	}
	planVerify(t, fr, at, extra)
}

// TestAutoRebalanceWindowAdvancesOnResume: a poll that resumes an
// in-flight move still closes the load window, so the next plan sees only
// the load that arrived after it — not the load from before the move.
func TestAutoRebalanceWindowAdvancesOnResume(t *testing.T) {
	fr, _, _ := newCrashForest(t, rebalForestCfg())
	at := loadRebalForest(t, fr)
	hammer := func(shard, n int) {
		var err error
		for i := 0; i < n; i++ {
			if _, _, at, err = fr.Search(at, phase1Key(shard, i%rebalPerShard)); err != nil {
				t.Fatal(err)
			}
		}
	}
	poll := func(budget vtime.Ticks) (bool, int) {
		moved, from, _, done, err := fr.AutoRebalance(at, RebalancePolicy{MinOps: 100, DrainBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		at = done
		return moved, from
	}
	poll(0) // open the window
	hammer(0, 400)
	// One tick of budget: the move streams a chunk and stays in flight.
	if moved, from := poll(1); moved || from != 0 {
		t.Fatalf("first poll: moved=%v from=%d, want shard 0's move parked in flight", moved, from)
	}
	hammer(1, 600)
	// This poll resumes the parked move to completion.
	if moved, from := poll(0); !moved || from != 0 {
		t.Fatalf("resuming poll: moved=%v from=%d, want shard 0's move committed", moved, from)
	}
	hammer(3, 400)
	// The window holds shard 3's 400 ops alone; shard 1's 600 belong to
	// the window the resuming poll closed.
	if moved, from := poll(0); !moved || from != 3 {
		t.Fatalf("next poll: moved=%v from=%d, want a move off shard 3", moved, from)
	}
	verifyAllKeys(t, fr, at)
}

// TestAutoRebalanceDriftGuard replays rebalance_drift's shape in small:
// eight shards, 80 % of the ops on one sixteenth of the key space, half
// of them fresh inserts, the stripe jumping 0 -> 6 -> 11 at one and two
// thirds of the run, and a poller every 300 ops. Across seeds 1-8 the
// control plane must move fewer keys than the ops it serves, and never
// send a range straight back to the shard it left.
func TestAutoRebalanceDriftGuard(t *testing.T) {
	const (
		shards  = 8
		perSh   = 100 // loaded slots per shard
		slots   = shards * perSh
		stripe  = slots / 16
		ops     = 6000
		every   = 300 // ops per poll window
		slotGap = 10  // slot s holds key s*slotGap; fresh inserts fill the gap
	)
	for seed := int64(1); seed <= 8; seed++ {
		fr, _, _, _ := newFaultForestOf(t, shards, shards, func(*Spec) {})
		var at vtime.Ticks
		var err error
		for s := 0; s < slots; s++ {
			k := kv.Key(s * slotGap)
			if at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = fr.Checkpoint(at); err != nil {
			t.Fatal(err)
		}
		pol := RebalancePolicy{MinOps: 150, HotFactor: 1.6, DrainBudget: 20 * vtime.Millisecond}
		if _, _, _, at, err = fr.AutoRebalance(at, pol); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		fresh := make([]int, slots)
		inserted := 0
		for i := 0; i < ops; i++ {
			hot := 0
			switch {
			case i >= 2*ops/3:
				hot = 11
			case i >= ops/3:
				hot = 6
			}
			s := rng.Intn(slots)
			if rng.Float64() < 0.8 {
				s = hot*stripe + rng.Intn(stripe)
			}
			k := kv.Key(s * slotGap)
			if rng.Float64() < 0.5 && fresh[s] < slotGap-1 {
				fresh[s]++
				k += kv.Key(fresh[s])
				at, err = fr.Insert(at, kv.Record{Key: k, Value: fmVal(k)})
				inserted++
			} else {
				_, _, at, err = fr.Search(at, k)
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			if i%every == every-1 {
				if _, _, _, at, err = fr.AutoRebalance(at, pol); err != nil {
					t.Fatalf("seed %d poll: %v", seed, err)
				}
			}
		}
		st := fr.Stats()
		if st.MigratedKeys > ops {
			t.Errorf("seed %d: migrated %d keys serving %d ops", seed, st.MigratedKeys, ops)
		}
		rules := fr.Routing().Rules()
		for j, r := range rules {
			for _, p := range rules[:j] {
				if p.From == r.To && p.To == r.From && p.Lo < r.Hi && r.Lo < p.Hi {
					t.Errorf("seed %d: rule %+v sends back what rule %+v moved", seed, r, p)
				}
			}
		}
		if got, want := fr.Count(), int64(slots+inserted); got != want {
			t.Fatalf("seed %d: Count() = %d, want %d", seed, got, want)
		}
		if err := fr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %d migrations, %d keys, %d rules, makespan %.1f ms", seed, st.Migrations, st.MigratedKeys, len(rules), at.Millis())
	}
}

// TestAutoRebalanceScanFaultIsNoMove: an I/O fault that fails the planning
// scan of a move, before anything is logged or routed, is "no move this
// tick" for the poll loop: moved is false, the error is nil and the
// routing epoch is unchanged. Once the device answers again the next
// poll moves the hot range.
func TestAutoRebalanceScanFaultIsNoMove(t *testing.T) {
	fr, space := newFaultForestCfg(t, RetryPolicy{Disabled: true}, HealPolicy{}, EvacuationPolicy{})
	at := fmBaseline(t, fr)
	pol := RebalancePolicy{MinOps: 100, HotFactor: 1.5}
	poll := func() bool {
		t.Helper()
		moved, _, _, done, err := fr.AutoRebalance(at, pol)
		if err != nil {
			t.Fatalf("AutoRebalance: %v", err)
		}
		at = vtime.Max(at, done)
		return moved
	}
	hammer := func() {
		for _, k := range append(fmShardKeys(0), fmShardKeys(0)...) {
			var err error
			if _, _, at, err = fr.Search(at, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	poll() // open the window
	hammer()
	epoch := fr.Stats().RoutingEpoch
	pl := fmInstall(t, space, "transient file=shard0")
	if poll() {
		t.Fatal("a move committed through a failing scan")
	}
	if pl.Stats().Transient == 0 {
		t.Fatal("the fault never fired: the poll planned no move")
	}
	st := fr.Stats()
	if st.RoutingEpoch != epoch || st.Migrations != 0 || st.MigrationActive || st.MigrationAborts != 0 {
		t.Fatalf("after the failed scan: %+v, want routing epoch %d and no migration", st, epoch)
	}
	if q := fr.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v, want none", q)
	}
	space.SetInjector(nil)
	hammer()
	if !poll() {
		t.Fatal("no move after the device came back")
	}
	if fr.Stats().RoutingEpoch == epoch {
		t.Fatal("the committed move did not advance the routing epoch")
	}
	fmCheckKeys(t, fr, at, append(fmShardKeys(0), fmShardKeys(1)...))
	if err := fr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
