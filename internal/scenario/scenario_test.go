package scenario

import (
	"reflect"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func tinyConfig() Config {
	return Config{
		Device:         flashsim.Iodrive(),
		InitialEntries: 8_000,
		OpsPerPhase:    800,
		MemBytes:       8 * 1024,
		Seed:           42,
		Shards:         4,
		Threads:        4,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"no name", Scenario{Stripes: 1, Phases: []Phase{{Name: "p", Tenants: []Tenant{{Weight: 1}}}}}},
		{"no stripes", Scenario{Name: "x", Phases: []Phase{{Name: "p", Tenants: []Tenant{{Weight: 1}}}}}},
		{"no phases", Scenario{Name: "x", Stripes: 1}},
		{"unnamed phase", Scenario{Name: "x", Stripes: 1, Phases: []Phase{{Tenants: []Tenant{{Weight: 1}}}}}},
		{"dup phase", Scenario{Name: "x", Stripes: 1, Phases: []Phase{
			{Name: "p", Tenants: []Tenant{{Weight: 1}}},
			{Name: "p", Tenants: []Tenant{{Weight: 1}}},
		}}},
		{"no tenants", Scenario{Name: "x", Stripes: 1, Phases: []Phase{{Name: "p"}}}},
		{"stripe out of range", Scenario{Name: "x", Stripes: 1, Phases: []Phase{
			{Name: "p", Tenants: []Tenant{{Stripe: 1, Weight: 1}}},
		}}},
		{"bad ratio", Scenario{Name: "x", Stripes: 1, Phases: []Phase{
			{Name: "p", Tenants: []Tenant{{Weight: 1, InsertRatio: 1.5}}},
		}}},
		{"zero weights", Scenario{Name: "x", Stripes: 1, Phases: []Phase{
			{Name: "p", Tenants: []Tenant{{Weight: 0}}},
		}}},
	}
	for _, c := range cases {
		if err := c.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", c.name)
		}
	}
	for _, sc := range All() {
		if err := sc.Validate(); err != nil {
			t.Errorf("named scenario %s invalid: %v", sc.Name, err)
		}
	}
}

func TestNamed(t *testing.T) {
	sc, err := Named("diurnal")
	if err != nil || sc.Name != "diurnal" {
		t.Fatalf("Named(diurnal) = %v, %v", sc.Name, err)
	}
	if _, err := Named("nope"); err == nil {
		t.Fatal("Named accepted an unknown scenario")
	}
}

// TestPhaseOpsFreshKeys checks the generator never re-inserts a loaded or
// previously drawn key, within or across phases.
func TestPhaseOpsFreshKeys(t *testing.T) {
	sc := Diurnal()
	n := 4_000
	recs := makeRecords(n)
	stripes := makeStripes(n, sc.Stripes)
	seen := make(map[uint64]bool)
	for pi, ph := range sc.Phases {
		ops, inserts := phaseOps(ph, stripes, recs, 1_000, 42+int64(pi)*1_000_003)
		if len(ops) != 1_000 {
			t.Fatalf("phase %s: got %d ops", ph.Name, len(ops))
		}
		gotInserts := 0
		for _, op := range ops {
			if op.Kind != workload.OpInsert {
				continue
			}
			gotInserts++
			if op.Rec.Key%16 == 8 {
				t.Fatalf("phase %s: insert collides with loaded key %d", ph.Name, op.Rec.Key)
			}
			if seen[op.Rec.Key] {
				t.Fatalf("phase %s: duplicate fresh key %d", ph.Name, op.Rec.Key)
			}
			seen[op.Rec.Key] = true
		}
		if gotInserts != inserts {
			t.Fatalf("phase %s: reported %d inserts, counted %d", ph.Name, inserts, gotInserts)
		}
	}
}

func makeRecords(n int) []kv.Record {
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{Key: uint64(i)*16 + 8, Value: uint64(i)}
	}
	return recs
}

func makeStripes(n, stripes int) []*stripeState {
	out := make([]*stripeState, stripes)
	for i := range out {
		out[i] = &stripeState{
			lo:        i * n / stripes,
			hi:        (i + 1) * n / stripes,
			nextFresh: make(map[int]uint64),
		}
	}
	return out
}

func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := Run(SkewDrift(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(SkewDrift(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunDiurnalAdapts(t *testing.T) {
	res, err := Run(Diurnal(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("got %d phases", len(res.Phases))
	}
	prev := vtime.Ticks(0)
	for _, pr := range res.Phases {
		if pr.Start != prev {
			t.Fatalf("phase %s starts at %v, previous ended at %v: timeline not continuous", pr.Name, pr.Start, prev)
		}
		if pr.End < pr.Start || pr.Ops == 0 || pr.KopsPerSec <= 0 {
			t.Fatalf("phase %s malformed: %+v", pr.Name, pr)
		}
		if pr.P99US < pr.P95US || pr.MeanUS <= 0 {
			t.Fatalf("phase %s latency summary malformed: %+v", pr.Name, pr)
		}
		prev = pr.End
	}
	if res.FinalKeys != res.ExpectedKeys {
		t.Fatalf("keys: final %d, expected %d", res.FinalKeys, res.ExpectedKeys)
	}
	if res.TunedO == 0 {
		t.Fatal("retuning never produced a recommendation")
	}
}

func TestRunBurstCrashRecovers(t *testing.T) {
	res, err := Run(BurstCrash(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var restart *PhaseResult
	for i := range res.Phases {
		if res.Phases[i].Name == "restart" {
			restart = &res.Phases[i]
		}
	}
	if restart == nil {
		t.Fatal("no restart phase in result")
	}
	if restart.RedoneEntries == 0 {
		t.Fatalf("restart phase replayed nothing: %+v", restart)
	}
	if res.FinalKeys != res.ExpectedKeys {
		t.Fatalf("crash-restart lost keys: final %d, expected %d", res.FinalKeys, res.ExpectedKeys)
	}
	aged := false
	for _, pr := range res.Phases {
		if pr.Name == "aged" && pr.GCStalls > 0 {
			aged = true
		}
	}
	if !aged {
		t.Fatal("aged phase saw no GC stalls; aging not applied")
	}
}

// TestRunRebalances checks skewdrift actually triggers migrations: the
// whole point of the scenario is a hotspot the rebalancer must chase.
func TestRunRebalances(t *testing.T) {
	res, err := Run(SkewDrift(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations == 0 {
		t.Fatal("skewdrift triggered no migrations")
	}
	if res.RoutingEpoch == 0 {
		t.Fatal("routing epoch never advanced")
	}
}

// TestRunChaosAbsorbsFaults checks the chaos scenario's fault program
// actually fires and is fully absorbed by retry/backoff: retries are
// recorded, no retry budget runs dry (Run fails outright if a shard ends
// quarantined), and no committed key is lost.
func TestRunChaosAbsorbsFaults(t *testing.T) {
	res, err := Run(Chaos(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultProgram == "" {
		t.Fatal("chaos run resolved no fault program")
	}
	if res.IORetries == 0 {
		t.Fatal("fault program injected nothing: no transient retries recorded")
	}
	if res.IORetriesExhausted != 0 {
		t.Fatalf("%d retry budgets exhausted; chaos probabilities are meant to stay below exhaustion", res.IORetriesExhausted)
	}
	if res.FinalKeys != res.ExpectedKeys {
		t.Fatalf("chaos run lost keys: final %d, expected %d", res.FinalKeys, res.ExpectedKeys)
	}
	var restart bool
	for _, pr := range res.Phases {
		if pr.RedoneEntries > 0 {
			restart = true
		}
	}
	if !restart {
		t.Fatal("chaos run never crash-restarted")
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(Scenario{}, tinyConfig()); err == nil {
		t.Fatal("Run accepted an invalid scenario")
	}
	cfg := tinyConfig()
	cfg.OpsPerPhase = 0
	if _, err := Run(Diurnal(), cfg); err == nil {
		t.Fatal("Run accepted a zero op budget")
	}
	cfg = tinyConfig()
	cfg.InitialEntries = 10
	if _, err := Run(Diurnal(), cfg); err == nil {
		t.Fatal("Run accepted too few entries for the stripe count")
	}
}

// TestRunHealthyScenariosNeverDegrade holds every scenario but blackout
// to the self-healing floors: no shard is evacuated, auto-healed, probed
// or timed out by the watchdog, no op is rejected, no uncommitted insert
// is lost, and every committed key is served at the end. Chaos injects
// transient faults, which retry/backoff must absorb without any of that
// machinery firing.
func TestRunHealthyScenariosNeverDegrade(t *testing.T) {
	for _, sc := range []Scenario{Diurnal(), SkewDrift(), BurstCrash(), Chaos()} {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				got  int64
			}{
				{"evacuations", res.Evacuations},
				{"auto-heals", res.AutoHeals},
				{"heal probes", res.HealProbes},
				{"watchdog timeouts", res.WatchdogTimeouts},
				{"rejected ops", int64(res.Rejected)},
				{"uncommitted losses", res.LostUncommitted},
			} {
				if c.got != 0 {
					t.Errorf("%s: %d, want 0", c.name, c.got)
				}
			}
			if res.FinalKeys != res.ExpectedKeys {
				t.Errorf("keys: final %d, expected %d", res.FinalKeys, res.ExpectedKeys)
			}
		})
	}
}

// TestRunBlackoutEvacuates checks the self-healing gauntlet end to end:
// the dead WAL quarantines its shard, heal probes run but cannot
// re-admit it, the evacuation deadline trips and the adaptation loop
// streams the committed range to healthy shards, and the run ends with
// the shard evacuated — no shard left quarantined, every committed key
// served, and the degraded window's rejections counted.
func TestRunBlackoutEvacuates(t *testing.T) {
	res, err := Run(Blackout(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evacuations == 0 {
		t.Fatalf("blackout run committed no evacuation: %+v", res)
	}
	if res.EvacuatedChunks == 0 {
		t.Fatal("evacuation streamed no chunks")
	}
	if res.HealProbes == 0 {
		t.Fatal("no heal probes issued against the quarantined shard")
	}
	if res.AutoHeals != 0 {
		t.Fatalf("a permanently dead WAL auto-healed %d times", res.AutoHeals)
	}
	if res.Rejected == 0 {
		t.Fatal("no writes were rejected during the degraded window")
	}
	if res.LostUncommitted < 0 {
		t.Fatalf("negative uncommitted loss %d", res.LostUncommitted)
	}
	// The run's own invariants already bound LostUncommitted by the OPQ
	// budget and require FinalKeys to cover everything else.
	if res.FinalKeys+res.LostUncommitted != res.ExpectedKeys {
		t.Fatalf("accounting broken: final %d + lost %d != expected %d",
			res.FinalKeys, res.LostUncommitted, res.ExpectedKeys)
	}
}

// TestRunBlackoutDeterministic double-runs blackout: degraded-mode
// rejections, evacuation scheduling and the healing counters must all be
// byte-deterministic like every other scenario.
func TestRunBlackoutDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := Run(Blackout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Blackout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two blackout runs diverged:\n%+v\n%+v", a, b)
	}
}
