package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flashsim"
	"repro/internal/vtime"
)

// Named returns the scenario registered under name.
func Named(name string) (Scenario, error) {
	for _, sc := range All() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q", name)
}

// All returns the named scenario suite in a fixed order.
func All() []Scenario {
	return []Scenario{Diurnal(), SkewDrift(), BurstCrash(), Chaos(), Blackout()}
}

// adaptEvery is the default adaptation poll period: long enough that a
// poll sees a meaningful op-count delta, short enough that every phase
// gets several polls even at the CI quick scale.
const adaptEvery = 4 * vtime.Millisecond

// Diurnal is a day in four phases over four tenants: traffic weight
// rotates from the batch loader (night) through the interactive apps
// (morning, peak) to analytics (evening), and the insert-heavy mix of
// the night flips to search-heavy at peak. AutoRebalance must chase the
// load rotation on a forest tuned once, for the night's mix.
func Diurnal() Scenario {
	// The four tenants; weights vary per phase, character stays fixed.
	loader := func(w float64) Tenant {
		return Tenant{Name: "loader", Stripe: 0, Weight: w, InsertRatio: 0.9}
	}
	app1 := func(w float64) Tenant {
		return Tenant{Name: "app1", Stripe: 1, Weight: w, InsertRatio: 0.2, ZipfS: 1.2}
	}
	app2 := func(w float64) Tenant {
		return Tenant{Name: "app2", Stripe: 2, Weight: w, InsertRatio: 0.3, ZipfS: 1.1}
	}
	analytics := func(w float64) Tenant {
		return Tenant{Name: "analytics", Stripe: 3, Weight: w, InsertRatio: 0.05}
	}
	return Scenario{
		Name:    "diurnal",
		Title:   "Diurnal four-tenant load rotation",
		Stripes: 4,
		Adapt: Adapt{
			Interval: adaptEvery,
			Policy:   core.RebalancePolicy{MinOps: 100, HotFactor: 1.5},
		},
		Phases: []Phase{
			{Name: "night", Tenants: []Tenant{loader(8), app1(1), app2(1), analytics(2)}},
			{Name: "morning", Tenants: []Tenant{loader(1), app1(5), app2(3), analytics(1)}},
			{Name: "peak", Tenants: []Tenant{loader(0.5), app1(6), app2(6), analytics(0.5)}},
			{Name: "evening", Tenants: []Tenant{loader(2), app1(2), app2(2), analytics(6)}},
		},
	}
}

// SkewDrift keeps the mix constant but walks a dominant tenant's hotspot
// across the key domain: the heavy tenant sits on stripe 0, then 2, then
// 5. Each move strands the routing balance AutoRebalance just built, so
// the rebalancer must chase the hotspot with fresh migrations — the
// per-phase Migrations metric is the point of the scenario.
func SkewDrift() Scenario {
	heavy := func(stripe int) Tenant {
		return Tenant{Name: "heavy", Stripe: stripe, Weight: 8, InsertRatio: 0.5, ZipfS: 1.3}
	}
	bg := func(stripe int) Tenant {
		return Tenant{Name: "bg", Stripe: stripe, Weight: 1, InsertRatio: 0.2}
	}
	return Scenario{
		Name:    "skewdrift",
		Title:   "Dominant-tenant hotspot drifting across the key domain",
		Stripes: 6,
		Adapt: Adapt{
			// Skew throttles throughput, so a poll window must be wider
			// than adaptEvery to accumulate a meaningful op delta.
			Interval: 10 * vtime.Millisecond,
			Policy:   core.RebalancePolicy{MinOps: 150, HotFactor: 1.6},
		},
		Phases: []Phase{
			{Name: "low", Tenants: []Tenant{heavy(0), bg(3)}},
			{Name: "mid", Tenants: []Tenant{heavy(2), bg(5)}},
			{Name: "high", Tenants: []Tenant{heavy(5), bg(1)}},
		},
	}
}

// Chaos replays the diurnal rotation on a fault-injected I/O plane and
// crash-restarts before the final phase, so recovery itself replays
// through the faulty plane. The seeded program transiently fails about
// one WAL force or psync batch in 500 and one gang member in 250 — far
// below the retry budget's exhaustion threshold — so every fault must
// be absorbed by retry/backoff: the run completes with zero quarantined
// shards and no lost key, and the gated metrics price the retry
// overhead.
func Chaos() Scenario {
	sc := Diurnal()
	sc.Name = "chaos"
	sc.Title = "Diurnal rotation under a transient-fault I/O plane"
	sc.Faults = "seed=7; transient call=sync p=0.002; transient call=psync p=0.002; transient call=gang p=0.004"
	sc.Phases[len(sc.Phases)-1].CrashRestart = true
	return sc
}

// Blackout is the self-healing gauntlet: the diurnal rotation loses one
// shard's WAL device permanently mid-run (writes to it fail forever,
// reads keep working — a wear-out or controller fault, not a crash). The
// first failed group-commit force quarantines the shard; auto-heal
// probes reach the device but the force-tail re-admission test keeps
// failing, so the evacuation deadline trips and the adaptation loop
// migrates the shard's committed range to healthy shards. The run must
// end with the dead shard evacuated (capacity lost, availability
// restored): writes rejected during the degraded window are counted and
// gated, every committed key is served, and the final phases' gated
// throughput/latency show the SLA recovering on the surviving shards.
func Blackout() Scenario {
	sc := Diurnal()
	sc.Name = "blackout"
	sc.Title = "Permanent WAL loss mid-diurnal: quarantine, auto-evacuation, SLA recovery"
	// Kill shard 0's WAL early in the run, under the night loader's
	// insert stream: a shard whose stripe writes only now and then can be
	// quarantined and evacuated before a write to it is ever refused.
	// Only the log file dies: the quarantine rollback stays in-memory (no
	// durable FlushStart means no undo writes), so the shard keeps
	// serving reads until evacuated.
	sc.Faults = "readonly file=wal0 from=8ms"
	// A short evacuation deadline (vs the 25ms core default) makes the
	// scenario give up on the dead device while the quick CI scale still
	// has most of the run left to measure the recovered SLA.
	sc.Evacuation = core.EvacuationPolicy{After: 5 * vtime.Millisecond}
	return sc
}

// BurstCrash is the durability gauntlet: cold uniform reads, then a
// write burst concentrated on one stripe, then the same burst on an aged
// device (slower programs, periodic GC stalls on the write path the
// burst's flushes take), and finally a crash-restart with mixed traffic
// on the recovered forest.
// The engine fails the scenario outright if recovery loses a key.
func BurstCrash() Scenario {
	reader := Tenant{Name: "reader", Stripe: 0, Weight: 1, InsertRatio: 0}
	burst := Tenant{Name: "burster", Stripe: 1, Weight: 9, InsertRatio: 0.95}
	return Scenario{
		Name:    "burstcrash",
		Title:   "Write burst over cold reads, device aging, crash-restart",
		Stripes: 2,
		Adapt: Adapt{
			Interval: adaptEvery,
			Policy:   core.RebalancePolicy{MinOps: 100, HotFactor: 1.5},
		},
		Phases: []Phase{
			{Name: "cold", Tenants: []Tenant{reader, {Name: "burster", Stripe: 1, Weight: 1, InsertRatio: 0.1}}},
			{Name: "burst", Tenants: []Tenant{reader, burst}},
			{
				Name:    "aged",
				Tenants: []Tenant{reader, burst},
				Aging: &flashsim.Aging{
					ProgramFactor: 2.5,
					GCEvery:       4,
					GCStall:       1 * vtime.Millisecond,
				},
			},
			{
				Name:         "restart",
				CrashRestart: true,
				Tenants: []Tenant{
					{Name: "reader", Stripe: 0, Weight: 2, InsertRatio: 0},
					{Name: "burster", Stripe: 1, Weight: 3, InsertRatio: 0.4},
				},
			},
		},
	}
}
