// Scenarios: walk through the adaptive multi-tenant scenario engine.
//
// A scenario is a phased traffic program played against a live forest on
// one continuous virtual timeline: tenants with different stripes, mixes
// and skews share the per-phase op budget, the forest is built with the
// leaf segments and OPQ budget the paper's eq.-(10) tuner picks for the
// first phase's mix, and an adaptation thread periodically rebalances
// hot shards (Forest.AutoRebalance).
//
// This example first runs a small custom scenario built from scratch —
// a two-phase hotspot flip with a crash-restart — then replays the named
// CI suite (diurnal, skewdrift, burstcrash) at a reduced scale and
// prints each per-phase trajectory table.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flashsim"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

func main() {
	// --- 1. A custom scenario from scratch ------------------------------
	//
	// Two tenants split the key domain. In phase one, "left" dominates;
	// in phase two the roles flip AND the forest crash-restarts first, so
	// the flipped traffic lands on a WAL-recovered forest. The engine
	// verifies recovery preserved every committed key.
	custom := scenario.Scenario{
		Name:    "flip",
		Title:   "Hotspot flip across a crash-restart",
		Stripes: 2,
		Adapt: scenario.Adapt{
			Interval: 5 * vtime.Millisecond,
			Policy:   core.RebalancePolicy{MinOps: 100, HotFactor: 1.5},
		},
		Phases: []scenario.Phase{
			{Name: "left-heavy", Tenants: []scenario.Tenant{
				{Name: "left", Stripe: 0, Weight: 9, InsertRatio: 0.6, ZipfS: 1.2},
				{Name: "right", Stripe: 1, Weight: 1, InsertRatio: 0.1},
			}},
			{Name: "right-heavy", CrashRestart: true, Tenants: []scenario.Tenant{
				{Name: "left", Stripe: 0, Weight: 1, InsertRatio: 0.1},
				{Name: "right", Stripe: 1, Weight: 9, InsertRatio: 0.6, ZipfS: 1.2},
			}},
		},
	}
	cfg := scenario.Config{
		Device:         flashsim.Iodrive(),
		InitialEntries: 12_000,
		OpsPerPhase:    1_200,
		MemBytes:       8 * 1024,
		Seed:           7,
	}
	res, err := scenario.Run(custom, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom scenario %q: %d phases, makespan %.1fms\n",
		res.Scenario, len(res.Phases), res.End.Millis())
	for _, pr := range res.Phases {
		fmt.Printf("  %-12s %5d ops  %6.1f kops/s  p99 %8.1fus  %d migrations",
			pr.Name, pr.Ops, pr.KopsPerSec, pr.P99US, pr.Migrations)
		if pr.RedoneEntries > 0 {
			fmt.Printf("  (recovered: %d WAL entries replayed)", pr.RedoneEntries)
		}
		fmt.Println()
	}
	fmt.Printf("  durability: %d keys expected, %d found after crash-restart\n\n",
		res.ExpectedKeys, res.FinalKeys)
	if res.FinalKeys != res.ExpectedKeys {
		log.Fatal("scenario lost keys")
	}

	// --- 2. The named CI suite ------------------------------------------
	//
	// The same three scenarios CI gates (ci/baselines/BENCH_scenario_*),
	// rendered through the bench table the gate consumes. Deterministic:
	// rerunning this example prints byte-identical tables.
	s := bench.QuickScale()
	for _, sc := range scenario.All() {
		tables, err := bench.ScenarioBench(sc, s)
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
	}
}
