package bench

import (
	"fmt"

	"repro/internal/flashsim"
	"repro/internal/scenario"
)

// ScenarioBench runs one named scenario at the given scale and renders
// its per-phase trajectory as a table. Scale.Ops is the whole-run budget,
// split evenly across the scenario's phases.
func ScenarioBench(sc scenario.Scenario, s Scale) ([]Table, error) {
	cfg := scenario.Config{
		Device:         flashsim.Iodrive(),
		InitialEntries: s.InitialEntries,
		OpsPerPhase:    s.Ops / len(sc.Phases),
		MemBytes:       s.MemBytes,
		Seed:           s.Seed,
		Shards:         s.Shards,
		Threads:        s.Threads,
		FaultProgram:   s.Faults,
	}
	if cfg.OpsPerPhase < 1 {
		cfg.OpsPerPhase = 1
	}
	res, err := scenario.Run(sc, cfg)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "scenario_" + sc.Name,
		Title: sc.Title,
		Header: []string{"phase", "ops", "inserts", "kops/s", "mean(us)", "p95(us)", "p99(us)",
			"migrations", "moved keys", "gc stalls", "io retries",
			"rejected", "probes", "heals", "evac chunks", "wd timeouts", "redone", "recover(ms)"},
	}
	for _, pr := range res.Phases {
		t.AddRow(pr.Name,
			fmt.Sprintf("%d", pr.Ops),
			fmt.Sprintf("%d", pr.Inserts),
			fmt.Sprintf("%.1f", pr.KopsPerSec),
			fmt.Sprintf("%.1f", pr.MeanUS),
			fmt.Sprintf("%.1f", pr.P95US),
			fmt.Sprintf("%.1f", pr.P99US),
			fmt.Sprintf("%d", pr.Migrations),
			fmt.Sprintf("%d", pr.MigratedKeys),
			fmt.Sprintf("%d", pr.GCStalls),
			fmt.Sprintf("%d", pr.IORetries),
			fmt.Sprintf("%d", pr.Rejected),
			fmt.Sprintf("%d", pr.HealProbes),
			fmt.Sprintf("%d", pr.AutoHeals),
			fmt.Sprintf("%d", pr.EvacuatedChunks),
			fmt.Sprintf("%d", pr.WatchdogTimeouts),
			fmt.Sprintf("%d", pr.RedoneEntries),
			fmt.Sprintf("%.2f", pr.RecoverMS),
		)
	}
	if res.FaultProgram != "" {
		t.Notes = append(t.Notes,
			fmt.Sprintf("fault program: %q; %d transient retries absorbed (%d budgets exhausted)",
				res.FaultProgram, res.IORetries, res.IORetriesExhausted))
	}
	if res.Evacuations > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("self-healing: %d probes, %d auto-heals, %d evacuations streamed %d chunks; %d ops rejected while degraded, %d uncommitted tail inserts lost",
				res.HealProbes, res.AutoHeals, res.Evacuations, res.EvacuatedChunks, res.Rejected, res.LostUncommitted))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d shards, %d threads, %d entries loaded, %d ops/phase",
			res.Shards, res.Threads, cfg.InitialEntries, cfg.OpsPerPhase),
		fmt.Sprintf("makespan %.1fms; %d migrations moved %d keys; routing epoch %d",
			res.End.Millis(), res.TotalMigrations, res.TotalMigratedKeys, res.RoutingEpoch),
		fmt.Sprintf("eq.-(10) tune: L=%d, global O=%d", res.TunedL, res.TunedO),
		fmt.Sprintf("durability check: %d keys expected, %d found", res.ExpectedKeys, res.FinalKeys),
	)
	return []Table{t}, nil
}

func init() {
	for _, sc := range scenario.All() {
		sc := sc
		registerFaulted("scenario_"+sc.Name, func(s Scale) ([]Table, error) {
			return ScenarioBench(sc, s)
		})
	}
}
