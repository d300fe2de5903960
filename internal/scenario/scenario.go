// Package scenario is a deterministic, vtime-driven scenario engine: it
// composes phased, multi-tenant traffic programs — diurnal load swings,
// tenant skew that drifts mid-run, burst writes over cold reads, flash
// aging/GC pressure, crash-restart mid-scenario — and plays them against
// a live core.Forest on one continuous virtual timeline.
//
// Unlike the bench package, whose experiments regenerate the paper's
// fixed-shape figures, a scenario exercises the system's ADAPTATION
// machinery while it serves: the forest is built with the L and O that
// the eq.-(10) tuner (costmodel.TuneForest) picks for the first phase's
// mix, and the engine periodically invokes Forest.AutoRebalance off the
// observed ShardLoads. Per-phase throughput, latency, migration and
// recovery metrics land in a bench.Table-compatible result that CI
// gates against checked-in baselines, so a regression in how the system
// adapts — not just how fast it runs — fails the build.
//
// Everything is virtual time and seeded randomness: two runs of the same
// scenario at the same scale produce bit-identical results.
package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/flashsim"
	"repro/internal/vtime"
)

// Tenant is one traffic source within a phase. Tenants of the same name
// in different phases share fresh-key state (the engine keys generator
// state by stripe), so a tenant's inserts never collide across phases.
type Tenant struct {
	// Name labels the tenant in notes.
	Name string
	// Stripe is the index of the key stripe this tenant's traffic
	// targets (stripes partition the loaded key domain contiguously).
	Stripe int
	// Weight is the tenant's share of the phase's operations, relative
	// to the other tenants' weights.
	Weight float64
	// InsertRatio is the fraction of the tenant's ops that are inserts
	// (fresh keys in its stripe); the rest are point searches.
	InsertRatio float64
	// ZipfS, when > 1, skews the tenant's searches zipfian over its
	// stripe (hot keys); 0 or 1 means uniform.
	ZipfS float64
}

// Phase is one stage of a scenario. Phases run back to back on one
// continuous virtual timeline; vlock horizons, OPQ contents and routing
// state carry across phase boundaries exactly as they would in a
// long-running server.
type Phase struct {
	// Name labels the phase in tables and metric keys (keep it short,
	// lowercase, no spaces).
	Name string
	// Tenants are the phase's traffic sources. The per-phase op budget
	// is split across them by Weight.
	Tenants []Tenant
	// CrashRestart, when set, crashes the forest at the phase start —
	// after a group Sync commit point — and recovers it before the
	// phase's traffic runs. The engine verifies no key was lost.
	CrashRestart bool
	// Aging, when non-nil, is installed on the simulated device at the
	// phase start: programs slow down and GC stalls appear.
	Aging *flashsim.Aging
}

// Adapt configures the engine's adaptation thread, which runs alongside
// the workload threads in virtual time.
type Adapt struct {
	// Interval is the adaptation poll period in virtual time; 0 disables
	// the adaptation thread entirely.
	Interval vtime.Ticks
	// Policy drives Forest.AutoRebalance at each poll. A zero DrainBudget
	// gets the engine's default bound (so a stuck or fault-injected
	// migration cannot freeze the poll loop); a negative one drains
	// unbounded.
	Policy core.RebalancePolicy
}

// Scenario is a named, phased, multi-tenant traffic program.
type Scenario struct {
	// Name identifies the scenario (experiment id "scenario_<Name>").
	Name string
	// Title describes it in table output.
	Title string
	// Stripes is the number of contiguous key stripes tenants address.
	Stripes int
	// Shards is the forest shard count (0: engine default).
	Shards int
	// Threads is the simulated workload thread count (0: engine default).
	Threads int
	// Adapt configures the adaptation loop.
	Adapt Adapt
	// Faults, when non-empty, is a faultio fault program (clauses like
	// "transient call=gang p=0.01", separated by ';' or newlines)
	// installed on the simulated I/O plane after the bulk load, so the
	// injected faults hit live traffic but not setup. A program without
	// an explicit seed is seeded from the run's Config.Seed.
	// Config.FaultProgram overrides it per run.
	Faults string
	// Heal paces the forest's auto-heal prober for quarantined shards
	// (zero value = core defaults).
	Heal core.HealPolicy
	// Evacuation bounds how long a shard may stay quarantined before the
	// adaptation loop's AutoRebalance migrates its range to healthy
	// shards (zero value = core default deadline).
	Evacuation core.EvacuationPolicy
	// Phases run in order.
	Phases []Phase
}

// Validate reports a descriptive error for an unusable scenario.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if sc.Stripes < 1 {
		return fmt.Errorf("scenario %s: Stripes must be >= 1, got %d", sc.Name, sc.Stripes)
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", sc.Name)
	}
	if sc.Faults != "" {
		if _, err := faultio.Parse(sc.Faults); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	seen := make(map[string]bool)
	for _, ph := range sc.Phases {
		if ph.Name == "" {
			return fmt.Errorf("scenario %s: phase with empty name", sc.Name)
		}
		if seen[ph.Name] {
			return fmt.Errorf("scenario %s: duplicate phase %q", sc.Name, ph.Name)
		}
		seen[ph.Name] = true
		if len(ph.Tenants) == 0 {
			return fmt.Errorf("scenario %s: phase %q has no tenants", sc.Name, ph.Name)
		}
		total := 0.0
		for _, tn := range ph.Tenants {
			if tn.Stripe < 0 || tn.Stripe >= sc.Stripes {
				return fmt.Errorf("scenario %s: phase %q tenant %q stripe %d out of range [0,%d)",
					sc.Name, ph.Name, tn.Name, tn.Stripe, sc.Stripes)
			}
			if tn.Weight < 0 || tn.InsertRatio < 0 || tn.InsertRatio > 1 {
				return fmt.Errorf("scenario %s: phase %q tenant %q has invalid weight/ratio",
					sc.Name, ph.Name, tn.Name)
			}
			total += tn.Weight
		}
		if total <= 0 {
			return fmt.Errorf("scenario %s: phase %q tenant weights sum to %v", sc.Name, ph.Name, total)
		}
	}
	return nil
}
