// Package bench regenerates every table and figure of the paper's
// evaluation (Sections 2 and 4) on the simulated substrate. Each FigN
// function returns a Table whose rows mirror the series the paper plots;
// cmd/pioexp and the root-level testing.B benchmarks print them.
//
// Scaling: the paper loads 1G entries (>8GB) with a 16MB buffer pool and
// runs 5-10M operations per experiment. The simulator is fast but the
// experiments here default to a proportional scale-down (see Scale) that
// preserves N/M (and thus the buffered height η) and the op-to-data
// ratios. README.md ("Running the figure benchmarks") lists the commands
// and the flags that override the scale.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one regenerated figure or table.
type Table struct {
	// ID names the paper artifact, e.g. "fig9".
	ID string
	// Title describes the experiment.
	Title string
	// Header labels the columns; Rows hold formatted cells.
	Header []string
	Rows   [][]string
	// Notes carry scaling factors and observations.
	Notes []string
	// Metrics are named scalar results (higher is better) extracted for
	// machine consumption: the CI bench-trend gate compares them against
	// a checked-in baseline. Simulated time is deterministic, so the
	// values are stable across machines.
	Metrics map[string]float64 `json:",omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Scale bundles the experiment scale knobs.
type Scale struct {
	// InitialEntries is the bulk-loaded tree size (paper: 1e9).
	InitialEntries int
	// Ops is the per-experiment operation count (paper: 5e6 or 1e7).
	Ops int
	// MemBytes is the total main-memory budget (paper: 16MB).
	MemBytes int
	// Seed fixes workload generation.
	Seed int64
	// Shards fixes the forest shard count for the shard-scaling
	// experiment; 0 sweeps a preset ladder.
	Shards int
	// Threads fixes the simulated thread count for concurrency
	// experiments that accept it; 0 uses each experiment's preset.
	Threads int
	// Faults, when non-empty, is a faultio fault program installed on
	// the I/O plane of experiments that support injection (the scenario
	// suite), overriding any program the scenario itself declares.
	Faults string
}

// DefaultScale keeps the paper's N/M ratio (1e9·16B data : 16MB buffer ≈
// 1000:1) at laptop size: 200k entries (3.2MB of records) with a 16KB
// budget, and 20k ops per run.
func DefaultScale() Scale {
	return Scale{
		InitialEntries: 200_000,
		Ops:            20_000,
		MemBytes:       16 * 1024,
		Seed:           42,
	}
}

// QuickScale is a fast smoke-test scale for unit tests.
func QuickScale() Scale {
	return Scale{
		InitialEntries: 20_000,
		Ops:            2_000,
		MemBytes:       8 * 1024,
		Seed:           42,
	}
}

// Registry maps experiment ids to runners, for cmd/pioexp.
type Runner func(s Scale) ([]Table, error)

var registry = map[string]Runner{}

// Register adds an experiment runner (called from init functions).
func Register(id string, r Runner) { registry[id] = r }

// Run executes the registered experiment.
func Run(id string, s Scale) ([]Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return r(s)
}

// IDs lists registered experiments.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
