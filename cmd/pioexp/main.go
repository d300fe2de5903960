// Command pioexp regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	pioexp -list
//	pioexp -exp fig9 [-n 200000] [-ops 20000] [-mem 16384] [-csv]
//	pioexp -exp all -quick
//
// Output rows mirror the series the paper plots; all times are simulated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (or 'all')")
		list    = flag.Bool("list", false, "list experiment ids")
		n       = flag.Int("n", 0, "initial entries (default: scale preset)")
		ops     = flag.Int("ops", 0, "operations per run (default: scale preset)")
		mem     = flag.Int("mem", 0, "memory budget bytes (default: scale preset)")
		seed    = flag.Int64("seed", 42, "workload seed")
		quick   = flag.Bool("quick", false, "use the quick (smoke-test) scale")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonDir = flag.String("json", "", "also write each experiment's tables as BENCH_<id>.json into this directory (ci/baselines holds the checked-in ones)")
		shards  = flag.Int("shards", 0, "forest shard count (default: sweep a preset ladder)")
		threads = flag.Int("threads", 0, "simulated threads for concurrency experiments (default: preset)")
		faults  = flag.String("faults", "", "fault program for experiments that support injection, e.g. 'transient call=psync p=0.002'")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:", strings.Join(bench.IDs(), " "))
		if *exp == "" {
			os.Exit(0)
		}
	}
	s := bench.DefaultScale()
	if *quick {
		s = bench.QuickScale()
	}
	if *n > 0 {
		s.InitialEntries = *n
	}
	if *ops > 0 {
		s.Ops = *ops
	}
	if *mem > 0 {
		s.MemBytes = *mem
	}
	s.Seed = *seed
	if *shards > 0 {
		s.Shards = *shards
	}
	if *threads > 0 {
		s.Threads = *threads
	}
	s.Faults = *faults

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	for _, id := range ids {
		tables, err := bench.Run(id, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pioexp: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, id, tables); err != nil {
				fmt.Fprintf(os.Stderr, "pioexp: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
}

// writeJSON dumps an experiment's tables (header, rows and notes, all
// strings) as BENCH_<id>.json. Fields marshal in declaration order, so
// two runs of a deterministic experiment write byte-identical files:
// ci/check_baselines.sh compares the nine checked-in ones with cmp.
func writeJSON(dir, id string, tables []bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+id+".json")
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
