// Command benchmark is the repository's two-clock benchmark: six workloads
// against the sharded PIO forest, reported on the simulated clock (vtime
// ticks: what the modelled SSD and index would take; exact for a seed) and
// on the host clock (what the Go code costs this machine), never mixed in
// one number. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark                         every workload, every metric
//	go run ./benchmark -workload read_point    one workload, end-to-end metrics
//	go run ./benchmark -workload write_wal -trace 1      per-layer metrics
//	go run ./benchmark -workload scan_batch -trace out.jsonl   ... and the spans
//	go run ./benchmark -probes                 the stand-alone layer probes
//	go run ./benchmark -repeat 10              spread of every end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the budget the op counts
// are sized for when -seconds is not given.
const defaultSeconds = 8

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string // "", "0": untraced; "1": traced; else traced and written there
	probes   bool
	repeat   int
	smoke    bool
}

func (o options) traced() bool { return o.trace != "" && o.trace != "0" }

// traceTo is the JSONL path, if -trace named one.
func (o options) traceTo() string {
	if o.traced() && o.trace != "1" {
		return o.trace
	}
	return ""
}

func (o options) scale() scale {
	g := runtime.GOMAXPROCS(0)
	if o.smoke {
		return smokeScale(g)
	}
	return fullScale(o.seconds, g)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all six)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (seed 2 is held out for claims)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "budget the measured op counts are sized for")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics; 1: traced run, per-layer metrics; a path: also write spans there as JSONL")
	flag.BoolVar(&o.probes, "probes", false, "run only the stand-alone layer probes, one second each")
	flag.IntVar(&o.repeat, "repeat", 0, "run N times on consecutive seeds and print min/median/max and spread per end-to-end metric")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny scale (what the tests run)")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g smoke=%v\n",
		runtime.Version(), runtime.NumCPU(), procs, o.seed, o.seconds, o.smoke)

	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	sel := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		sel = []*workload{w}
	}
	switch {
	case o.probes:
		pr, err := runProbes(o.scale(), probeBudget(true))
		if err != nil {
			return err
		}
		printProbes(pr)
		return nil
	case o.repeat > 0:
		return repeatRuns(sel, o)
	}

	// All six: every metric of every workload. One workload: what the
	// pipeline asks for, end-to-end or per-layer, and a JSON result line.
	all := o.workload == ""
	var pr probeSet
	ok := true
	for _, w := range sel {
		fmt.Printf("# %s: %s\n", w.name, w.why)
		res, err := measure(w, o, all || !o.traced(), all || o.traced(), &pr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(w.name)
		ok = ok && res.correct
		if !all {
			if err := res.printJSON(o.traced()); err != nil {
				return err
			}
		}
	}
	if !ok {
		return fmt.Errorf("a result was incorrect (see the 'incorrect' lines above)")
	}
	return nil
}

// result is one workload's reported numbers.
type result struct {
	e2e, layer values
	correct    bool
	attempted  int
	failed     int
	problems   []string
	wallS      float64 // wall time of the untraced measured phase
}

func (res *result) absorb(r *run) {
	res.attempted += r.attempted
	res.failed += r.failed
	if r.firstFail != "" {
		res.problems = append(res.problems, "first failed op: "+r.firstFail)
	}
	if r.checkErr != "" {
		res.problems = append(res.problems, r.checkErr)
	}
}

// measure runs a workload untraced (end-to-end metrics) and, when the
// per-layer metrics are wanted, traced as well, replaying the same inputs:
// the traced run must reproduce every sim number bit for bit.
func measure(w *workload, o options, wantE2E, wantLayer bool, pr *probeSet) (*result, error) {
	sc := o.scale()
	if !wantE2E {
		// The untraced run only serves as the overhead base: one set-up.
		sc.setupReps = 1
	}
	res := &result{}
	un, err := runWorkload(w, sc, o.seed, false)
	if err != nil {
		return nil, err
	}
	res.absorb(un)
	res.wallS = float64(un.sim.host.wallNs) / 1e9
	if un.par != nil {
		res.wallS += float64(un.par.host.wallNs) / 1e9
	}
	if wantE2E {
		res.e2e = e2eValues(un)
	}
	if wantLayer {
		sc.setupReps = 1
		tr, err := runWorkload(w, sc, o.seed, true)
		if err != nil {
			return nil, err
		}
		res.absorb(tr)
		if a, b := simValues(un), simValues(tr); !sameValues(a, b) {
			res.problems = append(res.problems, fmt.Sprintf("traced run changed the sim numbers: untraced %v, traced %v", a, b))
		}
		if *pr == nil {
			if *pr, err = runProbes(sc, probeBudget(false)); err != nil {
				return nil, err
			}
		}
		res.layer = layerValues(sc, un, tr, *pr)
		if path := o.traceTo(); path != "" {
			if err := tr.rec.writeJSONL(path); err != nil {
				return nil, err
			}
		}
	}
	res.correct = res.failed == 0 && len(res.problems) == 0
	return res, nil
}

func sameValues(a, b values) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || x != y {
			return false
		}
	}
	return true
}

func (res *result) print(workload string) {
	for _, set := range []struct {
		defs []metricDef
		v    values
	}{{endToEnd, res.e2e}, {perLayer, res.layer}} {
		if set.v == nil {
			continue
		}
		for _, m := range set.defs {
			fmt.Printf("%s %s %.6g %s\n", workload, m.name, set.v[m.name], m.unit)
		}
	}
	fmt.Printf("# %s: the measured phase took %.2f s of wall clock\n", workload, res.wallS)
	fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n", workload, res.attempted, workload, res.failed)
	for _, p := range res.problems {
		fmt.Printf("%s incorrect: %s\n", workload, p)
	}
}

// printJSON writes the pipeline's result line: the last line of standard
// output.
func (res *result) printJSON(layer bool) error {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, v := endToEnd, res.e2e
	if layer {
		defs, v = perLayer, res.layer
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metricOut{}}
	for _, m := range defs {
		out.Metrics[m.name] = metricOut{v[m.name], m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func printProbes(pr probeSet) {
	names := make([]string, 0, len(pr))
	for n := range pr {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := pr[n]
		fmt.Printf("probe %-24s %12.1f ns/call %10.2f allocs/call %12.1f B/call\n", n, r.ns, r.allocs, r.bytes)
	}
}
