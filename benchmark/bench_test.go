package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func smokeOptions() options {
	return options{seed: 1, seconds: defaultSeconds, smoke: true}
}

// fingerprint renders everything about a run that must repeat exactly:
// the sim numbers and every layer counter. The real-goroutine phase of
// read_par interleaves freely, so its counters (the "after" reading) are
// left out there.
func fingerprint(w *workload, r *run) string {
	var b strings.Builder
	sims := simValues(r)
	keys := make([]string, 0, len(sims))
	for k := range sims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v\n", k, sims[k])
	}
	fmt.Fprintf(&b, "before=%+v\n", r.before)
	if !w.par {
		fmt.Fprintf(&b, "after=%+v\nspace_amp=%v rules=%d epoch=%d\n", r.after, r.spaceAmp, r.rules, r.epoch)
	}
	fmt.Fprintf(&b, "attempted=%d failed=%d\n", r.attempted, r.failed)
	return b.String()
}

// TestWorkloadsRepeatExactly runs every workload twice at smoke scale: no
// op may fail, and sim numbers and counters must be byte-identical.
func TestWorkloadsRepeatExactly(t *testing.T) {
	sc := smokeOptions().scale()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var prints [2]string
			for i := range prints {
				r, err := runWorkload(w, sc, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() {
					t.Fatalf("incorrect run: failed=%d first=%q check=%q", r.failed, r.firstFail, r.checkErr)
				}
				prints[i] = fingerprint(w, r)
			}
			if prints[0] != prints[1] {
				t.Errorf("two runs of seed 1 differ:\n--- first\n%s--- second\n%s", prints[0], prints[1])
			}
		})
	}
}

// TestTracedRun checks, on every workload, that the recording injector is
// free on the simulated clock (measure compares the sim numbers of the
// traced and the untraced run), that every declared metric is emitted, and
// that each workload leaves alone what it is meant to bypass.
func TestTracedRun(t *testing.T) {
	var pr probeSet
	layer := map[string]values{}
	for _, w := range workloads {
		res, err := measure(w, smokeOptions(), true, true, &pr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct {
			t.Errorf("%s: %v", w.name, res.problems)
		}
		for _, m := range endToEnd {
			if v, ok := res.e2e[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, m.name, v)
			}
		}
		if len(res.layer) != len(perLayer) {
			t.Errorf("%s: %d per-layer values for %d declared metrics", w.name, len(res.layer), len(perLayer))
		}
		for _, m := range perLayer {
			if _, ok := res.layer[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, m.name)
			}
		}
		layer[w.name] = res.layer
	}
	zero := func(x float64) bool { return x == 0 }
	positive := func(x float64) bool { return x > 0 }
	for _, c := range []struct {
		workload, metric string
		ok               func(float64) bool
		want             string
	}{
		{"read_point", "tree.flushes_per_kop", zero, "0"},
		{"read_point", "ssdio.wal_calls_per_kop", zero, "0"},
		{"read_point", "bufferpool.hit_ratio", func(x float64) bool { return x < 0.5 }, "< 0.5"},
		{"mixed_hot", "bufferpool.hit_ratio", func(x float64) bool { return x > 0.95 }, "> 0.95"},
		{"scan_batch", "tree.flushes_per_kop", zero, "0"},
		{"scan_batch", "forest.pending_end", positive, "> 0"},
		{"write_wal", "wal.truncated_mb", positive, "> 0"},
		{"write_wal", "recover.log_mb_scanned", positive, "> 0"},
		{"rebalance_drift", "control.polls", positive, "> 0"},
		{"rebalance_drift", "control.migrations", positive, "> 0"},
		{"read_par", "forest.par_speedup", positive, "> 0"},
	} {
		if x := layer[c.workload][c.metric]; !c.ok(x) {
			t.Errorf("%s %s = %v, want %s", c.workload, c.metric, x, c.want)
		}
	}
	for name, v := range layer {
		if name != "rebalance_drift" && v["control.polls"] != 0 {
			t.Errorf("%s polled the control plane %v times", name, v["control.polls"])
		}
	}
}

// TestDurabilityTail checks the crash tail loses something, and only
// unsynced writes (runTail counts anything else as a failed op).
func TestDurabilityTail(t *testing.T) {
	sc := smokeOptions().scale()
	r, err := runWorkload(workloadByName("write_wal"), sc, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("incorrect run: failed=%d first=%q check=%q", r.failed, r.firstFail, r.checkErr)
	}
	if r.tail.lost == 0 {
		t.Errorf("the crash lost none of the %d unsynced writes: the tail does not test durability", sc.tailWrites)
	}
	if r.tail.lost+r.tail.survived != sc.tailWrites {
		t.Errorf("lost %d + survived %d != %d tail writes", r.tail.lost, r.tail.survived, sc.tailWrites)
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the code's vocabulary
// in step: names, units, directions, workloads, budget, entry point.
func TestBenchmarkJSONAgrees(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", bf.RunSeconds, defaultSeconds)
	}
	strip := func(ms []benchMetric) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{m.Name, m.Unit, m.Better}
		}
		return out
	}
	if got := strip(bf.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, endToEnd)
	}
	if got := strip(bf.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", got, perLayer)
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if _, err := os.Stat("run.sh"); err != nil {
		t.Errorf("the command's script: %v", err)
	}
}

// TestInputsAreSeeded checks the generator: one seed, one input; another
// seed, another input; no key inserted twice.
func TestInputsAreSeeded(t *testing.T) {
	sc := smokeOptions().scale()
	for _, w := range workloads {
		a, b, c := generate(w, sc, 1), generate(w, sc, 1), generate(w, sc, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations of seed 1 differ", w.name)
		}
		if reflect.DeepEqual(a.meas, c.meas) {
			t.Errorf("%s: seeds 1 and 2 give the same measured ops", w.name)
		}
		seen := map[uint64]bool{}
		for _, streams := range [][][]op{a.warm, a.meas, a.par, {a.tail}} {
			for _, s := range streams {
				for _, o := range s {
					if !o.kind.isWrite() {
						continue
					}
					if seen[o.key] {
						t.Fatalf("%s: key %d written twice", w.name, o.key)
					}
					seen[o.key] = true
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread statistic to the pipeline's:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
