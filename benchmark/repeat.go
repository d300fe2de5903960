package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkFile finds BENCHMARK.json from the repository root or from
// this directory.
func readBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(x, n=4)
// does (the exclusive method), which is what the pipeline applies.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// repeatRuns runs every selected workload o.repeat times, each time on the
// next seed, and prints min / median / max of every end-to-end metric with
// its spread: the distance between the quartiles as a share of the median,
// the statistic the pipeline holds against the metric's bound. Sim numbers
// differ between seeds because the inputs do; that two runs of one seed
// agree exactly is bench_test.go's job.
func repeatRuns(sel []*workload, o options) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return fmt.Errorf("reading the bounds: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	over := 0
	for _, w := range sel {
		series := map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			oi := o
			oi.seed = o.seed + uint64(i)
			res, err := measure(w, oi, true, false, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, oi.seed, err)
			}
			if !res.correct {
				res.print(w.name)
				return fmt.Errorf("%s seed %d: incorrect result", w.name, oi.seed)
			}
			for k, x := range res.e2e {
				series[k] = append(series[k], x)
			}
		}
		for _, m := range endToEnd {
			xs := series[m.name]
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			med := median(xs)
			spread := 0.0
			if len(xs) >= 2 {
				q1, q3 := quartiles(xs)
				spread = div(q3-q1, med)
			}
			flag := ""
			if m.name != "setup_s" && spread > bounds[m.name] {
				flag = "  SPREAD EXCEEDS BOUND"
				over++
			}
			fmt.Printf("%s %s min %.6g median %.6g max %.6g %s spread %.4f bound %.4f%s\n",
				w.name, m.name, s[0], med, s[len(s)-1], m.unit, spread, bounds[m.name], flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", over)
	}
	return nil
}
