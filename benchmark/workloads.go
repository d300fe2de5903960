package main

import "repro/internal/vtime"

// Generation phases.
const (
	phaseWarm = iota
	phaseMeasure
	phaseTail
)

// scale is the size of one run. Op counts are a fixed function of the
// -seconds budget (rate x seconds), not of the clock, so a run's inputs —
// and with them every sim number and counter — repeat exactly for a seed.
type scale struct {
	n          int     // loaded records
	shards     int     // range partitions
	threads    int     // simulated closed-loop clients
	goroutines int     // real goroutines of read_par
	seconds    float64 // budget the op counts are sized for
	syncEvery  int     // writes between Forest.Sync calls
	tailWrites int     // unsynced writes before the crash
	setupReps  int     // set-ups per run; setup_s is their median
}

func fullScale(seconds float64, goroutines int) scale {
	return scale{n: 1_000_000, shards: 8, threads: 8, goroutines: goroutines, seconds: seconds,
		syncEvery: 1000, tailWrites: 2000, setupReps: 3}
}

// smokeScale keeps every workload under two seconds: tier-1 runs it.
func smokeScale(goroutines int) scale {
	return scale{n: 256_000, shards: 8, threads: 8, goroutines: goroutines, seconds: 0.1,
		syncEvery: 100, tailWrites: 300, setupReps: 1}
}

// workload is one named input mix with the stack it runs on.
type workload struct {
	name string
	why  string
	// rate is measured client ops per second of budget, sized at the
	// commit that introduced the benchmark so a measured phase fills about
	// the budget on the 2-core sandbox. It is part of the input definition:
	// changing it changes every sim number.
	rate      int
	poolBytes int  // global buffer-pool budget
	wal       bool // per-shard write-ahead logs
	syncs     bool // Forest.Sync every scale.syncEvery writes
	ckpts     bool // Forest.Checkpoint every eighth of the measured phase
	tail      bool // durability tail: unsynced writes, Crash, Recover, verify
	rebalance bool // a ninth simulated thread polls AutoRebalance
	par       bool // real goroutines after a single-goroutine slice
	zipfS     float64
	gen       func(g *genCtx, phase, t, step int, frac float64) op
}

func (w *workload) measuredOps(sc scale) int {
	// Whole multiples of 288 split evenly over 8 clients, over read_par's
	// slice third, and over 1 to 4 goroutines, whatever nproc is.
	const unit = 288
	n := int(float64(w.rate)*sc.seconds) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// warmExtra is scan_batch's write warm-up: enough uniform inserts to leave
// every shard's OPQ about half full (2 pages per shard, 17-byte entries).
func (w *workload) warmExtra(sc scale) int {
	if w.name != "scan_batch" {
		return 0
	}
	const opqPagesPerShard, pageSize, entrySize = 2, 2048, 17
	half := opqPagesPerShard * pageSize / entrySize / 2
	return half * sc.shards / sc.threads
}

// The AutoRebalance policy of rebalance_drift: the repo's SkewDrift
// scenario policy, polled every 10 ms of simulated time.
const (
	pollInterval    = 10 * vtime.Millisecond
	pollMinOps      = 150
	pollHotFactor   = 1.6
	pollDrainBudget = 20 * vtime.Millisecond
)

func genReadPoint(g *genCtx, _, t, _ int, _ float64) op {
	return op{kind: opSearch, key: loadedKey(g.uniformSlot(t))}
}

// genWriteWAL is 80/10/10 insert/update/delete with one op in twenty
// replaced by a search: four in five of a uniform loaded key (one in twelve
// of which an update or delete has touched by the end), one in five a
// read-back of the thread's own recent write, still in its OPQ. The reads
// give the workload a read latency to report and check the write path
// while it runs, without exercising the search path in earnest.
func genWriteWAL(g *genCtx, phase, t, _ int, _ float64) op {
	r := g.stream[t]
	if phase != phaseTail && r.float() < 0.05 {
		if k, ok := g.rings[t].pick(r); ok && r.float() < 0.2 {
			return op{kind: opSearch, key: k}
		}
		return op{kind: opSearch, key: loadedKey(g.uniformSlot(t))}
	}
	switch u := r.float(); {
	case u < 0.8:
		return g.insertAt(t, g.uniformSlot(t))
	case u < 0.9:
		k := loadedKey(g.walk.next())
		g.rings[t].push(k)
		return op{kind: opUpdate, key: k, val: valueOf(k) | 1<<63}
	default:
		k := loadedKey(g.walk.next())
		g.rings[t].push(k)
		return op{kind: opDelete, key: k}
	}
}

func genMixedHot(g *genCtx, _, t, _ int, _ float64) op {
	r := g.stream[t]
	if r.float() < 0.5 {
		return g.insertAt(t, g.uniformSlot(t))
	}
	if r.float() < 0.1 {
		if k, ok := g.rings[t].pick(r); ok {
			return op{kind: opSearch, key: k}
		}
	}
	return op{kind: opSearch, key: loadedKey(g.zipfSlot(t))}
}

const (
	shortRange = 100
	longRange  = 5000
	manyKeys   = 64
)

func genScanBatch(g *genCtx, phase, t, step int, _ float64) op {
	r := g.stream[t]
	if phase == phaseWarm && step < g.warmInserts {
		return g.insertAt(t, g.uniformSlot(t))
	}
	rangeOf := func(n int) op {
		if n > g.sc.n/2 {
			n = g.sc.n / 2
		}
		lo := r.intn(g.sc.n - n)
		return op{kind: opRange, key: uint64(lo) * slotStride, val: uint64(lo+n) * slotStride}
	}
	switch u := r.float(); {
	case u < 0.8:
		return rangeOf(shortRange)
	case u < 0.9:
		return rangeOf(longRange)
	default:
		off := len(g.many)
		for i := 0; i < manyKeys; i++ {
			// One key in sixteen is a warm-up insert still sitting in an
			// OPQ, so the batch path's overlay lookup is exercised too.
			if k, ok := g.rings[t].pick(r); ok && i%16 == 0 {
				g.many = append(g.many, k)
				continue
			}
			g.many = append(g.many, loadedKey(r.intn(g.sc.n)))
		}
		return op{kind: opMany, key: uint64(off), val: manyKeys}
	}
}

// genRebalanceDrift puts 80 % of the traffic in one sixteenth of the key
// space; the stripe jumps 0 -> 6 -> 11 at one and two thirds of the
// measured phase (the warm-up heats stripe 0).
func genRebalanceDrift(g *genCtx, phase, t, _ int, frac float64) op {
	r := g.stream[t]
	stripe := 0
	if phase == phaseMeasure {
		switch {
		case frac >= 2.0/3:
			stripe = 11
		case frac >= 1.0/3:
			stripe = 6
		}
	}
	slot := r.intn(g.sc.n)
	if r.float() < 0.8 {
		w := g.sc.n / 16
		slot = stripe*w + r.intn(w)
	}
	if r.float() < 0.5 {
		return g.insertAt(t, slot)
	}
	return op{kind: opSearch, key: loadedKey(slot)}
}

// workloads lists the six mixes. Names are part of BENCHMARK.json; the
// why strings are printed with every run.
var workloads = []*workload{
	{
		name: "read_point", rate: 60_000, poolBytes: 16 << 10, gen: genReadPoint,
		why: "uniform point searches with a pool smaller than the internal level: routing, descent, pool miss, decode, sync read; bypasses OPQ flush, WAL, gangs, control plane",
	},
	{
		name: "write_wal", rate: 32_000, poolBytes: 256 << 10, wal: true, syncs: true, ckpts: true, tail: true, gen: genWriteWAL,
		why: "80/10/10 insert/update/delete with per-shard WAL, periodic Sync and Checkpoint, then a crash tail: OPQ, batch flush, two-phase group commit, gangs, log force and truncation, recovery",
	},
	{
		name: "mixed_hot", rate: 50_000, poolBytes: 256 << 10, wal: true, syncs: true, zipfS: 1.1, gen: genMixedHot,
		why: "half zipf searches, half fresh inserts, pool holds the internal level: reads wait behind flush horizons and share the device with write gangs, so a gain on one path that taxes the other shows",
	},
	{
		name: "scan_batch", rate: 1_700, poolBytes: 256 << 10, gen: genScanBatch,
		why: "short and long range scans plus 64-key batch searches over half-full OPQs: prange, MPSearch, per-call maps, sort merges, overlay merge; bypasses point search and flush",
	},
	{
		name: "rebalance_drift", rate: 11_000, poolBytes: 256 << 10, wal: true, rebalance: true, gen: genRebalanceDrift,
		why: "a hot stripe that jumps twice while a ninth thread polls AutoRebalance: chunk streaming, routing over a growing rule list, migration log forces; the only workload the control plane runs in",
	},
	{
		name: "read_par", rate: 50_000, poolBytes: 16 << 10, par: true, gen: genReadPoint,
		why: "read_point's data and key law on real goroutines after a single-goroutine slice: the only real concurrency, so shard and device mutexes show; sim numbers come from the slice",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
