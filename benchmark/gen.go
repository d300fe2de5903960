package main

import (
	"math"
	"math/bits"
	"sort"
)

// The benchmark owns its input generator: a splitmix64 stream and a
// table-driven zipf sampler. Nothing here depends on internal/workload or
// math/rand, so a later edit to either cannot change what the engine is
// asked to do for a given -seed.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n) (multiply-shift, no modulo bias
// worth the name at these n).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fork derives an independent stream (per thread, per phase).
func (r *rng) fork() *rng { return &rng{s: r.next()} }

// zipf samples ranks 0..n-1 with P(rank) proportional to 1/(rank+1)^s by
// inverting a precomputed CDF: exact, and independent of any library's
// rejection constants.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Key layout. Loaded record i has key 16*i+8; the 14 other residues of a
// slot are gaps that fresh inserts fill, so an insert never collides with a
// loaded key or with another insert.
const (
	slotStride = 16
	loadedOff  = 8
)

var gapOffsets = [14]uint64{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}

func loadedKey(slot int) uint64 { return uint64(slot)*slotStride + loadedOff }

// valueOf is the value every record is first written with; updates flip
// the top bit, so a stale read is distinguishable from a fresh one.
func valueOf(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> 1 }

// freshKeys hands out never-used keys near a requested slot.
type freshKeys struct{ used []uint8 }

func newFreshKeys(n int) *freshKeys { return &freshKeys{used: make([]uint8, n)} }

func (f *freshKeys) take(slot int) uint64 {
	for f.used[slot] == uint8(len(gapOffsets)) {
		slot = (slot + 1) % len(f.used)
	}
	k := uint64(slot)*slotStride + gapOffsets[f.used[slot]]
	f.used[slot]++
	return k
}

// slotWalk visits every slot exactly once in a scattered order (a
// multiplicative walk; the stride is coprime to every n of the form
// 2^a*5^b*..., which covers the scales used here). Updates and deletes draw
// their targets from it, so no loaded key is mutated twice and the order in
// which simulated threads reach their ops cannot change an op's meaning.
type slotWalk struct{ n, pos, i int }

const walkStride = 7_368_787 // prime

func newSlotWalk(n int, start uint64) *slotWalk {
	return &slotWalk{n: n, pos: int(start % uint64(n))}
}

func (w *slotWalk) next() int {
	if w.i >= w.n {
		panic("benchmark: slot walk exhausted: more updates+deletes than loaded keys")
	}
	s := w.pos
	w.pos = int((uint64(w.pos) + walkStride) % uint64(w.n))
	w.i++
	return s
}

// ring remembers a thread's most recent writes so a later op of the same
// thread can read them back (same thread, so always after the write).
type ring struct {
	keys [32]uint64
	n    int
}

func (r *ring) push(k uint64) { r.keys[r.n%len(r.keys)] = k; r.n++ }

func (r *ring) pick(g *rng) (uint64, bool) {
	if r.n == 0 {
		return 0, false
	}
	m := r.n
	if m > len(r.keys) {
		m = len(r.keys)
	}
	return r.keys[g.intn(m)], true
}

// opKind is what the driver asks the forest to do.
type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opUpdate
	opDelete
	opRange // [key, val)
	opMany  // keys many[key : key+val]
	opSync
	opCheckpoint
	opPoll
	numOpKinds
)

var opNames = [numOpKinds]string{"search", "insert", "update", "delete", "range", "many", "sync", "checkpoint", "poll"}

func (k opKind) isWrite() bool { return k == opInsert || k == opUpdate || k == opDelete }

// op is one pre-generated request.
type op struct {
	kind opKind
	key  uint64
	val  uint64
}

// inputs is everything the engine will be asked to do in one run.
type inputs struct {
	warm   [][]op // per simulated client
	meas   [][]op
	par    [][]op // read_par: per real goroutine
	tail   []op   // write_wal: unsynced writes before the crash
	many   []uint64
	nWarm  int
	nMeas  int
	counts [numOpKinds]int // measured ops by kind
}

// genCtx is the state a workload's generator draws from.
type genCtx struct {
	sc     scale
	fresh  *freshKeys
	walk   *slotWalk
	zipf   *zipf
	rings  []ring
	many   []uint64
	stream []*rng
	// warmInserts is scan_batch's per-thread write warm-up length.
	warmInserts int
}

func (g *genCtx) uniformSlot(t int) int { return g.stream[t].intn(g.sc.n) }

func (g *genCtx) insertAt(t, slot int) op {
	k := g.fresh.take(slot)
	g.rings[t].push(k)
	return op{kind: opInsert, key: k, val: valueOf(k)}
}

// zipfPermStride scatters zipf ranks over the slot space so the hot keys
// are spread over every shard.
const zipfPermStride = 15_485_863 // prime

func (g *genCtx) zipfSlot(t int) int {
	rank := g.zipf.sample(g.stream[t].float())
	return int(uint64(rank) * zipfPermStride % uint64(g.sc.n))
}

// generate builds a workload's inputs. Ops are drawn step by step across
// threads (step 0 of every thread, then step 1, ...) so the shared
// allocators are consumed in an order that does not depend on run length
// per thread.
func generate(w *workload, sc scale, seed uint64) *inputs {
	root := &rng{s: seed*0x9E3779B97F4A7C15 + uint64(len(w.name))}
	g := &genCtx{sc: sc, fresh: newFreshKeys(sc.n), walk: newSlotWalk(sc.n, root.next()), warmInserts: w.warmExtra(sc)}
	if w.zipfS > 0 {
		g.zipf = newZipf(sc.n, w.zipfS)
	}
	nStreams := sc.threads
	if w.par && sc.goroutines > nStreams {
		nStreams = sc.goroutines
	}
	g.rings = make([]ring, nStreams)
	for i := 0; i < nStreams; i++ {
		g.stream = append(g.stream, root.fork())
	}
	in := &inputs{}
	fill := func(phase, perThread, threads int) [][]op {
		out := make([][]op, threads)
		for t := range out {
			out[t] = make([]op, perThread)
		}
		for s := 0; s < perThread; s++ {
			frac := float64(s) / float64(perThread)
			for t := 0; t < threads; t++ {
				out[t][s] = w.gen(g, phase, t, s, frac)
			}
		}
		return out
	}
	measOps := w.measuredOps(sc)
	perMeas := measOps / sc.threads
	perWarm := (perMeas + 8) / 9 // warm-up is the first 10 % of all ops
	if w.par {
		// One third of the budget is the single-goroutine slice that gives
		// the sim numbers and the speed-up base; the rest runs in parallel.
		perMeas = measOps / 3 / sc.threads
		perPar := (measOps - perMeas*sc.threads) / sc.goroutines
		in.warm = fill(phaseWarm, perWarm, sc.threads)
		in.meas = fill(phaseMeasure, perMeas, sc.threads)
		in.par = fill(phaseMeasure, perPar, sc.goroutines)
	} else {
		in.warm = fill(phaseWarm, perWarm+w.warmExtra(sc), sc.threads)
		in.meas = fill(phaseMeasure, perMeas, sc.threads)
	}
	if w.tail {
		in.tail = fill(phaseTail, sc.tailWrites, 1)[0]
	}
	in.nWarm = len(in.warm[0]) * sc.threads
	in.nMeas = perMeas * sc.threads
	in.many = g.many
	for _, s := range in.meas {
		for _, o := range s {
			in.counts[o.kind]++
		}
	}
	for _, s := range in.par {
		for _, o := range s {
			in.counts[o.kind]++
		}
	}
	return in
}
