package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// Layer probes: timed direct calls into one layer's public functions on a
// stand-alone instance, reported ReportAllocs-style. They say what a layer
// costs when nothing above it runs, which is what a per-op host number is
// decomposed against (driver.host_explained_frac).

// probeTimer accumulates the timed sections of a probe body, like
// testing.B's StartTimer/StopTimer.
type probeTimer struct {
	t0            time.Time
	m0            runtime.MemStats
	ns            int64
	allocs, bytes uint64
}

func (t *probeTimer) start() {
	runtime.ReadMemStats(&t.m0)
	t.t0 = time.Now()
}

func (t *probeTimer) stop() {
	t.ns += int64(time.Since(t.t0))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.allocs += m.Mallocs - t.m0.Mallocs
	t.bytes += m.TotalAlloc - t.m0.TotalAlloc
}

// resume/pause bracket a timed section by the clock alone, for probes that
// must prepare state before every call (reading the allocation counters
// stops the world, too heavy to do per call).
func (t *probeTimer) resume() { t.t0 = time.Now() }
func (t *probeTimer) pause()  { t.ns += int64(time.Since(t.t0)) }

// probeResult is per call.
type probeResult struct{ ns, allocs, bytes float64 }

// probeBody makes n calls, bracketing the ones that count with
// tm.start/tm.stop (or resume/pause).
type probeBody func(n int, tm *probeTimer) error

// runProbe grows n until the timed sections fill the budget, and reports
// the last (longest) round.
func runProbe(budget time.Duration, body probeBody) (probeResult, error) {
	for n := 1; ; {
		var tm probeTimer
		if err := body(n, &tm); err != nil {
			return probeResult{}, err
		}
		if time.Duration(tm.ns) >= budget || n >= 1<<24 {
			f := float64(n)
			return probeResult{ns: float64(tm.ns) / f, allocs: float64(tm.allocs) / f, bytes: float64(tm.bytes) / f}, nil
		}
		grow := 100.0
		if tm.ns > 0 {
			grow = 1.2 * float64(budget) / float64(tm.ns)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 1.5 {
			grow = 1.5
		}
		n = int(float64(n)*grow) + 1
	}
}

// probeSet holds every probe's result by name.
type probeSet map[string]probeResult

// probeRig is the stand-alone instances the probes call into. Trees and
// forests hold one shard's worth of the run's records in the run's shard
// configuration; the read probes get instances no probe writes to.
type probeRig struct {
	n      int // records per tree
	opqCap int // entries in a shard's OPQ
	r      rng
	at     vtime.Ticks // the probes' one simulated timeline

	dev   *flashsim.Device
	space *ssdio.Space
	files []*ssdio.File
	pf    *pagefile.PageFile
	buf   []byte

	tree, wtree *core.Tree   // read-only, written
	one, wone   *core.Forest // the same as one-shard forests

	scratch []string // log files of the round in progress
	serial  int
}

// rawPages is the page range the raw I/O probes address.
const rawPages = 4000

func newProbeRig(sc scale) (*probeRig, error) {
	p := &probeRig{n: sc.n / sc.shards, opqCap: opqPages / sc.shards * pageSize / kv.EntrySize,
		r: rng{s: 12}, buf: make([]byte, 64*pageSize)}
	p.dev = flashsim.MustDevice(deviceProfile())
	p.space = ssdio.NewSpace(p.dev)
	for i := 0; i < 8; i++ {
		f, err := p.space.Create(fmt.Sprintf("raw-%d", i), rawPages*pageSize)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	var err error
	if p.pf, err = p.newPagefile("pages", rawPages*pageSize); err != nil {
		return nil, err
	}
	p.pf.AllocRun(rawPages)
	cfg := core.Config{PageSize: pageSize, LeafSegs: leafSegs, OPQPages: opqPages / sc.shards, PioMax: pioMax,
		SPeriod: speriod, BCnt: bcnt, BufferBytes: (256 << 10) / sc.shards, CPUPerNode: cpuPerNode}
	recs := make([]kv.Record, p.n)
	for i := range recs {
		k := loadedKey(i)
		recs[i] = kv.Record{Key: k, Value: valueOf(k)}
	}
	for i, t := range []**core.Tree{&p.tree, &p.wtree} {
		pf, err := p.newPagefile(fmt.Sprintf("tree-%d", i), 4<<20)
		if err != nil {
			return nil, err
		}
		if *t, err = core.New(pf, cfg); err != nil {
			return nil, err
		}
		if err = (*t).BulkLoad(recs); err != nil {
			return nil, err
		}
	}
	for i, f := range []**core.Forest{&p.one, &p.wone} {
		pf, err := p.newPagefile(fmt.Sprintf("forest-%d", i), 4<<20)
		if err != nil {
			return nil, err
		}
		if *f, err = core.NewForest([]*pagefile.PageFile{pf}, core.ForestConfig{Shard: cfg}); err != nil {
			return nil, err
		}
		if err = (*f).BulkLoad(recs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *probeRig) newPagefile(name string, size int64) (*pagefile.PageFile, error) {
	f, err := p.space.Create(name, size)
	if err != nil {
		return nil, err
	}
	return pagefile.New(f, pageSize)
}

// newLog creates a log on a scratch file; dropScratch forgets the scratch
// files made so far, so a long probe does not pile up dead file images.
func (p *probeRig) newLog() (*wal.Log, error) {
	p.serial++
	name := fmt.Sprintf("log-%d", p.serial)
	f, err := p.space.Create(name, 1<<20)
	if err != nil {
		return nil, err
	}
	p.scratch = append(p.scratch, name)
	return wal.NewLog(f, pageSize)
}

func (p *probeRig) dropScratch() error {
	for _, name := range p.scratch {
		if err := p.space.Remove(name); err != nil {
			return err
		}
	}
	p.scratch = p.scratch[:0]
	return nil
}

func (p *probeRig) pageOff() int64 { return int64(p.r.intn(rawPages)) * pageSize }

func (p *probeRig) pageBuf(i int) []byte { return p.buf[i*pageSize : (i+1)*pageSize] }

// keySeq hands out insert keys in the gaps between a tree's loaded keys.
// After 14 passes over the slots it wraps and repeats keys, which costs an
// OPQ append the same.
type keySeq struct{ next uint64 }

func (s *keySeq) take(n int) uint64 {
	s.next++
	slot, gap := s.next%uint64(n), s.next/uint64(n)
	return slot*slotStride + gapOffsets[gap%uint64(len(gapOffsets))]
}

func redo(i int) wal.Record {
	return wal.Record{Kind: wal.KindLogicalRedo, Key: uint64(i), Value: uint64(i)}
}

// runProbes times every probe for about budget each.
func runProbes(sc scale, budget time.Duration) (probeSet, error) {
	p, err := newProbeRig(sc)
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		body probeBody
	}{
		{"flashsim.submit1", p.submit(1)},
		{"flashsim.submit64", p.submit(64)},
		{"ssdio.sync", p.psync(1, 1, flashsim.Read)},
		{"ssdio.psync64", p.psync(1, 64, flashsim.Read)},
		{"ssdio.gang8x8", p.psync(8, 8, flashsim.Write)},
		{"pagefile.readrun4", p.readRun4},
		{"pagefile.psyncwrite16", p.psyncWrite16},
		{"bufferpool.get_hit", p.poolGet(16)},
		{"bufferpool.get_miss", p.poolGet(1)},
		{"wal.append", p.walAppend},
		{"wal.force", p.force(1)},
		{"wal.forcegroup8", p.force(8)},
		{"wal.records", p.walRecords},
		{"tree.search", p.treeSearch},
		{"tree.searchmany64", p.treeSearchMany},
		{"tree.range100", p.treeRange},
		{"tree.flushbatch", p.flushBatch()},
		{"vtime.sched_step", schedStep},
		{"kv.sort_records", sortRecords},
		{"costmodel.calibrate", calibrate},
		{"costmodel.tuneforest", tuneForest(sc)},
	}
	out := probeSet{}
	for _, s := range steps {
		r, err := runProbe(budget, s.body)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", s.name, err)
		}
		out[s.name] = r
	}

	// Forest.X - Tree.X on one shard, same keys, in alternating blocks.
	_, over, err := pairProbe(budget, p.searchBlock(p.tree.Search), p.searchBlock(p.one.Search))
	if err != nil {
		return nil, fmt.Errorf("probe forest.search_overhead: %w", err)
	}
	out["forest.search_overhead"] = probeResult{ns: over}
	treeNs, over, err := pairProbe(budget,
		p.insertBlock(p.wtree.Insert, p.wtree.OPQLen, func(t vtime.Ticks) (vtime.Ticks, error) { return p.wtree.FlushBatch(t, bcnt) }),
		p.insertBlock(p.wone.Insert, p.wone.Pending, p.wone.Flush))
	if err != nil {
		return nil, fmt.Errorf("probe forest.insert_overhead: %w", err)
	}
	out["tree.insert"] = probeResult{ns: treeNs}
	out["forest.insert_overhead"] = probeResult{ns: over}
	return out, nil
}

func (p *probeRig) submit(batch int) probeBody {
	reqs := make([]flashsim.Request, batch)
	return func(n int, tm *probeTimer) error {
		tm.start()
		for i := 0; i < n; i++ {
			for j := range reqs {
				reqs[j] = flashsim.Request{Op: flashsim.Read, Offset: p.pageOff(), Size: pageSize}
			}
			_, p.at = p.dev.Submit(p.at, reqs)
		}
		tm.stop()
		return nil
	}
}

// psync probes one blocking ssdio call: Sync (1x1), Psync (1 x per) or
// PsyncGang (files x per).
func (p *probeRig) psync(files, per int, op flashsim.Op) probeBody {
	batches := make([]ssdio.GangBatch, files)
	for i := range batches {
		batches[i] = ssdio.GangBatch{F: p.files[i], Reqs: make([]ssdio.Req, per)}
	}
	return func(n int, tm *probeTimer) error {
		tm.start()
		defer tm.stop()
		for i := 0; i < n; i++ {
			for _, b := range batches {
				for j := range b.Reqs {
					b.Reqs[j] = ssdio.Req{Op: op, Off: p.pageOff(), Buf: p.pageBuf(j)}
				}
			}
			var err error
			switch {
			case files > 1:
				p.at, err = ssdio.PsyncGang(p.at, batches)
			case per > 1:
				p.at, err = p.files[0].Psync(p.at, batches[0].Reqs)
			default:
				p.at, err = p.files[0].Sync(p.at, batches[0].Reqs[0])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func (p *probeRig) readRun4(n int, tm *probeTimer) error {
	tm.start()
	defer tm.stop()
	for i := 0; i < n; i++ {
		var err error
		if p.at, err = p.pf.ReadRun(p.at, pagefile.PageID(p.r.intn(rawPages-4)), 4, p.buf[:4*pageSize]); err != nil {
			return err
		}
	}
	return nil
}

func (p *probeRig) psyncWrite16(n int, tm *probeTimer) error {
	ids, bufs := make([]pagefile.PageID, 16), make([][]byte, 16)
	for i := range bufs {
		bufs[i] = p.pageBuf(i)
	}
	tm.start()
	defer tm.stop()
	for i := 0; i < n; i++ {
		for j := range ids {
			ids[j] = pagefile.PageID(p.r.intn(rawPages))
		}
		var err error
		if p.at, err = p.pf.PsyncWrite(p.at, ids, bufs); err != nil {
			return err
		}
	}
	return nil
}

// poolGet probes Pool.Get over two pages: with 16 frames every call after
// the first two hits, with one frame every call misses.
func (p *probeRig) poolGet(frames int) probeBody {
	return func(n int, tm *probeTimer) error {
		pool, err := bufferpool.New(p.pf, frames, bufferpool.WriteThrough)
		if err != nil {
			return err
		}
		tm.start()
		defer tm.stop()
		for i := 0; i < n; i++ {
			_, done, err := pool.Get(p.at, pagefile.PageID(i&1))
			if err != nil {
				return err
			}
			p.at = done
		}
		return nil
	}
}

// walAppend appends in bursts of 64 and drops the tail in between, as a
// force would: the tail's backing array is warm, as in a running log.
func (p *probeRig) walAppend(n int, tm *probeTimer) error {
	l, err := p.newLog()
	if err != nil {
		return err
	}
	tm.start()
	for i := 0; i < n; i++ {
		l.Append(redo(i))
		if i%64 == 63 {
			l.Crash()
		}
	}
	tm.stop()
	return p.dropScratch()
}

// force probes one Force (logs == 1) or one ForceGroup over several logs,
// each with eight redo records to make durable. Only the force is timed.
func (p *probeRig) force(logs int) probeBody {
	return func(n int, tm *probeTimer) error {
		var ls []*wal.Log
		for i := 0; i < n; i++ {
			if i%256 == 0 { // fresh files before these outgrow their 1 MB
				if err := p.dropScratch(); err != nil {
					return err
				}
				ls = ls[:0]
				for j := 0; j < logs; j++ {
					l, err := p.newLog()
					if err != nil {
						return err
					}
					ls = append(ls, l)
				}
			}
			for _, l := range ls {
				for k := 0; k < 8; k++ {
					l.Append(redo(k))
				}
			}
			var err error
			tm.resume()
			if logs == 1 {
				p.at, err = ls[0].Force(p.at)
			} else {
				p.at, _, err = wal.ForceGroup(p.at, ls)
			}
			tm.pause()
			if err != nil {
				return err
			}
		}
		return p.dropScratch()
	}
}

// passes is how many whole passes over a fixed-size input cover n units;
// chargePasses rescales the timer to exactly n of them.
func passes(n, per int) int { return (n + per - 1) / per }

func (t *probeTimer) chargePasses(n, per int) {
	t.ns = t.ns * int64(n) / int64(passes(n, per)*per)
}

// walRecords decodes a durable log of 4096 records, n records in all.
func (p *probeRig) walRecords(n int, tm *probeTimer) error {
	const logRecs = 4096
	l, err := p.newLog()
	if err != nil {
		return err
	}
	for i := 0; i < logRecs; i++ {
		l.Append(redo(i))
	}
	if p.at, err = l.Force(p.at); err != nil {
		return err
	}
	tm.start()
	for i := passes(n, logRecs); i > 0; i-- {
		recs, err := l.Records()
		if err != nil {
			return err
		}
		if len(recs) != logRecs {
			return fmt.Errorf("decoded %d of %d records", len(recs), logRecs)
		}
	}
	tm.stop()
	tm.chargePasses(n, logRecs)
	return p.dropScratch()
}

func (p *probeRig) treeSearch(n int, tm *probeTimer) error {
	tm.start()
	defer tm.stop()
	for i := 0; i < n; i++ {
		_, ok, done, err := p.tree.Search(p.at, loadedKey(p.r.intn(p.n)))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("loaded key not found")
		}
		p.at = done
	}
	return nil
}

func (p *probeRig) treeSearchMany(n int, tm *probeTimer) error {
	keys := make([]kv.Key, manyKeys)
	tm.start()
	defer tm.stop()
	for i := 0; i < n; i++ {
		for j := range keys {
			keys[j] = loadedKey(p.r.intn(p.n))
		}
		m, done, err := p.tree.SearchMany(p.at, keys)
		if err != nil {
			return err
		}
		if len(m) == 0 {
			return fmt.Errorf("batch search found nothing")
		}
		p.at = done
	}
	return nil
}

func (p *probeRig) treeRange(n int, tm *probeTimer) error {
	tm.start()
	defer tm.stop()
	for i := 0; i < n; i++ {
		lo := p.r.intn(p.n - shortRange)
		recs, done, err := p.tree.RangeSearch(p.at, uint64(lo)*slotStride, uint64(lo+shortRange)*slotStride)
		if err != nil {
			return err
		}
		if len(recs) != shortRange {
			return fmt.Errorf("range returned %d records, want %d", len(recs), shortRange)
		}
		p.at = done
	}
	return nil
}

// flushBatch fills the written tree's OPQ with fresh inserts, then times
// one FlushBatch of it.
func (p *probeRig) flushBatch() probeBody {
	var keys keySeq
	return func(n int, tm *probeTimer) error {
		for i := 0; i < n; i++ {
			for p.wtree.OPQLen() < p.opqCap-1 {
				k := keys.take(p.n)
				done, err := p.wtree.Insert(p.at, kv.Record{Key: k, Value: valueOf(k)})
				if err != nil {
					return err
				}
				p.at = done
			}
			tm.resume()
			done, err := p.wtree.FlushBatch(p.at, bcnt)
			tm.pause()
			if err != nil {
				return err
			}
			p.at = done
		}
		return nil
	}
}

func schedStep(n int, tm *probeTimer) error {
	ths := make([]*vtime.Thread, 8)
	for i := range ths {
		left := n/len(ths) + 1
		ths[i] = &vtime.Thread{ID: i, Step: func(t *vtime.Thread) bool {
			t.Clock.Advance(vtime.Microsecond)
			left--
			return left > 0
		}}
	}
	s := vtime.NewScheduler(ctxSwitch, ths...)
	tm.start()
	s.Run()
	tm.stop()
	return nil
}

// sortRecords sorts what RangeSearch sorts for a long range: eight
// key-sorted runs, one per shard, concatenated; n records in all.
func sortRecords(n int, tm *probeTimer) error {
	const runs, per = 8, longRange / 8
	recs := make([]kv.Record, runs*per)
	for i := passes(n, len(recs)); i > 0; i-- {
		for j := range recs {
			recs[j] = kv.Record{Key: uint64(j%per*runs + j/per)}
		}
		tm.resume()
		kv.SortRecords(recs)
		tm.pause()
	}
	tm.chargePasses(n, len(recs))
	return nil
}

func calibrate(n int, tm *probeTimer) error {
	tm.start()
	defer tm.stop()
	for i := 0; i < n; i++ {
		costmodel.Calibrate(flashsim.MustDevice(deviceProfile()), pageSize, 16, pioMax, 8)
	}
	return nil
}

func tuneForest(sc scale) probeBody {
	return func(n int, tm *probeTimer) error {
		dp := costmodel.Calibrate(flashsim.MustDevice(deviceProfile()), pageSize, 16, pioMax, 8)
		tp := costmodel.TreeParams{N: float64(sc.n), F: float64(pageSize / kv.RecordSize), U: 0.7, Ri: 0.5, Rs: 0.5,
			M: float64(256 << 10 / pageSize), OPQEntriesPerPage: float64(pageSize / kv.EntrySize)}
		tm.start()
		defer tm.stop()
		for i := 0; i < n; i++ {
			if _, err := costmodel.TuneForest(tp, dp, bcnt, 16, 64, sc.shards); err != nil {
				return err
			}
		}
		return nil
	}
}

// block runs some calls of one variant and returns how many and how long.
type block func() (calls int, elapsed time.Duration, err error)

// pairProbe times two variants of one call in alternating blocks, so
// whatever disturbs the machine disturbs both, and returns a's cost per
// call and b's excess over it.
func pairProbe(budget time.Duration, a, b block) (aNs, excess float64, err error) {
	var ta, tb time.Duration
	var na, nb int
	for ta+tb < 2*budget {
		n, d, err := a()
		if err != nil {
			return 0, 0, err
		}
		na, ta = na+n, ta+d
		if n, d, err = b(); err != nil {
			return 0, 0, err
		}
		nb, tb = nb+n, tb+d
	}
	aNs = float64(ta) / float64(na)
	return aNs, float64(tb)/float64(nb) - aNs, nil
}

type searchFn = func(vtime.Ticks, kv.Key) (kv.Value, bool, vtime.Ticks, error)

// searchBlock searches 256 keys of a sequence that is the same for every
// variant.
func (p *probeRig) searchBlock(search searchFn) block {
	r := rng{s: 56}
	return func() (int, time.Duration, error) {
		const calls = 256
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_, _, done, err := search(p.at, loadedKey(r.intn(p.n)))
			if err != nil {
				return 0, 0, err
			}
			p.at = done
		}
		return calls, time.Since(t0), nil
	}
}

type insertFn = func(vtime.Ticks, kv.Record) (vtime.Ticks, error)

// insertBlock times the inserts that fill a shard-sized OPQ to one short
// of full, then flushes it off the clock: the cost of an insert that does
// not pay for a flush (tree.flushbatch_us is the flush).
func (p *probeRig) insertBlock(insert insertFn, pending func() int, flush func(vtime.Ticks) (vtime.Ticks, error)) block {
	var keys keySeq
	return func() (int, time.Duration, error) {
		calls := 0
		t0 := time.Now()
		for pending() < p.opqCap-1 {
			k := keys.take(p.n)
			done, err := insert(p.at, kv.Record{Key: k, Value: valueOf(k)})
			if err != nil {
				return 0, 0, err
			}
			p.at = done
			calls++
		}
		elapsed := time.Since(t0)
		done, err := flush(p.at)
		if err != nil {
			return 0, 0, err
		}
		p.at = done
		return calls, elapsed, nil
	}
}

// probeBudget is how long each probe runs: long enough to be stable when
// probes are what was asked for, short when they ride along a traced run.
func probeBudget(standalone bool) time.Duration {
	if standalone {
		return time.Second
	}
	return 30 * time.Millisecond
}
