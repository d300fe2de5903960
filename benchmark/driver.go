package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/vtime"
)

// batches is how many equal batches a measured phase is cut into; host
// throughput is read off the median batch, which a neighbour's burst on
// the shared sandbox does not move.
const batches = 50

// batchTimer stamps the clock once per batch of ops.
type batchTimer struct {
	size, left int
	last       time.Time
	ns         []int64
}

func newBatchTimer(ops int) *batchTimer {
	size := ops / batches
	if size < 1 {
		size = 1
	}
	return &batchTimer{size: size, left: size, ns: make([]int64, 0, batches+1)}
}

func (b *batchTimer) start() { b.last = time.Now() }

func (b *batchTimer) tick() {
	b.left--
	if b.left == 0 {
		now := time.Now()
		b.ns = append(b.ns, int64(now.Sub(b.last)))
		b.last, b.left = now, b.size
	}
}

// nsPerOp returns the q-quantile of the per-batch ns/op.
func (b *batchTimer) nsPerOp(q float64) float64 {
	if len(b.ns) == 0 {
		return 0
	}
	s := append([]int64(nil), b.ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[quantileIndex(len(s), q)]) / float64(b.size)
}

// drift is the mean of the last tenth of the batches over the mean of the
// first tenth: above 1, the cost of an op grows with history.
func (b *batchTimer) drift() float64 {
	n := len(b.ns) / 10
	if n == 0 {
		return 0
	}
	var first, last int64
	for i := 0; i < n; i++ {
		first += b.ns[i]
		last += b.ns[len(b.ns)-1-i]
	}
	if first == 0 {
		return 0
	}
	return float64(last) / float64(first)
}

func quantileIndex(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func quantile(lat []vtime.Ticks, q float64) vtime.Ticks {
	if len(lat) == 0 {
		return 0
	}
	s := append([]vtime.Ticks(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[quantileIndex(len(s), q)]
}

// simPhase is what one closed-loop phase on the vtime scheduler measured.
type simPhase struct {
	ops      int
	makespan vtime.Ticks
	readLat  []vtime.Ticks
	writeLat []vtime.Ticks
	timer    *batchTimer
	host     hostDelta
	acked    int // acknowledged writes

	// Control plane (rebalance_drift only).
	polls             int
	pollHostNs        int64
	pollSim           vtime.Ticks
	opsMig, opsSteady int
	simMig, simSteady vtime.Ticks
}

// driver runs one workload once against one stack.
type driver struct {
	wl  *workload
	sc  scale
	st  *stack
	mdl *model
	in  *inputs
	rec *recorder // nil on the untraced run

	attempted int
	failed    int
	firstFail string

	writes    int  // acknowledged writes, for the Sync/Checkpoint cadence
	ckptEvery int  // writes between checkpoints (0: never)
	issued    []op // write_wal: acknowledged writes in execution order
}

func (d *driver) fail(o op, why string) {
	d.failed++
	if d.firstFail == "" {
		d.firstFail = fmt.Sprintf("%s key=%d: %s", opNames[o.kind], o.key, why)
	}
}

// begin opens a span around the forest call about to be made (traced run
// only; no closure, so the untraced path allocates nothing of its own).
func (d *driver) begin(kind opKind, key uint64, at vtime.Ticks) {
	if d.rec == nil {
		return
	}
	shard := -1
	if kind <= opMany {
		shard = d.st.fr.Routing().Shard(key)
	}
	d.rec.begin(kind, shard, at)
}

func (d *driver) end(done vtime.Ticks) {
	if d.rec != nil {
		d.rec.end(done)
	}
}

// exec issues one client op at simulated time at, checks the result
// against the model, and returns the completion time.
func (d *driver) exec(o op, at vtime.Ticks) (vtime.Ticks, bool) {
	d.begin(o.kind, o.key, at)
	done, why := d.do(o, at)
	done = vtime.Max(done, at)
	d.end(done)
	d.attempted++
	if why != "" {
		d.fail(o, why)
	}
	return done, why == ""
}

// do makes the forest call; a non-empty string says why the op failed.
func (d *driver) do(o op, at vtime.Ticks) (vtime.Ticks, string) {
	fr, mdl := d.st.fr, d.mdl
	var done vtime.Ticks
	var err error
	switch o.kind {
	case opSearch:
		var v uint64
		var found bool
		v, found, done, err = fr.Search(at, o.key)
		if err == nil && !mdl.agrees(o.key, v, found) {
			return done, mdl.mismatch(o.key, v, found)
		}
	case opRange:
		var recs []kv.Record
		recs, done, err = fr.RangeSearch(at, o.key, o.val)
		if err == nil && !mdl.checkRange(o.key, o.val, recs) {
			return done, fmt.Sprintf("range [%d,%d) returned %d records the model contradicts", o.key, o.val, len(recs))
		}
	case opMany:
		keys := d.in.many[o.key : o.key+o.val]
		var got map[kv.Key]kv.Value
		got, done, err = fr.SearchMany(at, keys)
		if err == nil {
			for _, k := range keys {
				if v, found := got[k]; !mdl.agrees(k, v, found) {
					return done, fmt.Sprintf("batch key %d: %s", k, mdl.mismatch(k, v, found))
				}
			}
		}
	case opInsert:
		done, err = fr.Insert(at, kv.Record{Key: o.key, Value: o.val})
	case opUpdate:
		done, err = fr.Update(at, kv.Record{Key: o.key, Value: o.val})
	case opDelete:
		done, err = fr.Delete(at, o.key)
	default:
		panic("benchmark: exec of a non-client op")
	}
	if err != nil {
		return done, err.Error()
	}
	if o.kind.isWrite() {
		mdl.apply(o)
	}
	return done, ""
}

// commit runs the periodic Sync / Checkpoint a write may owe, on the
// clock of the client that crossed the boundary.
func (d *driver) commit(clock *vtime.Clock) {
	d.writes++
	fr := d.st.fr
	if d.wl.syncs && d.writes%d.sc.syncEvery == 0 {
		at := clock.Now()
		d.begin(opSync, 0, at)
		done, err := fr.Sync(at)
		d.end(done)
		if err != nil {
			d.fail(op{kind: opSync}, err.Error())
		}
		clock.AdvanceTo(done)
	}
	if d.ckptEvery > 0 && d.writes%d.ckptEvery == 0 {
		at := clock.Now()
		d.begin(opCheckpoint, 0, at)
		done, err := fr.Checkpoint(at)
		d.end(done)
		if err != nil {
			d.fail(op{kind: opCheckpoint}, err.Error())
		}
		clock.AdvanceTo(done)
	}
}

// runSim plays one stream per simulated client under the vtime scheduler,
// closed loop: a client issues its next op when the previous one returned.
// One goroutine drives everything, so counts and sim numbers repeat
// exactly. ph is nil for the warm-up.
func (d *driver) runSim(base vtime.Ticks, streams [][]op, ph *simPhase) vtime.Ticks {
	fr := d.st.fr
	active := len(streams)
	threads := make([]*vtime.Thread, 0, len(streams)+1)
	for i, stream := range streams {
		stream := stream
		step := 0
		th := &vtime.Thread{ID: i, Clock: *vtime.NewClock(base)}
		th.Step = func(t *vtime.Thread) bool {
			if step == len(stream) {
				active--
				return false
			}
			o := stream[step]
			step++
			at := t.Clock.Now()
			done, ok := d.exec(o, at)
			t.Clock.AdvanceTo(done)
			if ph != nil {
				if o.kind.isWrite() {
					ph.writeLat = append(ph.writeLat, done-at)
				} else {
					ph.readLat = append(ph.readLat, done-at)
				}
				if d.wl.rebalance {
					if _, _, mig := fr.Routing().Migrating(); mig {
						ph.opsMig++
						ph.simMig += done - at
					} else {
						ph.opsSteady++
						ph.simSteady += done - at
					}
				}
				ph.timer.tick()
			}
			if ok && o.kind.isWrite() {
				if ph != nil {
					ph.acked++
				}
				if d.wl.tail {
					d.issued = append(d.issued, o)
				}
				d.commit(&t.Clock)
			}
			return true
		}
		threads = append(threads, th)
	}
	clients := threads
	if d.wl.rebalance {
		pol := core.RebalancePolicy{MinOps: pollMinOps, HotFactor: pollHotFactor, DrainBudget: pollDrainBudget}
		th := &vtime.Thread{ID: len(streams), Clock: *vtime.NewClock(base)}
		th.Step = func(t *vtime.Thread) bool {
			if active == 0 {
				return false
			}
			at := t.Clock.Now() + pollInterval
			h0 := time.Now()
			d.begin(opPoll, 0, at)
			_, _, _, done, err := fr.AutoRebalance(at, pol)
			d.end(done)
			if err != nil {
				d.fail(op{kind: opPoll}, err.Error())
			}
			if ph != nil {
				ph.polls++
				ph.pollHostNs += int64(time.Since(h0))
				ph.pollSim += vtime.Max(done, at) - at
			}
			t.Clock.AdvanceTo(vtime.Max(at, done))
			return true
		}
		threads = append(threads, th)
	}
	sched := vtime.NewScheduler(ctxSwitch, threads...)
	if ph != nil {
		ph.host = measureHost(func() {
			ph.timer.start()
			sched.Run()
		})
	} else {
		sched.Run()
	}
	// The phase ends when the clients end; the poller's clock parks one
	// idle interval past the last op.
	end := base
	for _, t := range clients {
		end = vtime.Max(end, t.Clock.Now())
	}
	if ph != nil {
		ph.makespan = end - base
	}
	return end
}

// parPhase is the real-goroutine phase of read_par.
type parPhase struct {
	ops    int
	timers []*batchTimer
	host   hostDelta
}

// runPar gives every goroutine a private stream and a private clock. The
// forest is shared, so this is where forestShard.mu and Device.mu
// contend; the model is only read.
func (d *driver) runPar(base vtime.Ticks, streams [][]op) *parPhase {
	ph := &parPhase{}
	subs := make([]*driver, len(streams))
	for i, s := range streams {
		ph.ops += len(s)
		ph.timers = append(ph.timers, newBatchTimer(len(s)))
		subs[i] = &driver{wl: d.wl, sc: d.sc, st: d.st, mdl: d.mdl, in: d.in}
	}
	ph.host = measureHost(func() {
		var wg sync.WaitGroup
		for i, s := range streams {
			wg.Add(1)
			go func(sub *driver, s []op, tm *batchTimer) {
				defer wg.Done()
				at := base
				tm.start()
				for _, o := range s {
					at, _ = sub.exec(o, at)
					tm.tick()
				}
			}(subs[i], s, ph.timers[i])
		}
		wg.Wait()
	})
	for _, sub := range subs {
		d.attempted += sub.attempted
		d.failed += sub.failed
		if d.firstFail == "" {
			d.firstFail = sub.firstFail
		}
	}
	return ph
}

// tailResult is what the write_wal crash tail measured.
type tailResult struct {
	simRecover vtime.Ticks
	hostNs     int64
	report     core.ForestRecoveryReport
	logBytes   int64 // live log bytes the recovery scanned
	lost       int   // unsynced writes the crash lost
	survived   int   // unsynced writes that were durable anyway (a flush forced them)
}

// runTail syncs, issues unsynced writes, crashes, recovers and verifies:
// every synced write must be there, every unsynced one either fully
// applied or fully absent, and what a shard lost must be a suffix of what
// it was sent (its log is a prefix).
func (d *driver) runTail(at vtime.Ticks) (tailResult, vtime.Ticks) {
	var tr tailResult
	fr := d.st.fr
	at, err := fr.Sync(at)
	if err != nil {
		d.fail(op{kind: opSync}, err.Error())
	}
	synced := len(d.issued)
	for _, o := range d.in.tail {
		at, _ = d.exec(o, at)
	}
	for _, l := range d.st.logs {
		tr.logBytes += l.LiveBytes()
	}
	fr.Crash()
	h0 := time.Now()
	rep, done, err := fr.Recover(at)
	tr.hostNs = int64(time.Since(h0))
	if err != nil {
		d.fail(op{kind: opSync}, "recover: "+err.Error())
		return tr, vtime.Max(done, at)
	}
	tr.report, tr.simRecover = rep, done-at
	at = done

	lostOn := make([]bool, d.sc.shards)
	for _, o := range d.in.tail {
		v, found, dn, err := fr.Search(at, o.key)
		at = vtime.Max(at, dn)
		d.attempted++
		if err != nil {
			d.fail(o, "after recover: "+err.Error())
			continue
		}
		shard := fr.Routing().Shard(o.key)
		if d.mdl.agrees(o.key, v, found) {
			tr.survived++
			if lostOn[shard] {
				d.fail(o, fmt.Sprintf("recovered although an earlier write to shard %d was lost", shard))
			}
			continue
		}
		d.mdl.revert(o)
		if !d.mdl.agrees(o.key, v, found) {
			d.fail(o, fmt.Sprintf("after recover got (%d,%v): neither the state before nor after the write", v, found))
			continue
		}
		tr.lost++
		lostOn[shard] = true
	}
	// Synced writes: the most recent ones are the ones a broken commit
	// point would lose first; Count (checked by the caller) covers the rest.
	check := d.issued[:synced]
	if len(check) > 5000 {
		check = check[len(check)-5000:]
	}
	for _, o := range check {
		v, found, dn, err := fr.Search(at, o.key)
		at = vtime.Max(at, dn)
		d.attempted++
		if err != nil {
			d.fail(o, "after recover: "+err.Error())
			continue
		}
		if !d.mdl.agrees(o.key, v, found) {
			d.fail(o, "synced write lost by the crash: "+d.mdl.mismatch(o.key, v, found))
		}
	}
	return tr, at
}

// run is one complete run of a workload: set-up (several times, the last
// one kept), warm-up, measured phase(s), crash tail, final checks.
type run struct {
	setupS   []float64
	sim      *simPhase
	par      *parPhase
	tail     *tailResult
	before   counters
	after    counters
	spaceAmp float64
	liveHeap float64 // MB
	height   int
	routeEnd float64 // host ns per Routing().Shard
	routeBas float64 // host ns per Routing().Base().Shard
	rules    int
	epoch    uint64
	trace    *traceSummary
	rec      *recorder

	counts    [numOpKinds]int // measured ops by kind
	attempted int
	failed    int
	firstFail string
	checkErr  string // Count / CheckInvariants failure after timing stopped
}

func (r *run) correct() bool { return r.failed == 0 && r.checkErr == "" }

func runWorkload(wl *workload, sc scale, seed uint64, traced bool) (*run, error) {
	in := generate(wl, sc, seed)
	r := &run{}
	var d *driver
	var base vtime.Ticks
	for rep := 0; rep < sc.setupReps; rep++ {
		d = nil
		runtime.GC()
		t0 := time.Now()
		st, err := buildStack(sc, wl.poolBytes, wl.wal)
		if err != nil {
			return nil, err
		}
		d = &driver{wl: wl, sc: sc, st: st, mdl: newModel(sc.n), in: in}
		if wl.ckpts {
			d.ckptEvery = in.nMeas / 8 / sc.syncEvery * sc.syncEvery
			if d.ckptEvery < sc.syncEvery {
				d.ckptEvery = sc.syncEvery
			}
		}
		if wl.tail {
			d.issued = make([]op, 0, in.nWarm+in.nMeas)
		}
		base = d.runSim(0, in.warm, nil)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}

	ph := &simPhase{ops: in.nMeas, timer: newBatchTimer(in.nMeas),
		readLat: make([]vtime.Ticks, 0, in.nMeas), writeLat: make([]vtime.Ticks, 0, in.nMeas)}
	if traced {
		d.rec = newRecorder(in.nMeas + in.nMeas/64)
		d.st.space.SetInjector(d.rec)
	}
	d.st.dev.ResetStats() // so Stats().MaxBatch is the measured phase's
	r.before = d.st.read()
	end := d.runSim(base, in.meas, ph)
	r.sim = ph
	// Real goroutines would race on the recorder, and the crash tail is
	// not part of the measured phase: the trace ends here.
	rec := d.rec
	d.rec = nil
	d.st.space.SetInjector(nil)
	if wl.par {
		r.par = d.runPar(end, in.par)
	}
	r.after = d.st.read()
	r.height = d.st.fr.Height()
	live := float64(d.st.fr.Count())
	r.spaceAmp = (float64(r.after.pages)*pageSize + float64(r.after.live)) / (kv.RecordSize * live)

	if wl.tail {
		tr, at := d.runTail(end)
		r.tail, end = &tr, at
	}
	if got := d.st.fr.Count(); got != d.mdl.count {
		r.checkErr = fmt.Sprintf("Count() = %d, model has %d", got, d.mdl.count)
	} else if err := d.st.fr.CheckInvariants(); err != nil {
		r.checkErr = "CheckInvariants: " + err.Error()
	}
	rt := d.st.fr.Routing()
	r.rules, r.epoch = len(rt.Rules()), rt.Epoch()
	if traced && wl.rebalance {
		r.routeEnd = timeRoute(sc, rt.Shard)
		r.routeBas = timeRoute(sc, rt.Base().Shard)
	}
	r.attempted, r.failed, r.firstFail = d.attempted, d.failed, d.firstFail
	if rec != nil {
		r.rec, r.trace = rec, rec.summarize()
	}

	// Live heap with the stack (forest, pools, logs, simulated file
	// images) still reachable and the benchmark's inputs dropped.
	r.counts = in.counts
	*in = inputs{}
	d.issued = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeap = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(d)
	return r, nil
}

// timeRoute is the host cost of one routing decision, over a fixed key
// sweep.
func timeRoute(sc scale, route func(kv.Key) int) float64 {
	const calls = 200_000
	sink := 0
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		sink += route(loadedKey(i * 7919 % sc.n))
	}
	ns := float64(time.Since(t0)) / calls
	runtime.KeepAlive(sink)
	return ns
}
