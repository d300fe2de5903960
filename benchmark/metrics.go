package main

import (
	"math"
	"sort"

	"repro/internal/kv"
	"repro/internal/vtime"
)

// metricDef names one reported number. The lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them (with the regression
// bounds) and bench_test.go checks the two agree.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the index would see, reported on
// every workload from the untraced run. Host wall and CPU time are not
// among them: on the shared two-thread sandbox their spread over identical
// runs reaches the largest bound the pipeline allows, so they are reported
// per layer (driver.host_kops, driver.host_cpu_us_per_op) and claimed on
// with paired runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_allocs_per_op", "count", "lower"},
	{"host_bytes_per_op", "B", "lower"},
	{"host_live_heap_mb", "MB", "lower"},
	{"sim_kops", "kops/s", "higher"},
	{"sim_read_mean_us", "us", "lower"},
	{"sim_space_amp", "x", "lower"},
}

// perLayer are the single-layer metrics, reported from the traced run.
// A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"flashsim.reads_per_op", "count", "lower"},
	{"flashsim.writes_per_op", "count", "lower"},
	{"flashsim.bytes_read_per_op", "B", "lower"},
	{"flashsim.bytes_written_per_op", "B", "lower"},
	{"flashsim.submits_per_op", "count", "lower"},
	{"flashsim.reqs_per_submit", "count", "higher"},
	{"flashsim.max_batch", "count", "higher"},
	{"flashsim.dir_switches_per_kop", "count", "lower"},
	{"flashsim.req_time_us_per_op", "us", "lower"},
	{"flashsim.gc_stalls", "count", "lower"},
	{"flashsim.submit1_ns", "ns", "lower"},
	{"flashsim.submit64_ns", "ns", "lower"},
	{"flashsim.submit64_allocs", "count", "lower"},

	{"ssdio.data_sync_per_op", "count", "lower"},
	{"ssdio.data_psync_per_op", "count", "lower"},
	{"ssdio.data_reqs_per_psync", "count", "higher"},
	{"ssdio.wal_calls_per_kop", "count", "lower"},
	{"ssdio.gang_calls_per_kop", "count", "lower"},
	{"ssdio.gang_members_mean", "count", "higher"},
	{"ssdio.ctx_switches_per_op", "count", "lower"},
	{"ssdio.io_time_frac", "fraction", "lower"},
	{"ssdio.sync_ns", "ns", "lower"},
	{"ssdio.psync64_ns", "ns", "lower"},
	{"ssdio.gang8x8_ns", "ns", "lower"},
	{"ssdio.psync64_allocs", "count", "lower"},

	{"pagefile.pages_allocated", "count", "lower"},
	{"pagefile.pages_grown", "count", "lower"},
	{"pagefile.readrun4_ns", "ns", "lower"},
	{"pagefile.readrun4_allocs", "count", "lower"},
	{"pagefile.psyncwrite16_ns", "ns", "lower"},

	{"bufferpool.hit_ratio", "fraction", "higher"},
	{"bufferpool.misses_per_op", "count", "lower"},
	{"bufferpool.evictions_per_op", "count", "lower"},
	{"bufferpool.frames", "count", "lower"},
	{"bufferpool.get_hit_ns", "ns", "lower"},
	{"bufferpool.get_miss_ns", "ns", "lower"},

	{"wal.force_writes_per_kop", "count", "lower"},
	{"wal.gang_forces_per_kop", "count", "lower"},
	{"wal.log_bytes_per_write", "B", "lower"},
	{"wal.truncated_mb", "MB", "higher"},
	{"wal.live_mb_end", "MB", "lower"},
	{"wal.append_ns", "ns", "lower"},
	{"wal.append_allocs", "count", "lower"},
	{"wal.force_ns", "ns", "lower"},
	{"wal.forcegroup8_ns", "ns", "lower"},
	{"wal.records_ns_per_rec", "ns", "lower"},

	{"tree.flushes_per_kop", "count", "lower"},
	{"tree.entries_per_flush", "count", "higher"},
	{"tree.psync_reads_per_flush", "count", "lower"},
	{"tree.psync_writes_per_flush", "count", "lower"},
	{"tree.ganged_writes_per_flush", "count", "higher"},
	{"tree.leaf_splits_per_kop", "count", "lower"},
	{"tree.leaf_appends_per_kop", "count", "higher"},
	{"tree.shrinks_per_kop", "count", "lower"},
	{"tree.opq_shortcut_frac", "fraction", "higher"},
	{"tree.pages_read_per_search", "count", "lower"},
	{"tree.height", "count", "lower"},
	{"tree.search_ns", "ns", "lower"},
	{"tree.search_bytes", "B", "lower"},
	{"tree.insert_ns", "ns", "lower"},
	{"tree.flushbatch_us", "us", "lower"},
	{"tree.searchmany64_us", "us", "lower"},
	{"tree.searchmany64_bytes", "B", "lower"},
	{"tree.range100_us", "us", "lower"},
	{"tree.range100_bytes", "B", "lower"},

	{"forest.group_flushes_per_kop", "count", "lower"},
	{"forest.shards_per_group", "count", "higher"},
	{"forest.gang_submits_per_kop", "count", "lower"},
	{"forest.log_submits_per_kop", "count", "lower"},
	{"forest.vlock_waits_per_kop", "count", "lower"},
	{"forest.vlock_wait_frac", "fraction", "lower"},
	{"forest.sim_prewait_frac", "fraction", "lower"},
	{"forest.shard_load_cv", "fraction", "lower"},
	{"forest.pending_end", "count", "lower"},
	{"forest.search_overhead_ns", "ns", "lower"},
	{"forest.insert_overhead_ns", "ns", "lower"},
	{"forest.par_speedup", "x", "higher"},
	{"forest.search_host_us", "us", "lower"},
	{"forest.write_host_us", "us", "lower"},
	{"forest.range_host_us", "us", "lower"},
	{"forest.many_host_us", "us", "lower"},
	{"forest.range_sim_p50_us", "us", "lower"},
	{"forest.many_sim_p50_us", "us", "lower"},

	{"control.polls", "count", "lower"},
	{"control.poll_host_us", "us", "lower"},
	{"control.poll_host_frac", "fraction", "lower"},
	{"control.poll_sim_ms", "ms", "lower"},
	{"control.migrations", "count", "lower"},
	{"control.migrated_keys_per_op", "count", "lower"},
	{"control.move_rules_end", "count", "lower"},
	{"control.routing_epoch_end", "count", "lower"},
	{"control.migration_aborts", "count", "lower"},
	{"control.sim_kops_steady", "kops/s", "higher"},
	{"control.sim_kops_migrating", "kops/s", "higher"},
	{"control.route_ns_end", "ns", "lower"},
	{"control.route_ns_base", "ns", "lower"},

	{"recover.sim_ms", "ms", "lower"},
	{"recover.host_ms", "ms", "lower"},
	{"recover.redone_entries", "count", "lower"},
	{"recover.skipped_entries", "count", "lower"},
	{"recover.undone_flushes", "count", "lower"},
	{"recover.log_mb_scanned", "MB", "lower"},

	{"vtime.sched_step_ns", "ns", "lower"},
	{"kv.sort_records_ns_per_rec", "ns", "lower"},
	{"costmodel.calibrate_ms", "ms", "lower"},
	{"costmodel.tuneforest_us", "us", "lower"},

	{"sim.read_p50_us", "us", "lower"},
	{"sim.read_p999_us", "us", "lower"},
	{"sim.write_mean_us", "us", "lower"},
	{"sim.write_p9999_us", "us", "lower"},
	{"sim.write_amp", "x", "lower"},

	{"driver.samples", "count", "higher"},
	{"driver.host_kops", "kops/s", "higher"},
	{"driver.host_cpu_us_per_op", "us", "lower"},
	{"driver.host_kops_wall", "kops/s", "higher"},
	{"driver.host_batch_p99_us", "us", "lower"},
	{"driver.host_drift", "x", "lower"},
	{"driver.gc_cycles", "count", "lower"},
	{"driver.gc_cpu_frac", "fraction", "lower"},
	{"driver.trace_overhead_frac", "fraction", "lower"},
	{"driver.host_explained_frac", "fraction", "higher"},
}

// values maps metric name to its measured value.
type values map[string]float64

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// hostPhase returns the phase the host metrics are read from: the real
// goroutines on read_par, the closed loop elsewhere.
func (r *run) hostPhase() (ops int, h hostDelta, timers []*batchTimer) {
	if r.par != nil {
		return r.par.ops, r.par.host, r.par.timers
	}
	return r.sim.ops, r.sim.host, []*batchTimer{r.sim.timer}
}

func hostKops(timers []*batchTimer) float64 {
	var k float64
	for _, t := range timers {
		k += div(1e6, t.nsPerOp(0.5))
	}
	return k
}

// e2eValues computes the end-to-end metrics of one run.
func e2eValues(r *run) values {
	ops, h, _ := r.hostPhase()
	n := float64(ops)
	return values{
		"setup_s":            median(r.setupS),
		"host_allocs_per_op": float64(h.mallocs) / n,
		"host_bytes_per_op":  float64(h.bytes) / n,
		"host_live_heap_mb":  r.liveHeap,
		"sim_kops":           div(float64(r.sim.ops), r.sim.makespan.Seconds()) / 1e3,
		"sim_read_mean_us":   meanTicks(r.sim.readLat).Micros(),
		"sim_space_amp":      r.spaceAmp,
	}
}

// simValues are the numbers that must repeat bit for bit: between two runs
// of a seed, and between the traced and the untraced run.
func simValues(r *run) values {
	v := values{}
	for k, x := range e2eValues(r) {
		if len(k) > 4 && k[:4] == "sim_" {
			v[k] = x
		}
	}
	v["sim.read_p50_us"] = quantile(r.sim.readLat, 0.5).Micros()
	v["sim.read_p999_us"] = quantile(r.sim.readLat, 0.999).Micros()
	v["sim.write_mean_us"] = meanTicks(r.sim.writeLat).Micros()
	v["sim.write_p9999_us"] = quantile(r.sim.writeLat, 0.9999).Micros()
	v["sim.makespan_ticks"] = float64(r.sim.makespan)
	if r.tail != nil {
		v["recover.sim_ms"] = r.tail.simRecover.Millis()
	}
	return v
}

func meanTicks(lat []vtime.Ticks) vtime.Ticks {
	if len(lat) == 0 {
		return 0
	}
	var sum vtime.Ticks
	for _, l := range lat {
		sum += l
	}
	return sum / vtime.Ticks(len(lat))
}

// layerValues computes the per-layer metrics: counters and spans from the
// traced run tr, the tracing overhead against the untraced run un, and the
// stand-alone probes.
func layerValues(sc scale, un, tr *run, pr probeSet) values {
	v := values{}
	for _, m := range perLayer {
		v[m.name] = 0
	}
	sims := simValues(tr)
	a, b := tr.before, tr.after
	ops := float64(tr.sim.ops)
	if tr.par != nil {
		ops += float64(tr.par.ops)
	}
	kop := ops / 1e3
	dev := b.dev // reset at the start of the measured phase
	v["flashsim.reads_per_op"] = float64(dev.Reads) / ops
	v["flashsim.writes_per_op"] = float64(dev.Writes) / ops
	v["flashsim.bytes_read_per_op"] = float64(dev.BytesRead) / ops
	v["flashsim.bytes_written_per_op"] = float64(dev.BytesWritten) / ops
	v["flashsim.submits_per_op"] = float64(dev.Batches) / ops
	v["flashsim.reqs_per_submit"] = div(float64(dev.Reads+dev.Writes), float64(dev.Batches))
	v["flashsim.max_batch"] = float64(dev.MaxBatch)
	v["flashsim.dir_switches_per_kop"] = float64(dev.DirSwitches) / kop
	v["flashsim.req_time_us_per_op"] = (dev.ReadTime + dev.WriteTime).Micros() / ops
	v["flashsim.gc_stalls"] = float64(dev.GCStalls)

	v["ssdio.data_sync_per_op"] = float64(b.data.SyncCalls-a.data.SyncCalls) / ops
	v["ssdio.data_psync_per_op"] = float64(b.data.PsyncCalls-a.data.PsyncCalls) / ops
	v["ssdio.data_reqs_per_psync"] = div(float64(b.data.PsyncReqs-a.data.PsyncReqs), float64(b.data.PsyncCalls-a.data.PsyncCalls))
	v["ssdio.wal_calls_per_kop"] = float64(b.wal.SyncCalls+b.wal.PsyncCalls-a.wal.SyncCalls-a.wal.PsyncCalls) / kop
	v["ssdio.gang_calls_per_kop"] = float64(tr.trace.gangCalls) / kop
	v["ssdio.gang_members_mean"] = div(float64(tr.trace.gangMembers), float64(tr.trace.gangCalls))
	v["ssdio.ctx_switches_per_op"] = float64(b.data.CtxSwitches+b.wal.CtxSwitches-a.data.CtxSwitches-a.wal.CtxSwitches) / ops
	clientTime := float64(tr.sim.makespan) * float64(sc.threads)
	v["ssdio.io_time_frac"] = div(float64(b.data.IOTime+b.wal.IOTime-a.data.IOTime-a.wal.IOTime), clientTime)

	v["pagefile.pages_allocated"] = float64(b.pages - a.pages)
	v["pagefile.pages_grown"] = float64(b.dataBytes-a.dataBytes) / pageSize

	hits, misses := float64(b.pool.Hits-a.pool.Hits), float64(b.pool.Misses-a.pool.Misses)
	v["bufferpool.hit_ratio"] = div(hits, hits+misses)
	v["bufferpool.misses_per_op"] = misses / ops
	v["bufferpool.evictions_per_op"] = float64(b.pool.Evictions-a.pool.Evictions) / ops
	v["bufferpool.frames"] = float64(b.frames)

	acked := float64(tr.sim.acked)
	v["wal.force_writes_per_kop"] = float64(b.forceWr-a.forceWr) / kop
	v["wal.gang_forces_per_kop"] = float64(b.gangForces-a.gangForces) / kop
	v["wal.log_bytes_per_write"] = div(float64(b.logBytes-a.logBytes), acked)
	v["wal.truncated_mb"] = float64(b.truncated-a.truncated) / 1e6
	v["wal.live_mb_end"] = float64(b.live) / 1e6

	ta, tb := a.fs.Tree, b.fs.Tree
	flushes := float64(tb.Flushes - ta.Flushes)
	v["tree.flushes_per_kop"] = flushes / kop
	v["tree.entries_per_flush"] = div(float64(tb.UpdateOps-ta.UpdateOps)-float64(b.fs.Pending-a.fs.Pending), flushes)
	v["tree.psync_reads_per_flush"] = div(float64(tb.PsyncReads-ta.PsyncReads), flushes)
	v["tree.psync_writes_per_flush"] = div(float64(tb.PsyncWrites-ta.PsyncWrites), flushes)
	v["tree.ganged_writes_per_flush"] = div(float64(tb.GangedWrites-ta.GangedWrites), flushes)
	v["tree.leaf_splits_per_kop"] = float64(tb.LeafSplits-ta.LeafSplits) / kop
	v["tree.leaf_appends_per_kop"] = float64(tb.LeafAppends-ta.LeafAppends) / kop
	v["tree.shrinks_per_kop"] = float64(tb.Shrinks-ta.Shrinks) / kop
	v["tree.opq_shortcut_frac"] = div(float64(tb.OPQShortcuts-ta.OPQShortcuts), float64(tb.SearchOps-ta.SearchOps))
	ks := &tr.trace.kinds
	v["tree.pages_read_per_search"] = div(float64(ks[opSearch].readBytes)/pageSize, float64(ks[opSearch].calls))
	v["tree.height"] = float64(tr.height)

	groups := float64(b.fs.GroupFlushes - a.fs.GroupFlushes)
	v["forest.group_flushes_per_kop"] = groups / kop
	v["forest.shards_per_group"] = div(float64(b.fs.GroupedShards-a.fs.GroupedShards), groups)
	v["forest.gang_submits_per_kop"] = float64(b.fs.GangSubmits-a.fs.GangSubmits) / kop
	v["forest.log_submits_per_kop"] = float64(b.fs.LogSubmits-a.fs.LogSubmits) / kop
	v["forest.vlock_waits_per_kop"] = float64(b.fs.VLockWaits-a.fs.VLockWaits) / kop
	v["forest.vlock_wait_frac"] = div(float64(b.fs.VLockContended-a.fs.VLockContended), clientTime)
	var prewait, simTotal vtime.Ticks
	for k := opSearch; k <= opMany; k++ {
		prewait += ks[k].prewait
		simTotal += ks[k].simTicks
	}
	v["forest.sim_prewait_frac"] = div(float64(prewait), float64(simTotal))
	loads := make([]float64, len(b.fs.ShardLoads))
	for i := range loads {
		loads[i] = float64(b.fs.ShardLoads[i].Ops - a.fs.ShardLoads[i].Ops)
	}
	v["forest.shard_load_cv"] = coeffVar(loads)
	v["forest.pending_end"] = float64(b.fs.Pending)
	if tr.par != nil {
		v["forest.par_speedup"] = div(hostKops(tr.par.timers), hostKops([]*batchTimer{tr.sim.timer}))
	}
	hostUs := func(kinds ...opKind) float64 {
		var ns, calls float64
		for _, k := range kinds {
			ns += float64(ks[k].hostNs)
			calls += float64(ks[k].calls)
		}
		return div(ns, calls) / 1e3
	}
	v["forest.search_host_us"] = hostUs(opSearch)
	v["forest.write_host_us"] = hostUs(opInsert, opUpdate, opDelete)
	v["forest.range_host_us"] = hostUs(opRange)
	v["forest.many_host_us"] = hostUs(opMany)
	v["forest.range_sim_p50_us"] = quantile(ks[opRange].lat, 0.5).Micros()
	v["forest.many_sim_p50_us"] = quantile(ks[opMany].lat, 0.5).Micros()

	ph := tr.sim
	v["control.polls"] = float64(ph.polls)
	v["control.poll_host_us"] = div(float64(ph.pollHostNs), float64(ph.polls)) / 1e3
	v["control.poll_host_frac"] = div(float64(ph.pollHostNs), float64(ph.host.wallNs))
	v["control.poll_sim_ms"] = ph.pollSim.Millis()
	v["control.migrations"] = float64(b.fs.Migrations - a.fs.Migrations)
	v["control.migrated_keys_per_op"] = float64(b.fs.MigratedKeys-a.fs.MigratedKeys) / ops
	v["control.move_rules_end"] = float64(tr.rules)
	v["control.routing_epoch_end"] = float64(tr.epoch)
	v["control.migration_aborts"] = float64(b.fs.MigrationAborts - a.fs.MigrationAborts)
	// Closed loop: throughput while in a state is clients / mean latency
	// of the ops that completed in it.
	threads := float64(sc.threads)
	v["control.sim_kops_steady"] = div(threads*float64(ph.opsSteady), ph.simSteady.Seconds()) / 1e3
	v["control.sim_kops_migrating"] = div(threads*float64(ph.opsMig), ph.simMig.Seconds()) / 1e3
	v["control.route_ns_end"] = tr.routeEnd
	v["control.route_ns_base"] = tr.routeBas

	if t := tr.tail; t != nil {
		v["recover.sim_ms"] = t.simRecover.Millis()
		v["recover.host_ms"] = float64(t.hostNs) / 1e6
		v["recover.redone_entries"] = float64(t.report.Total.RedoneEntries)
		v["recover.skipped_entries"] = float64(t.report.Total.SkippedEntries)
		v["recover.undone_flushes"] = float64(t.report.Total.UndoneFlushes)
		v["recover.log_mb_scanned"] = float64(t.logBytes) / 1e6
	}

	for _, k := range []string{"sim.read_p50_us", "sim.read_p999_us", "sim.write_mean_us", "sim.write_p9999_us"} {
		v[k] = sims[k]
	}
	v["sim.write_amp"] = div(float64(dev.BytesWritten), kv.RecordSize*acked)

	probeValues(v, pr)

	// Host time comes from the untraced run.
	hostOps, h, timers := un.hostPhase()
	v["driver.samples"] = float64(len(ph.readLat) + len(ph.writeLat))
	v["driver.host_kops"] = hostKops(timers)
	v["driver.host_cpu_us_per_op"] = float64(h.cpuNs) / 1e3 / float64(hostOps)
	v["driver.host_kops_wall"] = div(float64(hostOps), float64(h.wallNs)) * 1e6
	v["driver.host_batch_p99_us"] = timers[0].nsPerOp(0.99) / 1e3
	v["driver.host_drift"] = timers[0].drift()
	v["driver.gc_cycles"] = float64(h.gcCycles)
	v["driver.gc_cpu_frac"] = div(h.gcCPUSec, float64(h.cpuNs)/1e9)
	v["driver.trace_overhead_frac"] = div(tr.sim.timer.nsPerOp(0.5), un.sim.timer.nsPerOp(0.5)) - 1
	c := &tr.counts
	explained := float64(c[opSearch])*(v["tree.search_ns"]+v["forest.search_overhead_ns"]) +
		float64(c[opInsert]+c[opUpdate]+c[opDelete])*(v["tree.insert_ns"]+v["forest.insert_overhead_ns"]) +
		flushes*v["tree.flushbatch_us"]*1e3 +
		float64(c[opMany])*v["tree.searchmany64_us"]*1e3 +
		float64(c[opRange])*v["tree.range100_us"]*1e3
	cpu := float64(tr.sim.host.cpuNs)
	if tr.par != nil {
		cpu += float64(tr.par.host.cpuNs)
	}
	v["driver.host_explained_frac"] = div(explained, cpu)
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[k] = 0
		}
	}
	return v
}

func coeffVar(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := div(sum, float64(len(xs)))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return div(math.Sqrt(div(sq, float64(len(xs)))), mean)
}

// probeValues maps the probe results onto their metric names.
func probeValues(v values, pr probeSet) {
	ns := func(metric, probe string, scale float64) { v[metric] = pr[probe].ns / scale }
	ns("flashsim.submit1_ns", "flashsim.submit1", 1)
	ns("flashsim.submit64_ns", "flashsim.submit64", 1)
	v["flashsim.submit64_allocs"] = pr["flashsim.submit64"].allocs
	ns("ssdio.sync_ns", "ssdio.sync", 1)
	ns("ssdio.psync64_ns", "ssdio.psync64", 1)
	ns("ssdio.gang8x8_ns", "ssdio.gang8x8", 1)
	v["ssdio.psync64_allocs"] = pr["ssdio.psync64"].allocs
	ns("pagefile.readrun4_ns", "pagefile.readrun4", 1)
	v["pagefile.readrun4_allocs"] = pr["pagefile.readrun4"].allocs
	ns("pagefile.psyncwrite16_ns", "pagefile.psyncwrite16", 1)
	ns("bufferpool.get_hit_ns", "bufferpool.get_hit", 1)
	ns("bufferpool.get_miss_ns", "bufferpool.get_miss", 1)
	ns("wal.append_ns", "wal.append", 1)
	v["wal.append_allocs"] = pr["wal.append"].allocs
	ns("wal.force_ns", "wal.force", 1)
	ns("wal.forcegroup8_ns", "wal.forcegroup8", 1)
	ns("wal.records_ns_per_rec", "wal.records", 1)
	ns("tree.search_ns", "tree.search", 1)
	v["tree.search_bytes"] = pr["tree.search"].bytes
	ns("tree.insert_ns", "tree.insert", 1)
	ns("tree.flushbatch_us", "tree.flushbatch", 1e3)
	ns("tree.searchmany64_us", "tree.searchmany64", 1e3)
	v["tree.searchmany64_bytes"] = pr["tree.searchmany64"].bytes
	ns("tree.range100_us", "tree.range100", 1e3)
	v["tree.range100_bytes"] = pr["tree.range100"].bytes
	ns("forest.search_overhead_ns", "forest.search_overhead", 1)
	ns("forest.insert_overhead_ns", "forest.insert_overhead", 1)
	ns("vtime.sched_step_ns", "vtime.sched_step", 1)
	ns("kv.sort_records_ns_per_rec", "kv.sort_records", 1)
	ns("costmodel.calibrate_ms", "costmodel.calibrate", 1e6)
	ns("costmodel.tuneforest_us", "costmodel.tuneforest", 1e3)
}
