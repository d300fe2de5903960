package scenario

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faultio"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// pageSize and cpuPerNode mirror the bench package's experiment setup,
// so scenario numbers are comparable with the figure regenerations.
const (
	pageSize   = 2048
	cpuPerNode = 2 * vtime.Microsecond
	bcnt       = 5000
)

// Config is the engine scale: the knobs that vary per run (CI quick mode
// vs nightly long mode) while the Scenario shape stays fixed.
type Config struct {
	// Device is the simulated SSD profile (default: Iodrive).
	Device flashsim.Config
	// InitialEntries is the bulk-loaded forest size.
	InitialEntries int
	// OpsPerPhase is the operation budget of each phase.
	OpsPerPhase int
	// MemBytes is the global memory budget (OPQ + buffer pool).
	MemBytes int
	// Seed fixes all workload generation.
	Seed int64
	// Shards/Threads override the scenario's defaults when positive.
	Shards, Threads int
	// FaultProgram, when non-empty, overrides the scenario's Faults
	// program: a faultio program installed on the I/O plane after the
	// bulk load. A program without an explicit seed is seeded from Seed.
	FaultProgram string
}

// PhaseResult is one phase's measured trajectory point.
type PhaseResult struct {
	Name string
	// Ops ran in the phase; Inserts of them were fresh-key inserts.
	Ops, Inserts int
	// Start/End bound the phase on the continuous virtual timeline.
	Start, End vtime.Ticks
	// KopsPerSec is the phase throughput (ops over makespan).
	KopsPerSec float64
	// MeanUS/P95US/P99US summarize per-op latency in microseconds.
	MeanUS, P95US, P99US float64
	// Migrations/MigratedKeys are the phase's committed AutoRebalance
	// moves and the keys they streamed.
	Migrations, MigratedKeys int64
	// Flushes and GangSubmits are the phase's flush-plane activity.
	Flushes, GangSubmits int64
	// GCStalls counts aging-triggered garbage collections hit.
	GCStalls int64
	// IORetries counts transient-fault I/O retries charged in the phase
	// (zero on a clean plane).
	IORetries int64
	// Rejected counts ops the forest refused in degraded mode
	// (ErrShardQuarantined): availability lost to a quarantined shard
	// between its failure and its heal or evacuation.
	Rejected int
	// HealProbes/AutoHeals are the phase's auto-heal prober activity:
	// probe I/Os issued against quarantined shards and successful
	// re-admissions.
	HealProbes, AutoHeals int64
	// EvacuatedChunks counts evacuation chunks streamed off quarantined
	// shards during the phase.
	EvacuatedChunks int64
	// WatchdogTimeouts counts stuck-I/O watchdog firings (hanging ops
	// abandoned at their vtime deadline) in the phase.
	WatchdogTimeouts int64
	// RedoneEntries/RecoverMS report the crash-restart replay (zero for
	// phases without CrashRestart).
	RedoneEntries int64
	RecoverMS     float64
}

// Result is one scenario run.
type Result struct {
	Scenario string
	Device   string
	Shards   int
	Threads  int
	Phases   []PhaseResult
	// ExpectedKeys/FinalKeys cross-check durability: bulk-loaded plus
	// every insert issued must equal the forest's final count.
	ExpectedKeys, FinalKeys int64
	// RoutingEpoch/TotalMigrations/TotalMigratedKeys summarize how much
	// the forest adapted over the run.
	RoutingEpoch                       uint64
	TotalMigrations, TotalMigratedKeys int64
	// TunedL/TunedO are the eq.-(10) tune the forest was built with: the
	// per-shard leaf segments and the global OPQ page budget.
	TunedL, TunedO int
	// FaultProgram is the fault program the run installed ("" for a
	// clean plane); IORetries/IORetriesExhausted aggregate the transient
	// retry activity it caused. A run that ends with a shard still
	// quarantined fails outright, like one that lost a key.
	FaultProgram                  string
	IORetries, IORetriesExhausted int64
	// Self-healing totals: probe I/Os against quarantined shards,
	// successful auto-heals, committed quarantine evacuations and the
	// chunks they streamed, and stuck-I/O watchdog firings.
	HealProbes, AutoHeals        int64
	Evacuations, EvacuatedChunks int64
	WatchdogTimeouts             int64
	// Rejected is the total count of ops refused in degraded mode.
	Rejected int
	// LostUncommitted is ExpectedKeys minus FinalKeys when a permanent
	// device loss was evacuated: inserts acknowledged into a shard's OPQ
	// whose redo records were still in the WAL's unforced tail when the
	// device died were never committed, exactly like unsynced writes in a
	// crash. Bounded by the OPQ budget; zero on every run without an
	// evacuation.
	LostUncommitted int64
	// End is the scenario makespan.
	End vtime.Ticks
}

// engine is one scenario run's mutable state.
type engine struct {
	sc      Scenario
	cfg     Config
	shards  int
	threads int

	dev     *flashsim.Device
	fr      *core.Forest
	recs    []kv.Record
	stripes []*stripeState
	faults  string // resolved fault program ("" = clean plane)

	expected int64 // live keys the run has committed to

	// The eq.-(10) tune the forest was built with.
	leafSegs int
	globalO  int // global OPQ pages
}

// Run executes the scenario at the given scale and returns its measured
// trajectory. Runs are bit-deterministic: same scenario, same Config,
// same Result.
func Run(sc Scenario, cfg Config) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Device.Name == "" {
		cfg.Device = flashsim.Iodrive()
	}
	if cfg.InitialEntries < sc.Stripes*16 {
		return nil, fmt.Errorf("scenario %s: %d entries too few for %d stripes", sc.Name, cfg.InitialEntries, sc.Stripes)
	}
	if cfg.OpsPerPhase < 1 {
		return nil, fmt.Errorf("scenario %s: OpsPerPhase must be positive, got %d", sc.Name, cfg.OpsPerPhase)
	}
	e, err := build(sc, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scenario: sc.Name,
		Device:   cfg.Device.Name,
		Shards:   e.shards,
		Threads:  e.threads,
	}
	now := vtime.Ticks(0)
	for pi, ph := range sc.Phases {
		pr := PhaseResult{Name: ph.Name, Start: now}
		if ph.Aging != nil {
			e.dev.SetAging(*ph.Aging)
		}
		if ph.CrashRestart {
			if now, err = e.crashRestart(now, &pr); err != nil {
				return nil, fmt.Errorf("scenario %s: phase %s: %w", sc.Name, ph.Name, err)
			}
		}
		ops, inserts := phaseOps(ph, e.stripes, e.recs, cfg.OpsPerPhase, cfg.Seed+int64(pi)*1_000_003)
		preStats := e.fr.Stats()
		preDev := e.dev.Stats()
		end, lat, rejected, rejectedInserts, err := e.runPhase(now, ops)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: phase %s: %w", sc.Name, ph.Name, err)
		}
		e.expected += int64(inserts) - int64(rejectedInserts)
		postStats := e.fr.Stats()
		postDev := e.dev.Stats()

		pr.Ops = len(ops)
		pr.Inserts = inserts - rejectedInserts
		pr.Rejected = rejected
		pr.End = end
		elapsed := end - now
		if elapsed > 0 {
			pr.KopsPerSec = float64(len(ops)) / elapsed.Seconds() / 1e3
		}
		pr.MeanUS, pr.P95US, pr.P99US = latencySummary(lat)
		pr.Migrations = postStats.Migrations - preStats.Migrations
		pr.MigratedKeys = postStats.MigratedKeys - preStats.MigratedKeys
		pr.Flushes = postStats.Tree.Flushes - preStats.Tree.Flushes
		pr.GangSubmits = postStats.GangSubmits - preStats.GangSubmits
		pr.GCStalls = postDev.GCStalls - preDev.GCStalls
		pr.IORetries = postStats.IORetries - preStats.IORetries
		pr.HealProbes = postStats.HealProbes - preStats.HealProbes
		pr.AutoHeals = postStats.AutoHeals - preStats.AutoHeals
		pr.EvacuatedChunks = postStats.EvacuatedChunks - preStats.EvacuatedChunks
		pr.WatchdogTimeouts = postStats.WatchdogTimeouts - preStats.WatchdogTimeouts
		res.Phases = append(res.Phases, pr)
		res.Rejected += rejected
		now = end
	}
	if err := e.fr.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("scenario %s: forest invalid after run: %w", sc.Name, err)
	}
	st := e.fr.Stats()
	res.ExpectedKeys = e.expected
	res.FinalKeys = e.fr.Count()
	if st.Evacuations > 0 {
		// A permanent device loss was evacuated: acknowledged inserts whose
		// redo records sat in the dead WAL's unforced tail were never
		// committed and are legitimately gone — like unsynced writes in a
		// crash — but the loss must stay bounded by the OPQ budget (one
		// flush round's worth of buffered entries per incident), and no
		// COMMITTED key may be missing.
		maxLoss := int64((e.globalO + e.shards) * (pageSize / kv.EntrySize))
		res.LostUncommitted = res.ExpectedKeys - res.FinalKeys
		if res.LostUncommitted < 0 || res.LostUncommitted > maxLoss*st.Evacuations {
			return nil, fmt.Errorf("scenario %s: lost keys beyond the uncommitted tail: forest holds %d, expected %d (tolerance %d over %d evacuations)",
				sc.Name, res.FinalKeys, res.ExpectedKeys, maxLoss*st.Evacuations, st.Evacuations)
		}
	} else if res.FinalKeys != res.ExpectedKeys {
		return nil, fmt.Errorf("scenario %s: lost keys: forest holds %d, expected %d", sc.Name, res.FinalKeys, res.ExpectedKeys)
	}
	res.RoutingEpoch = st.RoutingEpoch
	res.TotalMigrations = st.Migrations
	res.TotalMigratedKeys = st.MigratedKeys
	res.TunedL, res.TunedO = e.leafSegs, e.globalO
	res.FaultProgram = e.faults
	res.IORetries = st.IORetries
	res.IORetriesExhausted = st.IORetriesExhausted
	res.HealProbes = st.HealProbes
	res.AutoHeals = st.AutoHeals
	res.Evacuations = st.Evacuations
	res.EvacuatedChunks = st.EvacuatedChunks
	res.WatchdogTimeouts = st.WatchdogTimeouts
	if st.QuarantinedShards > 0 {
		return nil, fmt.Errorf("scenario %s: run ended with %d shards quarantined", sc.Name, st.QuarantinedShards)
	}
	res.End = now
	return res, nil
}

// build bulk-loads a WAL-attached, range-partitioned forest on a fresh
// simulated device, sized by an eq.-(10) tune for the first phase's
// traffic mix.
func build(sc Scenario, cfg Config) (*engine, error) {
	e := &engine{sc: sc, cfg: cfg, shards: sc.Shards, threads: sc.Threads}
	if cfg.Shards > 0 {
		e.shards = cfg.Shards
	}
	if e.shards <= 0 {
		e.shards = 4
	}
	if cfg.Threads > 0 {
		e.threads = cfg.Threads
	}
	if e.threads <= 0 {
		e.threads = 8
	}
	n := cfg.InitialEntries

	// Tune once: calibrate a throwaway device instance (probing the live
	// one would disturb its reservation timelines), then run the eq.-(10)
	// arg-min for the first phase's weighted insert ratio.
	dparams := costmodel.Calibrate(flashsim.MustDevice(cfg.Device), pageSize, 16, 64, 8)
	tune, err := costmodel.TuneForest(e.tuneParams(float64(n), phaseInsertRatio(sc.Phases[0])), dparams, bcnt, 16, e.maxO(), e.shards)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: eq.-(10) tune: %w", sc.Name, err)
	}
	e.leafSegs, e.globalO = tune.PerShard.L, tune.GlobalO

	e.dev = flashsim.MustDevice(cfg.Device)
	space := ssdio.NewSpace(e.dev)
	// Even range bounds over the loaded key domain: tenants address
	// stripes of it, shards each own an equal slice initially, and the
	// rebalancer reshapes ownership as the scenario's skew emerges.
	bounds := make([]kv.Key, e.shards-1)
	for i := range bounds {
		bounds[i] = kv.Key((i+1)*n/e.shards) * 16
	}
	leaves := n / (core.Config{PageSize: pageSize, LeafSegs: e.leafSegs}).LeafEntryEstimate()
	bufBytes := cfg.MemBytes - e.globalO*pageSize - leaves
	if bufBytes < e.shards*pageSize {
		bufBytes = e.shards * pageSize
	}
	// Build arms the stuck-I/O watchdog at the default retry policy's
	// deadline, so a hanging device trips a transient timeout into the
	// retry/quarantine machine instead of stretching an op's latency.
	fr, _, _, err := core.Build(space, core.Spec{
		Shards:   e.shards,
		Capacity: int64(n) * 64,
		WAL:      true,
		Forest: core.ForestConfig{
			Partitioner: core.RangePartitioner{Bounds: bounds},
			Shard: core.Config{
				PageSize:    pageSize,
				LeafSegs:    e.leafSegs,
				OPQPages:    e.globalO,
				PioMax:      64,
				SPeriod:     5000,
				BCnt:        bcnt,
				BufferBytes: bufBytes,
				CPUPerNode:  cpuPerNode,
			},
			Heal:       sc.Heal,
			Evacuation: sc.Evacuation,
		},
	})
	if err != nil {
		return nil, err
	}
	e.recs = make([]kv.Record, n)
	for i := range e.recs {
		e.recs[i] = kv.Record{Key: uint64(i)*16 + 8, Value: uint64(i)}
	}
	if err := fr.BulkLoad(e.recs); err != nil {
		return nil, err
	}
	// Faults go live only now: the bulk load and file creation above ran
	// on a clean plane, so an injected program perturbs serving, not
	// setup.
	e.faults = cfg.FaultProgram
	if e.faults == "" {
		e.faults = sc.Faults
	}
	if e.faults != "" {
		prog, err := faultio.Parse(e.faults)
		if err != nil {
			return nil, err
		}
		if prog.Seed == 0 {
			prog.Seed = uint64(cfg.Seed)
		}
		space.SetInjector(faultio.New(prog))
	}
	e.fr = fr
	e.expected = int64(n)
	e.stripes = make([]*stripeState, sc.Stripes)
	for i := range e.stripes {
		e.stripes[i] = &stripeState{
			lo:        i * n / sc.Stripes,
			hi:        (i + 1) * n / sc.Stripes,
			nextFresh: make(map[int]uint64),
		}
	}
	return e, nil
}

func (e *engine) tuneParams(n, insertRatio float64) costmodel.TreeParams {
	return costmodel.TreeParams{
		N:                 n,
		F:                 float64(pageSize / kv.RecordSize),
		U:                 0.7,
		Ri:                insertRatio,
		Rs:                1 - insertRatio,
		M:                 float64(e.cfg.MemBytes / pageSize),
		OPQEntriesPerPage: float64(pageSize / kv.EntrySize),
	}
}

func (e *engine) maxO() int {
	maxO := e.cfg.MemBytes/pageSize - 1
	if maxO < e.shards {
		maxO = e.shards
	}
	return maxO
}

// phaseInsertRatio is the phase's weighted average insert ratio.
func phaseInsertRatio(ph Phase) float64 {
	total, ins := 0.0, 0.0
	for _, tn := range ph.Tenants {
		total += tn.Weight
		ins += tn.Weight * tn.InsertRatio
	}
	if total == 0 {
		return 0
	}
	return ins / total
}

// crashRestart drives the mid-scenario failure: a group Sync makes every
// buffered operation's redo record durable (the commit point), the crash
// drops all volatile state, and recovery replays the WALs. Losing any
// committed key is a hard scenario failure, not a metric.
func (e *engine) crashRestart(now vtime.Ticks, pr *PhaseResult) (vtime.Ticks, error) {
	now, err := e.fr.Sync(now)
	if err != nil {
		return now, err
	}
	e.fr.Crash()
	rep, recDone, err := e.fr.Recover(now)
	if err != nil {
		return recDone, err
	}
	pr.RedoneEntries = int64(rep.Total.RedoneEntries)
	pr.RecoverMS = (recDone - now).Millis()
	if got := e.fr.Count(); got != e.expected {
		return recDone, fmt.Errorf("crash-restart lost keys: forest holds %d, expected %d", got, e.expected)
	}
	return recDone, nil
}

// runPhase replays the phase's ops round-robin over the workload threads
// plus, when configured, one adaptation thread polling AutoRebalance.
// Returns the phase end time, the per-op latency samples, and the
// degraded-mode rejection counts (all ops, and the inserts among them).
func (e *engine) runPhase(base vtime.Ticks, ops []workload.Op) (vtime.Ticks, []vtime.Ticks, int, int, error) {
	threads := e.threads
	active := threads
	var opErr error
	rejected, rejectedInserts := 0, 0
	lat := make([]vtime.Ticks, 0, len(ops))
	workers := make([]*vtime.Thread, 0, threads)
	ths := make([]*vtime.Thread, 0, threads+1)
	for i := 0; i < threads; i++ {
		tid := i
		step := 0
		ths = append(ths, &vtime.Thread{ID: tid, Step: func(t *vtime.Thread) bool {
			idx := step*threads + tid
			step++
			if idx >= len(ops) || opErr != nil {
				active--
				return false
			}
			op := ops[idx]
			start := vtime.Max(t.Clock.Now(), base)
			var done vtime.Ticks
			var err error
			if op.Kind == workload.OpInsert {
				done, err = e.fr.Insert(start, op.Rec)
			} else {
				_, _, done, err = e.fr.Search(start, op.Rec.Key)
			}
			if err != nil {
				if errors.Is(err, core.ErrShardQuarantined) {
					// Degraded mode is availability loss, not scenario
					// failure: the shard's writes are refused between its
					// quarantine and its heal or evacuation. Count the
					// rejection and keep the client running — the baseline
					// gates how much rejection a scenario may see.
					rejected++
					if op.Kind == workload.OpInsert {
						rejectedInserts++
					}
					t.Clock.AdvanceTo(vtime.Max(done, start))
					return true
				}
				opErr = err
				active--
				return false
			}
			lat = append(lat, done-start)
			t.Clock.AdvanceTo(done)
			return true
		}})
	}
	workers = append(workers, ths...)
	if e.sc.Adapt.Interval > 0 {
		ths = append(ths, &vtime.Thread{ID: threads, Step: func(t *vtime.Thread) bool {
			if active == 0 || opErr != nil {
				return false
			}
			now := vtime.Max(t.Clock.Now(), base) + e.sc.Adapt.Interval
			next, err := e.adaptTick(now)
			if err != nil {
				opErr = err
				return false
			}
			t.Clock.AdvanceTo(vtime.Max(now, next))
			return true
		}})
	}
	s := vtime.NewScheduler(3*vtime.Microsecond, ths...)
	s.Run()
	// The phase ends when the WORKERS end: the adaptation thread's clock
	// parks one idle poll interval past the last op, and counting that
	// idle tail would understate every phase's throughput.
	end := base
	for _, t := range workers {
		end = vtime.Max(end, t.Clock.Now())
	}
	if opErr != nil {
		return end, nil, rejected, rejectedInserts, opErr
	}
	return end, lat, rejected, rejectedInserts, nil
}

// defaultDrainBudget bounds the adaptation thread's per-poll migration
// drain: a stuck (or fault-injected) migration yields back to the poll
// loop after this much charged vtime instead of freezing it, and the
// next poll resumes the drain where it stopped. Scenarios override it
// via Adapt.Policy.DrainBudget (negative = unbounded).
const defaultDrainBudget = 20 * vtime.Millisecond

// adaptTick is one adaptation poll: let AutoRebalance act on the shard
// load deltas. Returns the time the adaptation work finished.
func (e *engine) adaptTick(now vtime.Ticks) (vtime.Ticks, error) {
	pol := e.sc.Adapt.Policy
	if pol.DrainBudget == 0 {
		pol.DrainBudget = defaultDrainBudget
	}
	moved, _, _, done, err := e.fr.AutoRebalance(now, pol)
	if err != nil {
		return done, err
	}
	if moved {
		now = vtime.Max(now, done)
	}
	return now, nil
}

// latencySummary reduces latency samples to mean/p95/p99 microseconds.
func latencySummary(lat []vtime.Ticks) (mean, p95, p99 float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sorted := make([]vtime.Ticks, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum vtime.Ticks
	for _, l := range sorted {
		sum += l
	}
	pick := func(q float64) float64 {
		i := int(q*float64(len(sorted))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i].Micros()
	}
	return (sum / vtime.Ticks(len(sorted))).Micros(), pick(0.95), pick(0.99)
}
