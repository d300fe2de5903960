package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// Partitioner assigns keys to the shards of a Forest.
type Partitioner interface {
	// Shards returns the number of partitions.
	Shards() int
	// Shard returns the shard index owning key k.
	Shard(k kv.Key) int
	// RangeShards returns the ascending shard indexes that may hold keys
	// in [lo, hi).
	RangeShards(lo, hi kv.Key) []int
}

// mix64 is the splitmix64 finalizer, a cheap full-avalanche hash used to
// spread keys uniformly across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashPartitioner spreads keys across N shards with a 64-bit mix. Range
// searches touch every shard.
type HashPartitioner struct{ N int }

// Shards returns N.
func (h HashPartitioner) Shards() int { return h.N }

// Shard hashes k into [0, N).
func (h HashPartitioner) Shard(k kv.Key) int { return int(mix64(k) % uint64(h.N)) }

// RangeShards returns every shard: a hash partition cannot prune ranges.
func (h HashPartitioner) RangeShards(lo, hi kv.Key) []int {
	out := make([]int, h.N)
	for i := range out {
		out[i] = i
	}
	return out
}

// RangePartitioner splits the key space at ascending boundary keys: shard
// i covers [Bounds[i-1], Bounds[i]) with open outer edges, so range
// searches touch only the overlapping shards.
type RangePartitioner struct{ Bounds []kv.Key }

// Shards returns len(Bounds)+1.
func (r RangePartitioner) Shards() int { return len(r.Bounds) + 1 }

// Shard binary-searches the boundary list.
func (r RangePartitioner) Shard(k kv.Key) int {
	return sort.Search(len(r.Bounds), func(i int) bool { return k < r.Bounds[i] })
}

// RangeShards returns the shards overlapping [lo, hi).
func (r RangePartitioner) RangeShards(lo, hi kv.Key) []int {
	if hi <= lo {
		return nil
	}
	first := r.Shard(lo)
	last := r.Shard(hi - 1)
	out := make([]int, 0, last-first+1)
	for i := first; i <= last; i++ {
		out = append(out, i)
	}
	return out
}

// writeGang accumulates the deferred psync writes of one forest group
// flush, per page file in first-use order (kept deterministic), so the
// coordinator can concatenate every member's batch writes into a single
// psync submission.
type writeGang struct {
	order []*pagefile.PageFile
	reqs  map[*pagefile.PageFile][]ssdio.Req
}

func newWriteGang() *writeGang {
	return &writeGang{reqs: make(map[*pagefile.PageFile][]ssdio.Req)}
}

// add defers the given write runs of pf into the gang.
func (g *writeGang) add(pf *pagefile.PageFile, runs []pagefile.RunReq) error {
	rs, err := pf.GatherRuns(runs)
	if err != nil {
		return err
	}
	if _, ok := g.reqs[pf]; !ok {
		g.order = append(g.order, pf)
	}
	g.reqs[pf] = append(g.reqs[pf], rs...)
	return nil
}

// drop removes a member's deferred writes (its flush failed and the shard
// is rolling back — its pages must not reach the device).
func (g *writeGang) drop(pf *pagefile.PageFile) {
	if _, ok := g.reqs[pf]; !ok {
		return
	}
	delete(g.reqs, pf)
	order := g.order[:0]
	for _, p := range g.order {
		if p != pf {
			order = append(order, p)
		}
	}
	g.order = order
}

// submitSubset issues the selected batches (indexes into g.order) as one
// cross-file psync call. The fault-retry loop uses it to resubmit only
// the batches a partial gang failure left unapplied.
func (g *writeGang) submitSubset(at vtime.Ticks, idxs []int) (vtime.Ticks, error) {
	if len(idxs) == 0 {
		return at, nil
	}
	batches := make([]ssdio.GangBatch, len(idxs))
	for i, j := range idxs {
		pf := g.order[j]
		batches[i] = ssdio.GangBatch{F: pf.File(), Reqs: g.reqs[pf]}
	}
	return ssdio.PsyncGang(at, batches)
}

// logGang accumulates the WAL work of one forest group flush: which
// member logs need forcing (in first-registration order, once each: a
// member registers its log at every deferred force) and each member's
// FlushEnd record, keyed by the member's log, whose append must wait
// until the group's data writes are on the device.
type logGang struct {
	order []*wal.Log
	seen  map[*wal.Log]bool
	ends  map[*wal.Log]wal.Record
}

func newLogGang() *logGang {
	return &logGang{seen: make(map[*wal.Log]bool), ends: make(map[*wal.Log]wal.Record)}
}

// need registers l for the next ganged force.
func (g *logGang) need(l *wal.Log) {
	if !g.seen[l] {
		g.seen[l] = true
		g.order = append(g.order, l)
	}
}

// deferEnd holds back a member's FlushEnd record for the commit force.
func (g *logGang) deferEnd(l *wal.Log, r wal.Record) {
	g.need(l)
	g.ends[l] = r
}

// ForestConfig parameterizes a sharded PIO forest.
type ForestConfig struct {
	// Partitioner routes keys to shards; nil defaults to a HashPartitioner
	// over the number of page files passed to NewForest.
	Partitioner Partitioner
	// RipeFraction is the OPQ fill ratio at which a shard joins a group
	// flush triggered by another shard (0 < f <= 1; default 0.5). Lower
	// values merge more aggressively.
	RipeFraction float64
	// Shard is the per-shard tree configuration, except that OPQPages and
	// BufferBytes are GLOBAL budgets which the forest splits evenly across
	// shards (each shard keeps at least one OPQ page / one buffer frame),
	// extending the eq.-(10) tuning to the sharded setting.
	Shard Config

	// Logs enables write-ahead logging: nil disables it; otherwise it
	// holds one distinct log per page file, and shard i logs to Logs[i].
	// All log files must live on the same ssdio.Space as the page files
	// for group commit to gang their forces.
	Logs []*wal.Log
	// DisableLogGang makes every group-flush member force its own log
	// serially (the per-shard baseline) instead of riding the coordinator's
	// two-phase ganged force; used by the recovery bench as the comparison
	// point.
	DisableLogGang bool

	// MigrationChunk bounds the keys streamed per online-rebalancing chunk
	// (default 256). Smaller chunks shorten the source-lock hold per step;
	// larger chunks amortize the per-chunk log forces.
	MigrationChunk int

	// Heal drives the auto-heal prober over quarantined shards; the zero
	// value enables it with defaults (see HealPolicy).
	Heal HealPolicy
	// Evacuation bounds how long a quarantined shard may stay un-healed
	// before AutoRebalance migrates its range onto healthy shards; the
	// zero value enables it with defaults (see EvacuationPolicy).
	Evacuation EvacuationPolicy
}

// forestShard pairs one PIO B-tree with its two locking planes: the real
// mutex makes the unsynchronized Tree safe for goroutine use (plain
// mutual exclusion — the simulator executes one operation at a time), and
// the virtual locks model the paper's concurrency scheme per shard
// (searches share the index; an OPQ flush excludes everything, but now
// only within its own shard).
type forestShard struct {
	mu    sync.Mutex
	tree  *Tree
	vlock vtime.Mutex // per-shard index-exclusive lock (flushes)
	vopq  vtime.Mutex // per-shard OPQ append/sort lock

	// ops counts the operations routed to this shard (guarded by mu); the
	// per-shard load signal AutoRebalance splits hotspots on.
	ops int64

	// health is the shard's state in the self-healing automaton; the
	// fields after it are the data its states carry, all written only by
	// transition (healing.go): the fault behind the state, the incident
	// start, and the auto-heal probe schedule.
	health     shardHealth // guarded by mu
	cause      error       // guarded by mu
	since      vtime.Ticks // guarded by mu
	probeFrom  vtime.Ticks // guarded by mu
	probeFails int         // guarded by mu
}

// readErr rejects reads of an offline shard, which has nothing coherent
// to serve; a quarantined one serves its committed state. Caller holds s.mu.
func (s *forestShard) readErr(si int) error {
	if s.health == offline {
		return shardQuarantinedErr(si, s.cause)
	}
	return nil
}

// writeErr rejects writes to a non-writable shard. Caller holds s.mu.
func (s *forestShard) writeErr(si int) error {
	if !s.health.writable() {
		return shardQuarantinedErr(si, s.cause)
	}
	return nil
}

// ripe reports whether the shard's OPQ is filled to the given fraction.
// Caller holds s.mu.
func (s *forestShard) ripe(frac float64) bool {
	n := s.tree.opq.Len()
	min := int(frac * float64(s.tree.opq.Cap()))
	if min < 1 {
		min = 1
	}
	return n >= min
}

// Forest is a sharded PIO B-tree: keys are partitioned across independent
// trees, each with its own OPQ and pagefile region, replacing the single
// whole-index exclusive flush lock with per-shard locks. A flush on one
// shard no longer blocks searches on any other. When several shards'
// OPQs are ripe at flush time, the coordinator flushes them as a group
// starting at the same virtual instant and concatenates their batch
// writes into a single psync submission — a second level of the paper's
// eq.-(10) batching that keeps the device's channels saturated.
//
// All methods are safe for concurrent goroutine use.
type Forest struct {
	part     Partitioner
	shards   []*forestShard
	ripeFrac float64

	// rpart is the routing table behind part: every forest wraps its
	// configured partitioner in a RebalancingPartitioner so key ranges can
	// migrate between shards while serving.
	rpart *RebalancingPartitioner
	// migMu orders migration chunks (writers) against multi-shard sweeps
	// (readers): a chunk atomically moves keys between two shards, so a
	// sweep reading the shards one at a time must not straddle it.
	migMu           sync.RWMutex
	rebalanceActive atomic.Bool
	migIDSeq        atomic.Uint64
	migrations      atomic.Int64
	keysMigrated    atomic.Int64
	migChunk        int
	autoMu          sync.Mutex
	// lastOps is the per-shard op count at the previous AutoRebalance
	// poll (guarded by autoMu).
	lastOps []int64
	// autoMig is an AutoRebalance migration still in flight after a
	// bounded drain ran out of budget; later polls resume it (guarded by
	// autoMu).
	autoMig *Migration

	// logs holds shard i's WAL at index i (empty without logging);
	// logGangEnabled selects ganged vs serial group-commit forces.
	logs           []*wal.Log
	logGangEnabled bool

	groupFlushes   atomic.Int64
	groupedShards  atomic.Int64
	gangSubmits    atomic.Int64
	logGangSubmits atomic.Int64

	// retry bounds the coordinator-level retry loops (data gang, ganged
	// log forces); the per-shard trees carry their own copy in cfg. The
	// atomic counters mirror retryStats for the coordinator's submissions.
	retry              RetryPolicy
	ioRetries          atomic.Int64
	ioRetryBackoff     atomic.Int64
	ioRetriesExhausted atomic.Int64
	watchdogTimeouts   atomic.Int64

	// Self-healing control plane: heal/evac are the normalized policies,
	// the counters mirror the prober's and the evacuator's activity.
	heal            HealPolicy
	evac            EvacuationPolicy
	healProbes      atomic.Int64
	autoHeals       atomic.Int64
	evacuations     atomic.Int64
	evacChunks      atomic.Int64
	migrationAborts atomic.Int64

	// damaged, once set, fails every mutating operation: a group commit
	// failed after members already updated their in-memory state, so
	// memory and disk no longer agree. Crash+Recover clears it. An atomic
	// keeps the per-operation check off the shard-independence hot path.
	damaged atomic.Pointer[error]
}

// setDamaged records the first unrecoverable group-commit failure.
func (f *Forest) setDamaged(err error) {
	if err == nil {
		err = fmt.Errorf("core: group commit failed")
	}
	f.damaged.CompareAndSwap(nil, &err)
}

// checkDamaged rejects mutating operations on a damaged forest.
func (f *Forest) checkDamaged() error {
	if p := f.damaged.Load(); p != nil {
		return fmt.Errorf("core: forest damaged by failed group commit (%w); Crash and Recover to restore consistency", *p)
	}
	return nil
}

// retryIO is retryTimedIO with the coordinator's policy and counters.
func (f *Forest) retryIO(at vtime.Ticks, op func(vtime.Ticks) (vtime.Ticks, error)) (vtime.Ticks, error) {
	var rs retryStats
	done, err := retryTimedIO(f.retry, &rs, at, op)
	f.ioRetries.Add(rs.IORetries)
	f.ioRetryBackoff.Add(int64(rs.IORetryBackoff))
	f.ioRetriesExhausted.Add(rs.IORetriesExhausted)
	f.watchdogTimeouts.Add(rs.WatchdogTimeouts)
	return done, err
}

// shardQuarantinedErr wraps ErrShardQuarantined with the shard index and
// the fault that triggered the quarantine.
func shardQuarantinedErr(si int, cause error) error {
	return fmt.Errorf("core: shard %d: %w (cause: %v)", si, ErrShardQuarantined, cause)
}

// quarantineShard moves a shard into read-only degraded mode after an
// attributable I/O failure: roll the tree back to its last committed
// state (restore the durable snapshot, drop volatile state, replay the
// durable log — a shard-local crash recovery) and mark it quarantined.
// A shard without a WAL cannot roll back, and a rollback that itself
// fails leaves memory and disk divorced — both escalate to the
// forest-wide damaged mark. Caller holds s.mu; returns the rollback's
// completion time.
func (f *Forest) quarantineShard(at vtime.Ticks, s *forestShard, cause error) vtime.Ticks {
	//lint:ignore guardedby caller holds s.mu (see contract above)
	if !s.health.writable() {
		return at
	}
	if s.tree.log == nil {
		f.setDamaged(cause)
		return at
	}
	ev := evFail
	done, err := s.tree.rollbackToDurable(at)
	if err != nil {
		if !IsIOFault(err) {
			// The replay itself is broken (decode/validation): memory and
			// disk are divorced beyond shard-local containment.
			f.setDamaged(fmt.Errorf("core: quarantine rollback failed: %w (original fault: %v)", err, cause))
			return done
		}
		// The device is still failing (e.g. a permanently dead file): the
		// shard goes fully offline — reads rejected too, since its
		// in-memory state is mid-replay — but the rest of the forest keeps
		// serving. Heal re-runs the rollback once the device recovers.
		ev = evReplayFail
		cause = fmt.Errorf("%v (rollback also failed: %v)", cause, err)
	}
	//lint:ignore guardedby caller holds s.mu (see contract above)
	s.transition(ev, at, done, cause)
	return done
}

// ForestStats aggregates shard counters and coordinator activity.
type ForestStats struct {
	// Shards is the partition count.
	Shards int
	// Tree sums the per-shard tree counters.
	Tree Stats
	// GroupFlushes counts coordinator invocations, GroupedShards the
	// shards they flushed (GroupedShards/GroupFlushes = mean group size).
	GroupFlushes  int64
	GroupedShards int64
	// GangSubmits counts merged cross-shard psync submissions.
	GangSubmits int64
	// LogGangSubmits counts ganged (group-commit) log-force submissions;
	// LogForceWrites counts per-log serial Force submissions; LogSubmits is
	// their sum — the total number of blocking log-plane submissions.
	LogGangSubmits int64
	LogForceWrites int64
	LogSubmits     int64
	// LogTruncatedBytes sums the log bytes reclaimed by checkpoint head
	// truncation across all attached logs.
	LogTruncatedBytes int64
	// RoutingEpoch is the routing-table version; Migrations counts
	// committed online rebalancing moves, MigratedKeys the keys they
	// streamed; MigrationActive reports a move in flight.
	RoutingEpoch    uint64
	Migrations      int64
	MigratedKeys    int64
	MigrationActive bool
	// ShardLoads holds shard i's load signal at index i — the input to
	// the AutoRebalance policy.
	ShardLoads []ShardLoad
	// VLockWaits / VLockContended sum the per-shard virtual index-lock
	// contention.
	VLockWaits     int64
	VLockContended vtime.Ticks
	// Pending is the total number of OPQ-buffered operations.
	Pending int
	// QuarantinedShards counts shards in read-only degraded mode;
	// IORetries / IORetryBackoff / IORetriesExhausted aggregate the
	// transient-fault retry activity of the shard trees and the flush
	// coordinator (gang and log-force resubmissions).
	QuarantinedShards  int
	IORetries          int64
	IORetryBackoff     vtime.Ticks
	IORetriesExhausted int64
	// WatchdogTimeouts counts stuck-I/O watchdog firings across the shard
	// trees and the flush coordinator — hanging submissions abandoned at
	// their vtime deadline instead of stalling the caller.
	WatchdogTimeouts int64
	// Self-healing control plane: HealProbes counts auto-heal probe I/Os
	// issued by quarantined shards, AutoHeals the probes whose Heal
	// replay re-admitted the shard. Evacuations counts committed
	// quarantine evacuations, EvacuatedChunks the chunks they streamed,
	// and EvacuatedShards the shards currently routing through an
	// evacuation rule (excluded from QuarantinedShards: their degraded
	// state no longer affects availability).
	HealProbes      int64
	AutoHeals       int64
	Evacuations     int64
	EvacuatedChunks int64
	EvacuatedShards int
	// MigrationAborts counts migrations (evacuations included) aborted by
	// an attributable I/O failure and resolved in place — the failing
	// shards quarantined, the routing left at the kept prefix.
	MigrationAborts int64
}

// ShardLoad is one shard's load signal.
type ShardLoad struct {
	// Ops counts the operations routed to the shard since open.
	Ops int64
	// Keys is the shard's live record count, Pending its queued updates.
	Keys    int64
	Pending int
	// OPQPages is the shard's current operation-queue page budget
	// (changes when ApplyOPQBudget installs a retuned split).
	OPQPages int
	// Quarantined reports read-only degraded mode; Evacuated reports that
	// the shard's range has been migrated onto healthy shards (an
	// evacuated shard stays quarantined but is skipped by sweeps).
	Quarantined bool
	Evacuated   bool
}

// NewForest builds a forest of len(pfs) shards, one tree per page file.
// The page files must live on files of one ssdio.Space (one device) for
// group flushes to merge their submissions. cfg.Shard.OPQPages and
// cfg.Shard.BufferBytes are global budgets split evenly across shards.
func NewForest(pfs []*pagefile.PageFile, cfg ForestConfig) (*Forest, error) {
	n := len(pfs)
	if n < 1 {
		return nil, fmt.Errorf("core: forest needs at least one shard")
	}
	if cfg.Shard.PageSize <= 0 {
		return nil, fmt.Errorf("core: forest shard config needs a positive PageSize, got %d", cfg.Shard.PageSize)
	}
	part := cfg.Partitioner
	if part == nil {
		part = HashPartitioner{N: n}
	}
	if err := ValidatePartitioner(part, n); err != nil {
		return nil, err
	}
	if len(cfg.Logs) != 0 && len(cfg.Logs) != n {
		return nil, fmt.Errorf("core: forest got %d WAL logs, want 0 (none) or %d (one per shard)", len(cfg.Logs), n)
	}
	logIdx := make(map[*wal.Log]int, len(cfg.Logs))
	for i, l := range cfg.Logs {
		if l == nil {
			return nil, fmt.Errorf("core: forest WAL log %d is nil", i)
		}
		if j, dup := logIdx[l]; dup {
			return nil, fmt.Errorf("core: forest WAL logs %d and %d are the same log; each shard needs its own", j, i)
		}
		logIdx[l] = i
	}
	ripe := cfg.RipeFraction
	if ripe <= 0 || ripe > 1 {
		ripe = 0.5
	}
	// Every forest routes through a RebalancingPartitioner so key ranges
	// can migrate between live shards; a plain Range/Hash partitioner is
	// wrapped with an empty rule set (identical routing until a split or
	// merge commits).
	rpart, isWrapped := part.(*RebalancingPartitioner)
	if !isWrapped {
		var err error
		rpart, err = NewRebalancingPartitioner(part, n)
		if err != nil {
			return nil, err
		}
	}
	chunk := cfg.MigrationChunk
	if chunk <= 0 {
		chunk = 256
	}
	shardCfg := cfg.Shard
	shardCfg.OPQPages = splitBudget(cfg.Shard.OPQPages, n)
	shardCfg.BufferBytes = splitBudget(cfg.Shard.BufferBytes/cfg.Shard.PageSize, n) * cfg.Shard.PageSize
	f := &Forest{
		part: rpart, rpart: rpart, ripeFrac: ripe,
		logs:           append([]*wal.Log(nil), cfg.Logs...),
		logGangEnabled: !cfg.DisableLogGang,
		migChunk:       chunk,
		retry:          cfg.Shard.Retry,
		heal:           cfg.Heal.norm(),
		evac:           cfg.Evacuation.norm(),
	}
	for i, pf := range pfs {
		c := shardCfg
		c.Relation = cfg.Shard.Relation + uint32(i)
		tr, err := New(pf, c)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		if len(f.logs) > 0 {
			tr.AttachWAL(f.logs[i])
		}
		f.shards = append(f.shards, &forestShard{tree: tr})
	}
	return f, nil
}

// ValidatePartitioner rejects misconfigured partitioners before they can
// misroute or crash the forest: a HashPartitioner with N <= 0 divides by
// zero on its first Shard call, and a RangePartitioner with unsorted or
// duplicate bounds silently sends keys to the wrong shards.
func ValidatePartitioner(p Partitioner, shards int) error {
	if p.Shards() != shards {
		return fmt.Errorf("core: partitioner has %d shards, %d page files given", p.Shards(), shards)
	}
	switch pt := p.(type) {
	case *RebalancingPartitioner:
		rt := pt.cur.Load()
		if err := ValidatePartitioner(rt.base, shards); err != nil {
			return err
		}
		if err := validateRules(rt.rules, shards); err != nil {
			return err
		}
	case HashPartitioner:
		if pt.N <= 0 {
			return fmt.Errorf("core: hash partitioner N must be positive, got %d", pt.N)
		}
	case RangePartitioner:
		for i := 1; i < len(pt.Bounds); i++ {
			if pt.Bounds[i-1] == pt.Bounds[i] {
				return fmt.Errorf("core: range partitioner has duplicate bound %d at index %d", pt.Bounds[i], i)
			}
			if pt.Bounds[i-1] > pt.Bounds[i] {
				return fmt.Errorf("core: range partitioner bounds not ascending at index %d (%d > %d)", i, pt.Bounds[i-1], pt.Bounds[i])
			}
		}
	}
	return nil
}

// splitBudget divides a global page budget across n shards, keeping at
// least one page per shard.
func splitBudget(global, n int) int {
	per := global / n
	if per < 1 {
		per = 1
	}
	return per
}

// ShardCount returns the number of shards.
func (f *Forest) ShardCount() int { return len(f.shards) }

// Routing returns the forest's routing table — the rebalancing wrapper
// every forest installs over its configured partitioner.
func (f *Forest) Routing() *RebalancingPartitioner { return f.rpart }

// ShardTree returns shard i's tree for inspection. The caller must ensure
// no concurrent forest use (testing/validation only).
func (f *Forest) ShardTree(i int) *Tree {
	s := f.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree
}

// BulkLoad partitions key-sorted records across the shards and bulk-loads
// each (initial setup, no simulated cost).
func (f *Forest) BulkLoad(recs []kv.Record) error {
	parts := make([][]kv.Record, len(f.shards))
	for _, r := range recs {
		si := f.part.Shard(r.Key)
		parts[si] = append(parts[si], r)
	}
	for i, s := range f.shards {
		s.mu.Lock()
		err := s.tree.BulkLoad(parts[i])
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: forest shard %d: %w", i, err)
		}
	}
	return nil
}

// lockOwner locks and returns the shard that authoritatively owns k,
// rerouting after acquiring the lock: a migration chunk may advance the
// routing frontier between the route lookup and the lock. The frontier
// only moves while both affected shards are locked, so the recheck under
// the shard's own lock is stable — this is the lookup side of the
// migration map's dual routing.
func (f *Forest) lockOwner(k kv.Key) (int, *forestShard) {
	for {
		si := f.part.Shard(k)
		s := f.shards[si]
		s.mu.Lock()
		if f.part.Shard(k) == si {
			return si, s
		}
		s.mu.Unlock()
	}
}

// Search performs a point search on the owning shard. In virtual time,
// readers share the shard but cannot start below its flush lock horizon;
// flushes on other shards do not delay them at all.
func (f *Forest) Search(at vtime.Ticks, k kv.Key) (kv.Value, bool, vtime.Ticks, error) {
	// Reads are rejected too: on a damaged forest the in-memory structure
	// may point at pages whose writes never reached the device.
	if err := f.checkDamaged(); err != nil {
		return 0, false, at, err
	}
	si, s := f.lockOwner(k)
	defer s.mu.Unlock()
	if err := s.readErr(si); err != nil {
		return 0, false, at, err
	}
	s.ops++
	start := vtime.Max(at, s.vlock.FreeAt())
	return s.tree.Search(start, k)
}

// SearchMany partitions the keys across shards and runs one MPSearch per
// involved shard, all starting at the caller's time (the shard descents
// proceed in parallel in virtual time); the result is the merged map and
// the latest completion.
func (f *Forest) SearchMany(at vtime.Ticks, keys []kv.Key) (map[kv.Key]kv.Value, vtime.Ticks, error) {
	if err := f.checkDamaged(); err != nil {
		return nil, at, err
	}
	// A multi-shard sweep must not straddle a migration chunk, or a key
	// moving between two already-visited shards could be seen twice or
	// not at all. The read lock freezes the frontier for the sweep.
	f.migMu.RLock()
	defer f.migMu.RUnlock()
	byShard := make(map[int][]kv.Key)
	for _, k := range keys {
		si := f.part.Shard(k)
		byShard[si] = append(byShard[si], k)
	}
	out := make(map[kv.Key]kv.Value, len(keys))
	done := at
	for si := 0; si < len(f.shards); si++ {
		ks, ok := byShard[si]
		if !ok {
			continue
		}
		s := f.shards[si]
		s.mu.Lock()
		if err := s.readErr(si); err != nil {
			s.mu.Unlock()
			return nil, at, err
		}
		s.ops += int64(len(ks))
		start := vtime.Max(at, s.vlock.FreeAt())
		m, d, err := s.tree.SearchMany(start, ks)
		s.mu.Unlock()
		if err != nil {
			return nil, d, err
		}
		for k, v := range m {
			out[k] = v
		}
		done = vtime.Max(done, d)
	}
	return out, done, nil
}

// RangeSearch runs the parallel range search on every shard that may hold
// [lo, hi) (all shards under hash partitioning, the overlapping ones
// under range partitioning) and merges the results in key order.
func (f *Forest) RangeSearch(at vtime.Ticks, lo, hi kv.Key) ([]kv.Record, vtime.Ticks, error) {
	if err := f.checkDamaged(); err != nil {
		return nil, at, err
	}
	// Freeze the migration frontier across the sweep (see SearchMany).
	f.migMu.RLock()
	defer f.migMu.RUnlock()
	var recs []kv.Record
	done := at
	for _, si := range f.part.RangeShards(lo, hi) {
		s := f.shards[si]
		s.mu.Lock()
		if s.health == retired {
			// A retired shard's committed copies live on its destination
			// now; the stale physical copies it retains (its device rejects
			// the deletes) must not surface twice.
			s.mu.Unlock()
			continue
		}
		if err := s.readErr(si); err != nil {
			s.mu.Unlock()
			return nil, at, err
		}
		s.ops++
		start := vtime.Max(at, s.vlock.FreeAt())
		rs, d, err := s.tree.RangeSearch(start, lo, hi)
		s.mu.Unlock()
		if err != nil {
			return nil, d, err
		}
		recs = append(recs, rs...)
		done = vtime.Max(done, d)
	}
	kv.SortRecords(recs)
	return recs, done, nil
}

// Insert buffers an index-insert on the owning shard; a full shard OPQ
// triggers a group flush.
func (f *Forest) Insert(at vtime.Ticks, r kv.Record) (vtime.Ticks, error) {
	return f.update(at, kv.Entry{Rec: r, Op: kv.OpInsert})
}

// Delete buffers an index-delete.
func (f *Forest) Delete(at vtime.Ticks, k kv.Key) (vtime.Ticks, error) {
	return f.update(at, kv.Entry{Rec: kv.Record{Key: k}, Op: kv.OpDelete})
}

// Update buffers an index-update.
func (f *Forest) Update(at vtime.Ticks, r kv.Record) (vtime.Ticks, error) {
	return f.update(at, kv.Entry{Rec: r, Op: kv.OpUpdate})
}

func (f *Forest) update(at vtime.Ticks, e kv.Entry) (vtime.Ticks, error) {
	if err := f.checkDamaged(); err != nil {
		return at, err
	}
	var s *forestShard
	for {
		var si int
		si, s = f.lockOwner(e.Rec.Key)
		//lint:ignore guardedby lockOwner returned with s.mu held for this shard
		if err := s.writeErr(si); err != nil {
			s.mu.Unlock()
			return at, err
		}
		if !s.tree.opq.Full() {
			break
		}
		s.mu.Unlock()
		done, err := f.flushGroup(at, si)
		if err != nil {
			return done, err
		}
		at = done
	}
	//lint:ignore guardedby lockOwner returned with s.mu held for this shard
	s.ops++
	// The short per-shard OPQ lock covers the append (and the occasional
	// periodic sort inside it), as in the single-tree scheme.
	start := s.vopq.Acquire(at)
	var done vtime.Ticks
	var err error
	switch e.Op {
	case kv.OpInsert:
		done, err = s.tree.Insert(start, e.Rec)
	case kv.OpDelete:
		done, err = s.tree.Delete(start, e.Rec.Key)
	default:
		done, err = s.tree.Update(start, e.Rec)
	}
	s.vopq.Release(done)
	s.mu.Unlock()
	return done, err
}

// flushGroup is the cross-shard flush coordinator. It collects the
// triggering shard plus every other shard whose OPQ is ripe, flushes them
// all starting at the same virtual instant (their reads contend on the
// shared device's channel timelines exactly as truly parallel flushes
// would), and submits every member's batch writes as ONE concatenated
// psync call. Each member's virtual flush lock is held from the group
// start to the merged-write completion, so only member shards' readers
// are delayed.
func (f *Forest) flushGroup(at vtime.Ticks, trigger int) (vtime.Ticks, error) {
	// Lock candidates in ascending shard order (deadlock-free against
	// concurrent group flushes) and keep only the members locked: every
	// shard appends to its own log, so a non-member's enqueue path never
	// touches a log the coordinator is about to force.
	//
	// Mid-migration shards are excluded from gang membership: their
	// virtual locks are pinned by chunk streaming for long stretches (a
	// group holding them would stall every member behind the chunk), and
	// keeping a half-migrated range out of the group's deferred FlushEnd
	// commit keeps the migration's chunk commit points and the group's
	// flush commit points independent. A migrating shard whose own OPQ
	// fills still flushes — solo.
	msrc, mdst, mact := f.rpart.Migrating()
	migrating := func(i int) bool { return mact && (i == msrc || i == mdst) }
	var group []*forestShard
	for i, s := range f.shards {
		s.mu.Lock()
		// Quarantined shards never join a flush: their OPQ holds replayed
		// (already durable) entries and their device may still be failing.
		keep := false
		if i == trigger {
			keep = s.health.writable() && s.tree.opq.Len() > 0
		} else if !migrating(i) && !migrating(trigger) {
			keep = s.health.writable() && s.ripe(f.ripeFrac)
		}
		if keep {
			group = append(group, s)
		} else {
			s.mu.Unlock()
		}
	}
	unlock := func() {
		for _, s := range group {
			s.mu.Unlock()
		}
	}
	if len(group) == 0 {
		// A racing group flush already drained the trigger shard.
		unlock()
		return at, nil
	}
	f.groupFlushes.Add(1)
	f.groupedShards.Add(int64(len(group)))

	if len(group) == 1 {
		// Single member: flush exactly like the single-tree scheme (no
		// gang), so a one-shard forest reproduces Concurrent's timings.
		s := group[0]
		start := s.vlock.Acquire(at)
		done, err := s.tree.FlushBatch(start, s.tree.cfg.BCnt)
		switch {
		case err == nil:
			//lint:ignore guardedby member flush lock s.mu held until unlock below
			s.transition(evFlushCommit, done, done, nil)
		case IsIOFault(err) && s.tree.log != nil:
			// Retries inside the flush are exhausted (or the device failed
			// permanently): contain the failure to this shard and let the
			// rest of the forest keep serving.
			done = f.quarantineShard(done, s, err)
			if f.damaged.Load() == nil {
				err = nil
			}
		}
		s.vlock.Release(done)
		unlock()
		return done, err
	}

	gang := newWriteGang()
	lg := newLogGang()
	front := at
	var flushErr error // unattributable failure — escalates to damaged
	acquired := 0
	// quar collects members hit by attributable I/O failures; their
	// rollback replays run after phase 2, when this round's durable log
	// is as complete as it will get. flushed marks members whose data
	// made it through every phase (their durable meta advances).
	quar := make(map[*forestShard]error)
	flushed := make([]bool, len(group))
	for gi, s := range group {
		start := s.vlock.Acquire(at)
		acquired++
		s.tree.gang = gang
		if s.tree.log != nil && !s.tree.cfg.DisablePsync {
			// Log work is deferred into the two-phase group commit (the WAL
			// rule needs FlushEnd held back past the data gang);
			// logGangEnabled only selects ganged vs serial forcing. Under
			// the psync ablation the data writes are NOT deferred, so the
			// log forces must stay inline with them (no deferral).
			s.tree.walGang = lg
		}
		done, err := s.tree.FlushBatch(start, s.tree.cfg.BCnt)
		s.tree.gang, s.tree.walGang = nil, nil
		front = vtime.Max(front, done)
		if err != nil {
			// Stop starting new flushes. An I/O failure (read retries
			// exhausted, permanent device error) quarantines just this
			// member: its half-prepared deferred writes are dropped and its
			// tree rolls back below. Its log appends stay in the tail —
			// FlushStart without FlushEnd, which any replay undoes. Members
			// that already flushed still commit: their deferred writes must
			// reach the device.
			if IsIOFault(err) && s.tree.log != nil {
				quar[s] = err
				gang.drop(s.tree.pf)
			} else {
				flushErr = err
			}
			break
		}
		flushed[gi] = true
	}
	// Group commit phase 1 (prepare): force every member's FlushStart,
	// logical redo and flush undo records BEFORE any data write reaches
	// the device — the WAL rule, paid as one ganged submission (or N
	// serial forces under the per-shard baseline). Runs even after a
	// member error: completed members' undo records must cover their
	// deferred writes.
	prepared := true
	if len(lg.order) > 0 {
		done, err := f.forceLogs(front, lg.order)
		if err != nil {
			if IsIOFault(err) {
				// Attribute the failure: forceLogs commits every member whose
				// write landed (partial gangs included), so a log still
				// holding an unforced tail marks exactly the members whose
				// prepare records are not durable. Those members' data writes
				// may not go out — they roll back and quarantine — while
				// members with durable records carry on: their undo records
				// cover their deferred writes.
				anyForced := false
				for gi, s := range group[:acquired] {
					if s.tree.log != nil && s.tree.log.Unforced() {
						if _, ok := quar[s]; !ok {
							quar[s] = err
						}
						gang.drop(s.tree.pf)
						flushed[gi] = false
					} else {
						anyForced = true
					}
				}
				prepared = anyForced
			} else {
				// Without durable undo records no data write may go out.
				prepared = false
				if flushErr == nil {
					flushErr = err
				}
			}
		}
		front = done
	}
	done := front
	if prepared {
		var failed map[*pagefile.PageFile]error
		var fatal error
		done, failed, fatal = f.submitGang(front, gang)
		if fatal != nil {
			prepared = false
			if flushErr == nil {
				flushErr = fatal
			}
		}
		// Members whose batches never landed (retries exhausted or a
		// permanent fault) roll back; survivors carry on to phase 2 with
		// their data on the device.
		for gi, s := range group[:acquired] {
			if e, ok := failed[s.tree.pf]; ok {
				if _, ok2 := quar[s]; !ok2 {
					quar[s] = e
				}
				flushed[gi] = false
			}
		}
	}
	// Group commit phase 2: only after the data writes reached the device
	// may FlushEnd records become durable — a FlushEnd without its data
	// would make recovery skip redo records for pages that were never
	// written. Quarantined members' deferred ends are withheld for the
	// same reason: their data was dropped or never landed, so a durable
	// FlushEnd would lose it. A crash or error between the phases leaves
	// FlushStart without FlushEnd, which recovery undoes.
	if prepared && len(lg.ends) > 0 {
		// Each surviving member appends its FlushEnd to its own log, and
		// only those logs are forced, in ascending shard order: a
		// quarantined member's log (dead device, withheld end) would burn
		// the whole retry budget again for records phase 1 gave up on.
		var ended []*wal.Log
		for _, s := range group[:acquired] {
			rec, ok := lg.ends[s.tree.log]
			if _, q := quar[s]; !ok || q {
				continue
			}
			s.tree.log.Append(rec)
			ended = append(ended, s.tree.log)
		}
		if len(ended) > 0 {
			done2, err2 := f.forceLogs(done, ended)
			if err2 != nil {
				if IsIOFault(err2) {
					// A survivor's memory says flushed, but its FlushEnd is
					// not durable: a replay would undo the flush. Roll back
					// exactly the members whose end-force did not land to the
					// state the log actually describes.
					for gi, s := range group[:acquired] {
						if flushed[gi] && s.tree.log != nil && s.tree.log.Unforced() {
							if _, ok := quar[s]; !ok {
								quar[s] = err2
							}
							flushed[gi] = false
						}
					}
				} else if flushErr == nil {
					flushErr = err2
				}
			}
			done = done2
		}
	}
	if flushErr != nil {
		// Unattributable failure: some member's in-memory state and the
		// disk no longer agree and no shard-local rollback can prove
		// otherwise. Poison the forest until Crash+Recover rebuilds a
		// consistent state from the durable log.
		f.setDamaged(flushErr)
	}
	for gi, s := range group[:acquired] {
		if flushed[gi] {
			// This member's flush is durable end to end: a new rollback
			// baseline — and proof the device is really back, so a
			// probation's incident ends.
			s.tree.commitDurableMeta()
			//lint:ignore guardedby member flush lock s.mu held until release below
			s.transition(evFlushCommit, done, done, nil)
		}
	}
	// Rollback replays for the quarantined members, charged on the vtime
	// clock while their flush locks are still held (readers wait for the
	// rollback exactly as they would for the flush).
	for _, s := range group[:acquired] {
		if e, ok := quar[s]; ok {
			done = f.quarantineShard(done, s, e)
		}
	}
	// Only members whose flush actually started hold the virtual lock.
	for _, s := range group[:acquired] {
		s.vlock.Release(done)
	}
	unlock()
	return done, flushErr
}

// submitGang submits the group's merged data writes, retrying batches
// that failed transiently (a partial gang applies whole batches or none,
// so a resubmission never double-writes). Returns the page files whose
// batches never landed — mapped to their owning shards for quarantine —
// and a fatal error for unattributable whole-gang failures.
func (f *Forest) submitGang(at vtime.Ticks, gang *writeGang) (vtime.Ticks, map[*pagefile.PageFile]error, error) {
	pending := make([]int, len(gang.order))
	for i := range pending {
		pending[i] = i
	}
	failed := make(map[*pagefile.PageFile]error)
	pol := f.retry.norm()
	for attempt := 0; ; attempt++ {
		done, err := gang.submitSubset(at, pending)
		f.gangSubmits.Add(1)
		if err == nil {
			return done, failed, nil
		}
		var pge *ssdio.PartialGangError
		if errors.As(err, &pge) {
			// Landed batches are out of the picture; permanent per-batch
			// faults fail their owner immediately, transient ones retry.
			var next []int
			for _, flt := range pge.Faults {
				if IsWatchdogTimeout(flt.Err) {
					f.watchdogTimeouts.Add(1)
				}
				orig := pending[flt.Batch]
				if IsTransientIO(flt.Err) {
					next = append(next, orig)
				} else {
					failed[gang.order[orig]] = flt.Err
				}
			}
			pending = next
		} else {
			if IsWatchdogTimeout(err) {
				f.watchdogTimeouts.Add(1)
			}
			if !IsTransientIO(err) {
				return done, failed, err
			}
		}
		if len(pending) == 0 {
			return done, failed, nil
		}
		if f.retry.Disabled || attempt >= pol.MaxRetries {
			f.ioRetriesExhausted.Add(1)
			for _, j := range pending {
				failed[gang.order[j]] = err
			}
			return done, failed, nil
		}
		wait := backoff(pol.BaseBackoff, pol.MaxBackoff, attempt)
		f.ioRetries.Add(1)
		f.ioRetryBackoff.Add(int64(wait))
		at = done + wait
	}
}

// forceLogs makes the registered member logs durable: one ganged
// submission under group commit, or serial per-log Force calls under the
// per-shard baseline (DisableLogGang).
func (f *Forest) forceLogs(at vtime.Ticks, logs []*wal.Log) (vtime.Ticks, error) {
	if f.logGangEnabled {
		// ForceGroup commits the members whose writes landed even on a
		// partial failure, so a retried call resubmits only the
		// still-unforced tails — the WAL append order is preserved.
		return f.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
			done, n, err := wal.ForceGroup(at, logs)
			if n > 0 {
				f.logGangSubmits.Add(1)
			}
			return done, err
		})
	}
	// Serial baseline: attempt every log even after an attributable fault
	// so each member's durable state reflects its own device, not its
	// position in the loop — the group-flush error handler attributes
	// failures per member via Unforced. Unattributable errors still abort.
	var firstFault error
	for _, l := range logs {
		var err error
		at, err = f.retryIO(at, l.Force)
		if err != nil {
			if !IsIOFault(err) {
				return at, err
			}
			if firstFault == nil {
				firstFault = err
			}
		}
	}
	return at, firstFault
}

// Flush forces a group flush seeded by the fullest shard (no-op when the
// whole forest is empty).
func (f *Forest) Flush(at vtime.Ticks) (vtime.Ticks, error) {
	if err := f.checkDamaged(); err != nil {
		return at, err
	}
	best, bestLen := -1, 0
	for i, s := range f.shards {
		s.mu.Lock()
		n := s.tree.opq.Len()
		if !s.health.writable() {
			n = 0 // cannot flush; its queue holds already-durable replays
		}
		s.mu.Unlock()
		if n > bestLen {
			best, bestLen = i, n
		}
	}
	if best < 0 {
		return at, nil
	}
	return f.flushGroup(at, best)
}

// Checkpoint drains every shard's OPQ. The per-shard drains start at the
// caller's time and proceed in parallel in virtual time. With WALs
// attached, a checkpoint record is appended per shard and the final
// forces are ganged into one blocking submission — the forest-wide
// checkpoint the recovery scan cuts at.
func (f *Forest) Checkpoint(at vtime.Ticks) (vtime.Ticks, error) {
	if err := f.checkDamaged(); err != nil {
		return at, err
	}
	// Freeze migration chunks for the sweep: the routing snapshot logged
	// below must match the drained state, and head truncation must not
	// race a chunk's log appends.
	f.migMu.RLock()
	defer f.migMu.RUnlock()
	// The drain proceeds one shard at a time; the final ganged force is
	// safe without shard locks because each wal.Log serializes its force
	// operations internally.
	done := at
	lg := newLogGang()
	// cut tracks, per log, the mark of this round's checkpoint record: once
	// the round is durable, everything before it is dead for recovery
	// (each shard's replay starts at its last checkpoint).
	cut := make(map[*wal.Log]wal.Mark)
	anyQuarantined := false
	for _, s := range f.shards {
		s.mu.Lock()
		if !s.health.writable() {
			// A quarantined shard cannot drain (its device may still be
			// failing) and logs no checkpoint record: its replay cursor
			// must stay where its last successful rollback left it, so it
			// blocks truncation below. A retired one does not: its own log
			// is never in a cut set again, and holding every log's history
			// for it would leak log space forever.
			anyQuarantined = anyQuarantined || s.health != retired
			s.mu.Unlock()
			continue
		}
		start := s.vlock.Acquire(at)
		flushes := s.tree.opq.Len() > 0
		d, err := s.tree.drain(start)
		if err == nil && flushes {
			s.transition(evFlushCommit, d, d, nil)
		}
		if err == nil && s.tree.log != nil {
			cut[s.tree.log] = s.tree.log.AppendMark(wal.Record{Kind: wal.KindCheckpoint, Relation: s.tree.cfg.Relation})
			lg.need(s.tree.log)
		}
		s.vlock.Release(d)
		s.mu.Unlock()
		if err != nil {
			return d, err
		}
		done = vtime.Max(done, d)
	}
	if len(f.logs) > 0 {
		// Persist the routing table next to the checkpoint records (after
		// them, so truncation keeps it): head truncation must never strand
		// the routing reconstruction behind a dropped MigrationEnd.
		f.logs[0].Append(wal.Record{
			Kind:     wal.KindRoutingSnapshot,
			UndoInfo: encodeRoutingMeta(f.rpart.RoutingSnapshot()),
		})
		lg.need(f.logs[0])
	}
	if len(lg.order) > 0 {
		d, err := f.forceLogs(done, lg.order)
		if err != nil {
			return d, err
		}
		done = d
	}
	// Log head truncation (the logs otherwise grow forever): safe only
	// once the round is durable, and skipped while a migration is in
	// flight — its Start/KeyMoved records may predate this checkpoint and
	// recovery still needs them to resume or roll back the move — or while
	// any shard is quarantined: its Heal replay still reads records that
	// predate this round's checkpoint cut.
	if !f.rebalanceActive.Load() && !anyQuarantined {
		for l, m := range cut {
			if _, err := l.TruncateHead(m); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}

// Sync is an explicit commit point: it forces every attached log, making
// the redo records of all buffered (but not yet flushed) operations
// durable without paying for a flush — one ganged submission, or serial
// per-log forces under DisableLogGang. A no-op without WALs.
func (f *Forest) Sync(at vtime.Ticks) (vtime.Ticks, error) {
	if err := f.checkDamaged(); err != nil {
		return at, err
	}
	if len(f.logs) == 0 {
		return at, nil
	}
	// Skip quarantined shards' logs: forcing a tail onto a dead device
	// would fail the whole Sync for healthy shards' sake. The forces need
	// no shard locks: each wal.Log serializes its force operations
	// internally.
	logs := make([]*wal.Log, 0, len(f.logs))
	for _, s := range f.shards {
		s.mu.Lock()
		if s.health.writable() {
			logs = append(logs, s.tree.log)
		}
		s.mu.Unlock()
	}
	if len(logs) == 0 {
		return at, nil
	}
	return f.forceLogs(at, logs)
}

// ForestRecoveryReport aggregates the per-shard recovery reports.
type ForestRecoveryReport struct {
	// Shards holds shard i's report at index i.
	Shards []RecoveryReport
	// Total sums the per-shard counters.
	Total RecoveryReport
	// ResumedMigrations counts half-done migrations rolled forward from
	// their durable frontier; RolledBackMigrations those with no durable
	// chunk, rolled back. MigrationKeysMoved counts keys re-streamed by
	// resumes, MigrationKeysPurged stale copies deleted on either side.
	ResumedMigrations    int
	RolledBackMigrations int
	MigrationKeysMoved   int
	MigrationKeysPurged  int
}

// Recover replays every shard's own WAL per the paper's Section 3.4, all
// replays starting at the caller's time, and returns the aggregated
// report. Call after Crash (or on a freshly reconstructed forest whose
// files and logs hold the durable pre-crash state, with RestoreMeta
// applied).
func (f *Forest) Recover(at vtime.Ticks) (ForestRecoveryReport, vtime.Ticks, error) {
	rep := ForestRecoveryReport{Shards: make([]RecoveryReport, len(f.shards))}
	done := at
	for i, s := range f.shards {
		s.mu.Lock()
		r, d, err := s.tree.Recover(at)
		s.mu.Unlock()
		if err != nil {
			return rep, d, fmt.Errorf("core: forest shard %d: %w", i, err)
		}
		rep.Shards[i] = r
		rep.Total.UndoneFlushes += r.UndoneFlushes
		rep.Total.UndoPagesApplied += r.UndoPagesApplied
		rep.Total.RedoneEntries += r.RedoneEntries
		rep.Total.SkippedEntries += r.SkippedEntries
		done = vtime.Max(done, d)
	}
	// Rebuild the routing table from the durable migration records and
	// resume or roll back any half-done move (the per-shard replay above
	// already restored both trees' contents; this pass restores WHERE
	// keys live and finishes moving the in-flight range).
	done, err := f.recoverRouting(done, &rep)
	if err != nil {
		return rep, done, err
	}
	// The replay re-admits every shard in its durable state, except the
	// ones the recovered routing marks evacuated: those retire.
	for i, s := range f.shards {
		ev := evRecover
		if f.rpart.IsEvacuated(i) {
			ev = evRetire
		}
		s.mu.Lock()
		s.transition(ev, done, done, nil)
		s.mu.Unlock()
	}
	// The durable log has been replayed into a consistent state; lift any
	// group-commit damage mark.
	f.damaged.Store(nil)
	return rep, done, nil
}

// Heal attempts to re-admit a quarantined shard: it re-runs the
// rollback replay (restore the durable snapshot, drop volatile state,
// replay the shard's durable log records), and on success lifts the
// quarantine — the shard serves writes again from exactly its committed
// state. If the device is still failing the replay fails and the shard
// stays quarantined; call again after the fault clears (or let the
// auto-heal prober keep trying). Idempotent: a no-op on a healthy
// shard. An evacuated shard cannot heal — its range now lives on
// healthy shards and its physical copies are stale.
func (f *Forest) Heal(at vtime.Ticks, shard int) (vtime.Ticks, error) {
	if err := f.checkDamaged(); err != nil {
		return at, err
	}
	if shard < 0 || shard >= len(f.shards) {
		return at, fmt.Errorf("core: Heal: no shard %d (forest has %d)", shard, len(f.shards))
	}
	s := f.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.health == retired:
		return at, fmt.Errorf("core: Heal: shard %d was evacuated; its range is served by healthy shards", shard)
	case s.health.probing():
		return s.heal(at, shard)
	}
	return at, nil
}

// Quarantined returns the indexes of shards currently in read-only
// degraded mode and awaiting a heal. Evacuated shards are excluded:
// their range is already served by healthy shards and Heal rejects them
// — they are retired, not degraded (ForestStats.EvacuatedShards counts
// them).
func (f *Forest) Quarantined() []int {
	var out []int
	for i, s := range f.shards {
		s.mu.Lock()
		if s.health.probing() {
			out = append(out, i)
		}
		s.mu.Unlock()
	}
	return out
}

// Crash simulates a whole-forest crash: every shard's volatile state
// (OPQ, LSMap, buffer pool, unforced log tail) vanishes; the simulated
// SSD contents and the forced WAL records remain.
func (f *Forest) Crash() {
	for _, s := range f.shards {
		s.mu.Lock()
		s.tree.CrashVolatileState()
		s.mu.Unlock()
	}
	// The in-flight migration's frontier is volatile state: Recover
	// reconstructs it from the durable KeyMoved records.
	if rt := f.rpart.cur.Load(); rt.mig != nil {
		next := *rt
		next.mig = nil
		f.rpart.publish(next)
	}
	// A budget-parked AutoRebalance migration handle is stale after a
	// crash (Recover resolves the move from its durable records); drop it
	// so the next poll does not surface a spurious stale-handle error.
	f.autoMu.Lock()
	f.autoMig = nil
	f.autoMu.Unlock()
	f.rebalanceActive.Store(false)
}

// SnapshotMeta captures every shard's structural state (what a DBMS
// catalog would persist), shard i at index i.
func (f *Forest) SnapshotMeta() []Meta {
	out := make([]Meta, len(f.shards))
	for i, s := range f.shards {
		s.mu.Lock()
		out[i] = s.tree.Snapshot()
		s.mu.Unlock()
	}
	return out
}

// RestoreMeta resets every shard's structural state from a SnapshotMeta
// capture (crash-recovery harnesses restore the durable snapshot, then
// call Recover).
func (f *Forest) RestoreMeta(ms []Meta) error {
	if len(ms) != len(f.shards) {
		return fmt.Errorf("core: restore meta for %d shards, forest has %d", len(ms), len(f.shards))
	}
	for i, s := range f.shards {
		s.mu.Lock()
		s.tree.RestoreMeta(ms[i])
		s.mu.Unlock()
	}
	return nil
}

// Count returns the number of live records across all shards.
func (f *Forest) Count() int64 {
	// A migration chunk moves keys between two shards atomically under
	// migMu; freeze it so the sweep neither double- nor under-counts.
	f.migMu.RLock()
	defer f.migMu.RUnlock()
	var n int64
	for _, s := range f.shards {
		s.mu.Lock()
		// A retired shard holds stale physical copies; the live records are
		// counted on their destination.
		if s.health != retired {
			n += s.tree.Count()
		}
		s.mu.Unlock()
	}
	return n
}

// Height returns the tallest shard height.
func (f *Forest) Height() int {
	h := 0
	for _, s := range f.shards {
		s.mu.Lock()
		if sh := s.tree.Height(); sh > h {
			h = sh
		}
		s.mu.Unlock()
	}
	return h
}

// Pending returns the total number of OPQ-buffered operations.
func (f *Forest) Pending() int {
	n := 0
	for _, s := range f.shards {
		s.mu.Lock()
		n += s.tree.OPQLen()
		s.mu.Unlock()
	}
	return n
}

// ApplyOPQBudget re-splits a new global OPQ page budget evenly across
// the shards — the online application of an eq.-(10) retune (TuneForest's
// GlobalO recomputed on observed loads). A shard whose queue holds more
// entries than its new capacity is flushed through the group coordinator
// first; a shard that still cannot shrink afterwards (e.g. one excluded
// from the group mid-migration) keeps its old capacity and counts as
// skipped. Returns the completion time of any flushes performed.
func (f *Forest) ApplyOPQBudget(at vtime.Ticks, globalPages int) (done vtime.Ticks, resized, skipped int, err error) {
	if err := f.checkDamaged(); err != nil {
		return at, 0, 0, err
	}
	if globalPages < 1 {
		return at, 0, 0, fmt.Errorf("core: OPQ budget must be >= 1 page, got %d", globalPages)
	}
	per := splitBudget(globalPages, len(f.shards))
	done = at
	for i, s := range f.shards {
		s.mu.Lock()
		needFlush := s.tree.OPQLen() > per*s.tree.cfg.PageSize/kv.EntrySize
		s.mu.Unlock()
		if needFlush {
			done, err = f.flushGroup(done, i)
			if err != nil {
				return done, resized, skipped, err
			}
		}
		s.mu.Lock()
		if s.tree.SetOPQPages(per) != nil {
			skipped++
		} else {
			resized++
		}
		s.mu.Unlock()
	}
	return done, resized, skipped, nil
}

// Stats aggregates shard tree counters and coordinator activity.
func (f *Forest) Stats() ForestStats {
	out := ForestStats{
		Shards:          len(f.shards),
		GroupFlushes:    f.groupFlushes.Load(),
		GroupedShards:   f.groupedShards.Load(),
		GangSubmits:     f.gangSubmits.Load(),
		RoutingEpoch:    f.rpart.Epoch(),
		Migrations:      f.migrations.Load(),
		MigratedKeys:    f.keysMigrated.Load(),
		MigrationActive: f.rebalanceActive.Load(),
		ShardLoads:      make([]ShardLoad, 0, len(f.shards)),
	}
	for _, s := range f.shards {
		s.mu.Lock()
		h := s.health
		out.ShardLoads = append(out.ShardLoads, ShardLoad{
			Ops:         s.ops,
			Keys:        s.tree.Count(),
			Pending:     s.tree.OPQLen(),
			OPQPages:    s.tree.OPQPages(),
			Quarantined: !h.writable(),
			Evacuated:   h == retired,
		})
		switch {
		case h == retired:
			out.EvacuatedShards++
		case !h.writable():
			out.QuarantinedShards++
		}
		st := s.tree.Stats()
		out.Tree.Flushes += st.Flushes
		out.Tree.Shrinks += st.Shrinks
		out.Tree.LeafSplits += st.LeafSplits
		out.Tree.LeafAppends += st.LeafAppends
		out.Tree.PsyncReads += st.PsyncReads
		out.Tree.PsyncWrites += st.PsyncWrites
		out.Tree.GangedWrites += st.GangedWrites
		out.Tree.SearchOps += st.SearchOps
		out.Tree.UpdateOps += st.UpdateOps
		out.Tree.RangeOps += st.RangeOps
		out.Tree.OPQShortcuts += st.OPQShortcuts
		out.Tree.IORetries += st.IORetries
		out.Tree.IORetryBackoff += st.IORetryBackoff
		out.Tree.IORetriesExhausted += st.IORetriesExhausted
		out.Tree.WatchdogTimeouts += st.WatchdogTimeouts
		out.VLockWaits += s.vlock.Waits
		out.VLockContended += s.vlock.Contended
		out.Pending += s.tree.OPQLen()
		s.mu.Unlock()
	}
	// The coordinator's own retry activity (gang and ganged log-force
	// resubmissions) on top of the per-tree counters.
	out.IORetries = out.Tree.IORetries + f.ioRetries.Load()
	out.IORetryBackoff = out.Tree.IORetryBackoff + vtime.Ticks(f.ioRetryBackoff.Load())
	out.IORetriesExhausted = out.Tree.IORetriesExhausted + f.ioRetriesExhausted.Load()
	out.WatchdogTimeouts = out.Tree.WatchdogTimeouts + f.watchdogTimeouts.Load()
	out.HealProbes = f.healProbes.Load()
	out.AutoHeals = f.autoHeals.Load()
	out.Evacuations = f.evacuations.Load()
	out.EvacuatedChunks = f.evacChunks.Load()
	out.MigrationAborts = f.migrationAborts.Load()
	// Log-plane counters: each log guards its own counters (Sync and
	// Checkpoint may force per-shard logs without holding shard locks).
	out.LogGangSubmits = f.logGangSubmits.Load()
	for _, l := range f.logs {
		fw, _ := l.ForceStats()
		out.LogForceWrites += fw
		out.LogTruncatedBytes += l.TruncatedBytes()
	}
	out.LogSubmits = out.LogForceWrites + out.LogGangSubmits
	return out
}

// CheckInvariants validates every shard's on-disk structure and that each
// shard holds only keys the partitioner routes to it.
func (f *Forest) CheckInvariants() error {
	for i, s := range f.shards {
		s.mu.Lock()
		if s.health == retired {
			// The shard's stale physical copies legitimately violate routing
			// (its device rejected the deletes); sweeps skip it entirely.
			s.mu.Unlock()
			continue
		}
		err := s.tree.CheckInvariants()
		if err == nil {
			for _, e := range s.tree.opq.Entries() {
				if f.part.Shard(e.Rec.Key) == i {
					continue
				}
				// A foreign key whose newest queued operation is a delete is
				// legitimate: migration purges leave tombstones (and the
				// stale entries they shadow) in the queue until the next
				// flush annihilates them.
				if newest, ok := s.tree.opq.Lookup(e.Rec.Key); !ok || newest.Op != kv.OpDelete {
					err = fmt.Errorf("core: forest shard %d queues foreign key %d", i, e.Rec.Key)
					break
				}
			}
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
