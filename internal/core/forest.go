package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// groupIO is a group flush's hold on one member tree's flush (see
// Tree.flushBatch): reqs collects the data writes the group submits as one
// data gang, and end holds the member's FlushEnd record, whose append must
// wait until the group's data writes are on the device.
type groupIO struct {
	reqs []ssdio.Req
	end  wal.Record
}

// member is one shard's slot in a group flush: what its flush deferred,
// and its outcome.
type member struct {
	groupIO
	s *forestShard
	// started reports that the member's flush ran: it holds the virtual
	// flush lock.
	started bool
	// err is the fault that failed the member; nil while it carries on.
	err error
}

// blame charges a failed submission over ms to the members attribute
// blames; each keeps its first fault, and a failed member's deferred
// writes never go out. It reports whether any member of ms was spared.
func blame(err error, ms []*member, lost []error) (spared bool) {
	shards := make([]*forestShard, len(ms))
	for i, m := range ms {
		shards[i] = m.s
	}
	for i, e := range attribute(err, shards, lost) {
		if e == nil {
			spared = true
			continue
		}
		if ms[i].err == nil {
			ms[i].err = e
		}
		ms[i].reqs = nil
	}
	return spared
}

// attribute names the members a failed force or data-gang submission
// failed, as each one's fault (nil: spared; a nil slice when err is nil).
// For a data gang, lost holds the fault of each member whose batch did not
// land. For a log force (lost nil), a member whose log still holds an
// unforced tail failed: forceLogs commits every log whose write landed,
// partial gangs included, and attempts every log of a serial force. When
// no member explains err, every member failed.
func attribute(err error, members []*forestShard, lost []error) []error {
	if err == nil {
		return nil
	}
	out := make([]error, len(members))
	explained := false
	for i, s := range members {
		switch {
		case lost != nil:
			out[i] = lost[i]
		case s.tree.log != nil && s.tree.log.Unforced():
			out[i] = err
		}
		explained = explained || out[i] != nil
	}
	if !explained {
		for i := range out {
			out[i] = err
		}
	}
	return out
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
// the virtual locks model the paper's concurrency scheme (Section 4) per
// shard; a one-shard forest is that scheme over the whole index.
type forestShard struct {
	mu   sync.Mutex
	tree *Tree
	// vlock is the index-exclusive lock every OPQ flush holds. Readers
	// share the index without taking it but start no earlier than its
	// FreeAt(); with no dirty buffers, that is their only wait on writes.
	vlock vtime.Mutex
	// vopq is the OPQ lock: an append is instant, but the periodic sort
	// inside one holds the whole queue exclusively.
	vopq vtime.Mutex

	// ops counts the operations routed to this shard (guarded by mu); the
	// per-shard load signal AutoRebalance triggers on.
	ops int64
	// sample is a uniform sample of the keys point ops routed here in the
	// current poll window, of which there were seen (both guarded by mu):
	// where in the shard's key range the load falls, which AutoRebalance
	// sizes its moves from. pollLoad starts the next window.
	sample [loadSample]kv.Key
	seen   uint64

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

// loadSample is the size of a shard's per-window key sample.
const loadSample = 64

// note counts one point op on key k: the op total and the key sample, a
// reservoir over the window's keys (slot j of the first loadSample, then
// the i-th key replaces a slot with chance loadSample/i), so a sequential
// sweep is sampled along its whole length, not just its tail. The draw
// hashes the op total: deterministic, and no state. Caller holds s.mu.
func (s *forestShard) note(k kv.Key) {
	s.ops++
	s.seen++
	if s.seen <= loadSample {
		s.sample[s.seen-1] = k
	} else if j := mix64(uint64(s.ops)) % s.seen; j < loadSample {
		s.sample[j] = k
	}
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
	// moveTicks and moveKeys sum the virtual time migrateChunk spent on
	// the chunks of moves off a writable source, waits for the locks
	// included, and the keys they streamed: the measured cost per key a
	// drain budget pays, which AutoRebalance sizes a budgeted move by.
	// Evacuation chunks stay out, since they skip the source deletes and
	// forces a hotspot move pays for.
	moveTicks atomic.Int64
	moveKeys  atomic.Int64
	autoMu    sync.Mutex
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

// quarantineShard takes a shard out of write service after a failure
// charged to it, whatever the error's class: roll the tree back to its
// last committed state (restore the durable snapshot, drop volatile
// state, replay the durable log — a shard-local crash recovery) and mark
// it quarantined. When the rollback itself fails, or the shard has no WAL
// to roll back with, memory and disk may disagree: the shard goes offline
// — reads rejected too — and the rest of the forest keeps serving. Heal
// re-runs the rollback once the device recovers; a shard without a WAL
// stays offline. Caller holds s.mu; returns the rollback's completion
// time.
func (f *Forest) quarantineShard(at vtime.Ticks, s *forestShard, cause error) vtime.Ticks {
	//lint:ignore guardedby caller holds s.mu (see contract above)
	if !s.health.writable() {
		return at
	}
	ev, done := evReplayFail, at
	if s.tree.log != nil {
		var err error
		if done, err = s.tree.rollbackToDurable(at); err == nil {
			ev = evFail
		} else {
			cause = fmt.Errorf("%v (rollback also failed: %v)", cause, err)
		}
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
	// LogTruncatedBytes sums the log bytes reclaimed by head truncation
	// (flush commits and checkpoints) across all attached logs.
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
	// a failure and resolved in place — the failing shards quarantined,
	// the routing left at the kept prefix.
	MigrationAborts int64
}

// ShardLoad is one shard's load signal.
type ShardLoad struct {
	// Ops counts the operations routed to the shard since open.
	Ops int64
	// Keys is the shard's live record count, Pending its queued updates.
	Keys    int64
	Pending int
	// Quarantined reports read-only degraded mode; Evacuated reports that
	// the shard's range has been migrated onto healthy shards (an
	// evacuated shard stays quarantined but is skipped by sweeps).
	Quarantined bool
	Evacuated   bool
}

// NewForest builds a forest of len(pfs) shards, one tree per page file.
// The page files must live on files of one ssdio.Space (one device) for
// group flushes to merge their submissions; Build lays them out so.
// cfg.Shard.OPQPages and cfg.Shard.BufferBytes are global budgets split
// evenly across shards. A forest rejects cfg.Shard.DisablePsync.
func NewForest(pfs []*pagefile.PageFile, cfg ForestConfig) (*Forest, error) {
	n := len(pfs)
	if n < 1 {
		return nil, fmt.Errorf("core: forest needs at least one shard")
	}
	if cfg.Shard.PageSize <= 0 {
		return nil, fmt.Errorf("core: forest shard config needs a positive PageSize, got %d", cfg.Shard.PageSize)
	}
	if cfg.Shard.DisablePsync {
		return nil, fmt.Errorf("core: a forest's group flush needs psync; DisablePsync is a single-tree ablation")
	}
	part := cfg.Partitioner
	if part == nil {
		part = HashPartitioner{N: n}
	}
	if err := validatePartitioner(part, n); err != nil {
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
		rpart, err = newRebalancingPartitioner(part, n)
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
			tr.attachWAL(f.logs[i])
		}
		f.shards = append(f.shards, &forestShard{tree: tr})
	}
	return f, nil
}

// validatePartitioner rejects misconfigured partitioners before they can
// misroute or crash the forest: a HashPartitioner with N <= 0 divides by
// zero on its first Shard call, and a RangePartitioner with unsorted or
// duplicate bounds silently sends keys to the wrong shards.
func validatePartitioner(p Partitioner, shards int) error {
	if p.Shards() != shards {
		return fmt.Errorf("core: partitioner has %d shards, %d page files given", p.Shards(), shards)
	}
	switch pt := p.(type) {
	case *RebalancingPartitioner:
		rt := pt.cur.Load()
		if err := validatePartitioner(rt.base, shards); err != nil {
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
	si, s := f.lockOwner(k)
	defer s.mu.Unlock()
	if err := s.readErr(si); err != nil {
		return 0, false, at, err
	}
	s.note(k)
	start := vtime.Max(at, s.vlock.FreeAt())
	return s.tree.Search(start, k)
}

// SearchMany partitions the keys across shards and runs one MPSearch per
// involved shard, all starting at the caller's time (the shard descents
// proceed in parallel in virtual time); the result is the merged map and
// the latest completion.
func (f *Forest) SearchMany(at vtime.Ticks, keys []kv.Key) (map[kv.Key]kv.Value, vtime.Ticks, error) {
	// A multi-shard sweep must not straddle a migration chunk, or a key
	// moving between two already-visited shards could be seen twice or
	// not at all. The read lock freezes the frontier for the sweep.
	f.migMu.RLock()
	defer f.migMu.RUnlock()
	owner := make([]int, len(keys))
	for i, k := range keys {
		owner[i] = f.part.Shard(k)
	}
	out := make(map[kv.Key]kv.Value, len(keys))
	ks := make([]kv.Key, 0, len(keys))
	done := at
	for si, s := range f.shards {
		ks = ks[:0]
		for i, o := range owner {
			if o == si {
				ks = append(ks, keys[i])
			}
		}
		if len(ks) == 0 {
			continue
		}
		s.mu.Lock()
		if err := s.readErr(si); err != nil {
			s.mu.Unlock()
			return nil, at, err
		}
		s.ops += int64(len(ks))
		start := vtime.Max(at, s.vlock.FreeAt())
		d, err := s.tree.searchMany(start, ks, out)
		s.mu.Unlock()
		if err != nil {
			return nil, d, err
		}
		done = vtime.Max(done, d)
	}
	return out, done, nil
}

// RangeSearch runs the parallel range search on every shard that may hold
// [lo, hi) (all shards under hash partitioning, the overlapping ones
// under range partitioning), each appending its key-ordered run to one
// slice. The concatenation is already in key order under range
// partitioning without move rules; otherwise it is sorted.
func (f *Forest) RangeSearch(at vtime.Ticks, lo, hi kv.Key) ([]kv.Record, vtime.Ticks, error) {
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
		var d vtime.Ticks
		var err error
		recs, d, err = s.tree.appendRange(start, lo, hi, recs)
		s.mu.Unlock()
		if err != nil {
			return nil, d, err
		}
		done = vtime.Max(done, d)
	}
	if len(recs) == 0 {
		return nil, done, nil
	}
	if !slices.IsSortedFunc(recs, func(a, b kv.Record) int { return cmp.Compare(a.Key, b.Key) }) {
		kv.SortRecords(recs)
	}
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
		var err error
		if at, err = f.flushGroup(at, si); err != nil {
			return at, err
		}
	}
	//lint:ignore guardedby lockOwner returned with s.mu held for this shard
	s.note(e.Rec.Key)
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
// are delayed. It runs in stages over one member slice — plan, then the
// flushes and the two-phase group commit (commitGroup), then settle — and
// a failure anywhere costs only the members attribute blames: they roll
// back and leave write service, and the rest of the group commits. The
// error is a committed member's failed log truncation.
func (f *Forest) flushGroup(at vtime.Ticks, trigger int) (vtime.Ticks, error) {
	g := f.planGroup(trigger)
	if len(g) == 0 {
		// A racing group flush already drained the trigger shard.
		return at, nil
	}
	f.groupFlushes.Add(1)
	f.groupedShards.Add(int64(len(g)))
	done := at
	if len(g) == 1 {
		// Single member: flush exactly like the paper's single-tree
		// scheme (no gang), so a one-shard forest is Section 4's
		// whole-index flush lock.
		m := &g[0]
		m.started = true
		done, m.err = m.s.tree.FlushBatch(m.s.vlock.Acquire(at), m.s.tree.cfg.BCnt)
	} else {
		done = f.commitGroup(at, g)
	}
	return f.settle(done, g)
}

// planGroup locks and returns the members of a group flush. Candidates
// are locked in ascending shard order (deadlock-free against concurrent
// group flushes) and only the members stay locked: every shard appends to
// its own log, so a non-member's enqueue path never touches a log the
// coordinator is about to force.
//
// Mid-migration shards are excluded from gang membership: their virtual
// locks are pinned by chunk streaming for long stretches (a group holding
// them would stall every member behind the chunk), and keeping a
// half-migrated range out of the group's deferred FlushEnd commit keeps
// the migration's chunk commit points and the group's flush commit points
// independent. A migrating shard whose own OPQ fills still flushes — solo.
func (f *Forest) planGroup(trigger int) []member {
	msrc, mdst, mact := f.rpart.Migrating()
	migrating := func(i int) bool { return mact && (i == msrc || i == mdst) }
	var g []member
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
		if !keep {
			s.mu.Unlock()
			continue
		}
		if g == nil {
			g = make([]member, 0, len(f.shards)-i)
		}
		g = append(g, member{s: s})
	}
	return g
}

// commitGroup flushes a group's members and commits them in two phases,
// returning the completion time; the members' outcomes are left in g.
func (f *Forest) commitGroup(at vtime.Ticks, g []member) vtime.Ticks {
	// Flush: every member from the same instant, its data writes and
	// FlushEnd held back in its slot. A failed flush stops new ones from
	// starting; its log appends stay in the tail — FlushStart without
	// FlushEnd, which any replay undoes — and members that already flushed
	// still commit: their deferred writes must reach the device.
	front := at
	for i := range g {
		m := &g[i]
		m.started = true
		done, err := m.s.tree.flushBatch(m.s.vlock.Acquire(at), m.s.tree.cfg.BCnt, &m.groupIO)
		front = vtime.Max(front, done)
		if err != nil {
			m.err, m.reqs = err, nil
			break
		}
	}
	ms := make([]*member, 0, len(g))
	logs := make([]*wal.Log, 0, len(g))
	// Prepare (group commit phase 1): force every started member's
	// FlushStart, logical redo and flush undo records BEFORE any data write
	// reaches the device — the WAL rule, paid as one ganged submission (or
	// N serial forces under the per-shard baseline). It runs even after a
	// member failed: the others' undo records must cover their deferred
	// writes. A member whose records did not land is failed; the rest carry
	// on, and the data gang goes out unless the force spared nobody.
	for i := range g {
		if m := &g[i]; m.started && m.s.tree.log != nil {
			ms, logs = append(ms, m), append(logs, m.s.tree.log)
		}
	}
	prepared := true
	if len(logs) > 0 {
		var err error
		if front, err = f.forceLogs(front, logs); err != nil {
			prepared = blame(err, ms, nil)
		}
	}
	// Data: the surviving members' writes as one gang; a member whose batch
	// never landed (retries exhausted, or a permanent fault) is failed.
	done := front
	if prepared {
		ms = ms[:0]
		for i := range g {
			if m := &g[i]; m.started && m.err == nil {
				ms = append(ms, m)
			}
		}
		var lost []error
		if done, lost = f.submitGang(front, ms); lost != nil {
			blame(firstErr(lost), ms, lost)
		}
	}
	// Commit (phase 2): only after the data writes reached the device may
	// a FlushEnd become durable — a FlushEnd without its data would make
	// recovery skip redo records for pages that were never written. So a
	// failed member's end is withheld, and only the survivors' logs are
	// forced, in ascending shard order: a failed member's log (dead device,
	// withheld end) would burn the whole retry budget again for records
	// phase 1 gave up on. A survivor whose end-force did not land has
	// memory that says flushed and a log that says undo: it fails, and its
	// rollback brings memory to what the log describes.
	ms, logs = ms[:0], logs[:0]
	for i := range g {
		if m := &g[i]; m.err == nil && m.end.Kind == wal.KindFlushEnd {
			m.s.tree.log.Append(m.end)
			ms, logs = append(ms, m), append(logs, m.s.tree.log)
		}
	}
	if len(logs) > 0 {
		var err error
		if done, err = f.forceLogs(done, logs); err != nil {
			blame(err, ms, nil)
		}
	}
	return done
}

// settle ends a group flush. A started member that did not fail is
// durable end to end: a new rollback baseline, proof the device is really
// back, so a probation's incident ends, and the point its log head moves
// to its low-water mark (lowwater.go). Such a member is writable: only
// writable shards join a flush. A failed member rolls back and leaves
// write service, charged on the vtime clock while its flush lock is still
// held (readers wait for the rollback exactly as they would for the
// flush). Then every lock is released, and the first failed truncation is
// returned.
func (f *Forest) settle(done vtime.Ticks, g []member) (vtime.Ticks, error) {
	var err error
	for _, m := range g {
		if m.started && m.err == nil {
			m.s.tree.commitFlush()
			//lint:ignore guardedby planGroup returned with every member's mu held
			m.s.transition(evFlushCommit, done, done, nil)
			if terr := m.s.tree.truncateLog(); terr != nil && err == nil {
				err = terr
			}
		}
	}
	for _, m := range g {
		if m.err != nil {
			done = f.quarantineShard(done, m.s, m.err)
		}
	}
	for _, m := range g {
		if m.started {
			m.s.vlock.Release(done)
		}
		m.s.mu.Unlock()
	}
	return done, err
}

// submitGang submits the members' deferred data writes as one cross-file
// psync call, retrying batches that failed transiently (a partial gang
// applies whole batches or none, so a resubmission never double-writes).
// lost holds, per member, the fault of a batch that never landed (nil
// when every batch landed); a whole-gang failure loses every batch still
// pending.
func (f *Forest) submitGang(at vtime.Ticks, ms []*member) (vtime.Ticks, []error) {
	pending := make([]int, 0, len(ms))
	for i, m := range ms {
		if len(m.reqs) > 0 {
			pending = append(pending, i)
		}
	}
	var lost []error
	lose := func(i int, err error) {
		if lost == nil {
			lost = make([]error, len(ms))
		}
		lost[i] = err
	}
	pol := f.retry.norm()
	for attempt := 0; ; attempt++ {
		batches := make([]ssdio.GangBatch, len(pending))
		for i, j := range pending {
			batches[i] = ssdio.GangBatch{F: ms[j].s.tree.pf.File(), Reqs: ms[j].reqs}
		}
		done, err := ssdio.PsyncGang(at, batches)
		f.gangSubmits.Add(1)
		if err == nil {
			return done, lost
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
				if j := pending[flt.Batch]; IsTransientIO(flt.Err) {
					next = append(next, j)
				} else {
					lose(j, flt.Err)
				}
			}
			pending = next
		} else {
			if IsWatchdogTimeout(err) {
				f.watchdogTimeouts.Add(1)
			}
			if !IsTransientIO(err) {
				for _, j := range pending {
					lose(j, err)
				}
				return done, lost
			}
		}
		if len(pending) == 0 {
			return done, lost
		}
		if f.retry.Disabled || attempt >= pol.MaxRetries {
			f.ioRetriesExhausted.Add(1)
			for _, j := range pending {
				lose(j, err)
			}
			return done, lost
		}
		wait := backoff(pol.BaseBackoff, pol.MaxBackoff, attempt)
		f.ioRetries.Add(1)
		f.ioRetryBackoff.Add(int64(wait))
		at = done + wait
	}
}

// firstErr returns the first non-nil error of errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forceLogs makes the given logs durable: one ganged submission under
// group commit, or serial per-log Force calls under the per-shard
// baseline (DisableLogGang). Either way every log is attempted and a log
// whose write did not land keeps its unforced tail, which is how
// attribute charges the failure to its member.
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
	var first error
	for _, l := range logs {
		var err error
		if at, err = f.retryIO(at, l.Force); err != nil && first == nil {
			first = err
		}
	}
	return at, first
}

// Flush forces a group flush seeded by the fullest shard (no-op when the
// whole forest is empty).
func (f *Forest) Flush(at vtime.Ticks) (vtime.Ticks, error) {
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
// attached, a checkpoint record is appended per shard, the routing table
// is persisted as a RoutingSnapshot record on the first log, and the
// final forces are ganged into one blocking submission. Once that round
// is durable, each log's head is cut at its checkpoint record, past every
// pin (lowwater.go). The logs no longer need a Checkpoint to stay
// bounded: a committed flush that empties its shard's queue already moves
// the head. What only a checkpoint does is pass an unpaired FlushStart,
// and write the routing snapshot that covers finished migrations.
func (f *Forest) Checkpoint(at vtime.Ticks) (vtime.Ticks, error) {
	// Freeze migration chunks for the sweep: the routing snapshot logged
	// below must match the drained state, and head truncation must not
	// race a chunk's log appends.
	f.migMu.RLock()
	defer f.migMu.RUnlock()
	// The drain proceeds one shard at a time; the final ganged force is
	// safe without shard locks because each wal.Log serializes its force
	// operations internally.
	done := at
	var logs []*wal.Log
	// cut holds, per shard, the mark of this round's checkpoint record
	// (zero when the shard logged none): once the round is durable,
	// everything before it is dead for recovery (each shard's replay
	// starts at its last checkpoint).
	cut := make([]wal.Mark, len(f.shards))
	anyQuarantined := false
	for i, s := range f.shards {
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
			cut[i] = s.tree.log.AppendMark(wal.Record{Kind: wal.KindCheckpoint, Relation: s.tree.cfg.Relation})
			logs = append(logs, s.tree.log)
		}
		s.vlock.Release(d)
		s.mu.Unlock()
		if err != nil {
			return d, err
		}
		done = vtime.Max(done, d)
	}
	var snap RoutingMeta
	if len(f.logs) > 0 {
		// Persist the routing table next to the checkpoint records (after
		// them, so truncation keeps it): head truncation must never strand
		// the routing reconstruction behind a dropped MigrationEnd. It is
		// pinned as it is appended, so a flush commit that forces it does
		// not cut past it either, unless it is the base routing.
		snap = f.rpart.RoutingSnapshot()
		s := f.shards[0]
		s.mu.Lock()
		m := f.logs[0].AppendMark(wal.Record{
			Kind:     wal.KindRoutingSnapshot,
			UndoInfo: encodeRoutingMeta(snap),
		})
		if !snap.isBase() {
			s.tree.lowWater.snap = m
		}
		s.mu.Unlock()
		if cut[0].LSN == 0 {
			logs = append(logs, f.logs[0])
		}
	}
	if len(logs) > 0 {
		d, err := f.forceLogs(done, logs)
		if err != nil {
			return d, err
		}
		done = d
	}
	// The snapshot is durable: the migrations it covers need no pins.
	// Log head truncation at the checkpoint records is safe only once the
	// round is durable, and skipped while a migration is in flight — its
	// Start/KeyMoved records may predate this checkpoint and recovery
	// still needs them to resume or roll back the move — or while any
	// shard is quarantined: its Heal replay still reads records that
	// predate this round's checkpoint cut.
	truncate := !f.rebalanceActive.Load() && !anyQuarantined
	for i, s := range f.shards {
		s.mu.Lock()
		s.tree.lowWater.cover(snap.MaxCommitted)
		var err error
		if truncate && cut[i].LSN != 0 {
			if _, err = s.tree.log.TruncateHead(cut[i]); err == nil {
				s.tree.lowWater.pass(cut[i])
			}
		}
		s.mu.Unlock()
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// Sync is an explicit commit point: it forces every attached log, making
// the redo records of all buffered (but not yet flushed) operations
// durable without paying for a flush — one ganged submission, or serial
// per-log forces under DisableLogGang. A no-op without WALs.
func (f *Forest) Sync(at vtime.Ticks) (vtime.Ticks, error) {
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
		r, d, err := s.tree.recover(at)
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
		if f.rpart.isEvacuated(i) {
			ev = evRetire
		}
		s.mu.Lock()
		s.transition(ev, done, done, nil)
		s.mu.Unlock()
	}
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
		s.tree.crashVolatileState()
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
