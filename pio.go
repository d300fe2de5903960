// Package pio is the public façade of this reproduction of "B+-tree Index
// Optimization by Exploiting Internal Parallelism of Flash-based Solid
// State Drives" (Roh, Park, Kim, Shin, Lee — PVLDB 5(4), 2011).
//
// It exposes:
//
//   - the PIO B-tree (the paper's contribution): batched multi-path
//     search, parallel range search, Operation-Queue-buffered updates with
//     psync batch flushes, asymmetric append-only leaves, WAL-based crash
//     recovery, and eq.-(10) self-tuning;
//   - the simulated flash SSD substrate the evaluation runs on (device
//     profiles fitted to the paper's six drives);
//   - the comparison indexes (B+-tree, BFTL, FD-tree, B-link tree) behind
//     the same interface.
//
// All operations are timed in simulated ticks: every method takes the
// caller's current virtual time and returns the completion time, so
// experiments are deterministic and hardware-independent. Use Clock for
// convenience when a single timeline suffices.
//
// Quick start:
//
//	dev := pio.NewDevice(pio.P300)
//	idx, err := pio.Open(dev, pio.DefaultOptions())
//	...
//	done, err := idx.Insert(now, pio.Record{Key: 42, Value: 1000})
//	v, ok, done, err := idx.Search(done, 42)
package pio

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// Ticks is simulated time in nanoseconds.
type Ticks = vtime.Ticks

// Record is an index record: a key and a data-page pointer.
type Record = kv.Record

// Key and Value alias the record components.
type (
	Key   = kv.Key
	Value = kv.Value
)

// Profile selects a simulated SSD model.
type Profile string

// The six device profiles benchmarked in the paper.
const (
	Iodrive Profile = "iodrive"
	P300    Profile = "p300"
	F120    Profile = "f120"
	X25E    Profile = "x25e"
	X25M    Profile = "x25m"
	Vertex2 Profile = "vertex2"
)

// Device is a simulated flash SSD plus a file space on it.
type Device struct {
	dev    *flashsim.Device
	space  *ssdio.Space
	nextID int
}

// NewDevice creates a fresh simulated SSD of the given profile. Unknown
// profiles panic (they are compile-time constants in practice); use
// NewDeviceNamed for dynamic names.
func NewDevice(p Profile) *Device {
	d, err := NewDeviceNamed(string(p))
	if err != nil {
		panic(err)
	}
	return d
}

// NewDeviceNamed creates a device from a profile name.
func NewDeviceNamed(name string) (*Device, error) {
	cfg, err := flashsim.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	dev, err := flashsim.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	return &Device{dev: dev, space: ssdio.NewSpace(dev)}, nil
}

// Stats returns device-level counters.
func (d *Device) Stats() flashsim.Stats { return d.dev.Stats() }

// FaultPlane is a compiled fault-injection program installed on a device;
// see Device.InjectFaults.
type FaultPlane = faultio.Plane

// InjectFaults compiles a declarative fault program (see faultio.Parse
// for the grammar, e.g. "transient call=gang p=0.01; permanent
// file=pio-1-shard2 from=5ms") and installs it on the device's I/O
// plane. Failed submission units never touch file contents, so the
// durable state equals a crash-before-write and WAL recovery reasoning
// applies unchanged. Decisions are deterministic in (seed, file, call,
// vtime, request shape): reruns are byte-reproducible. Returns the plane
// for Stats and Revive.
func (d *Device) InjectFaults(program string, seed uint64) (*FaultPlane, error) {
	prog, err := faultio.Parse(program)
	if err != nil {
		return nil, err
	}
	prog.Seed = seed
	pl := faultio.New(prog)
	d.space.SetInjector(pl)
	return pl, nil
}

// ClearFaults removes the device's fault injector; I/O behaves — and
// costs — exactly as if the hook never existed.
func (d *Device) ClearFaults() { d.space.SetInjector(nil) }

// Options configure a PIO B-tree index.
type Options struct {
	// PageSize is the internal node / leaf segment size in bytes.
	PageSize int
	// LeafSegs is L, the leaf size in segments.
	LeafSegs int
	// OPQPages is O, the Operation Queue budget in pages.
	OPQPages int
	// PioMax bounds requests per psync call.
	PioMax int
	// SPeriod is the OPQ sort period.
	SPeriod int
	// BCnt bounds entries per batch-update flush (<= 0: whole queue).
	BCnt int
	// BufferBytes is the internal-node buffer pool budget.
	BufferBytes int
	// WAL enables write-ahead logging and crash recovery.
	WAL bool
	// CapacityHint sizes the backing file (bytes); default 64MB.
	CapacityHint int64
	// Retry bounds the transient-I/O-fault retry loop (zero value =
	// defaults: 4 retries, 50µs base backoff doubling to 2ms).
	Retry RetryPolicy
}

// RetryPolicy bounds the transient-fault retry loop; see core.RetryPolicy.
type RetryPolicy = core.RetryPolicy

// HealPolicy paces quarantined-shard auto-heal probing; see
// core.HealPolicy.
type HealPolicy = core.HealPolicy

// EvacuationPolicy bounds how long a quarantined shard may stay degraded
// before its range is migrated to healthy shards; see
// core.EvacuationPolicy.
type EvacuationPolicy = core.EvacuationPolicy

// DefaultOptions mirror the paper's Section 4.1 setup at repository scale.
func DefaultOptions() Options {
	return Options{
		PageSize:    2048,
		LeafSegs:    4,
		OPQPages:    4,
		PioMax:      64,
		SPeriod:     5000,
		BCnt:        5000,
		BufferBytes: 64 * 1024,
	}
}

// withTreeDefaults sets o's tree knobs from DefaultOptions; WAL,
// CapacityHint and Retry keep the caller's values.
func (o Options) withTreeDefaults() Options {
	d := DefaultOptions()
	o.PageSize, o.LeafSegs, o.OPQPages, o.PioMax = d.PageSize, d.LeafSegs, d.OPQPages, d.PioMax
	o.SPeriod, o.BCnt, o.BufferBytes = d.SPeriod, d.BCnt, d.BufferBytes
	return o
}

// Open creates a fresh PIO B-tree on dev: a one-shard forest, which is
// the paper's Section 4.2 scheme (one index under one flush lock) and is
// safe for concurrent goroutine use. The OPQ and buffer budgets are the
// single tree's own.
func Open(dev *Device, opts Options) (*Forest, error) {
	return OpenForest(dev, ForestOptions{Options: opts, Shards: 1})
}

// ForestOptions configure a sharded PIO forest (OpenForest).
type ForestOptions struct {
	// Options are the per-tree knobs; OPQPages and BufferBytes are GLOBAL
	// budgets that the forest splits evenly across shards. WAL attaches
	// one write-ahead log per shard and turns the coordinator's group
	// flushes into two-phase group commits (one ganged log force before
	// the data writes, one after).
	Options
	// Shards is the number of partitions (default 4).
	Shards int
	// RangeBounds, when non-nil, selects range partitioning with these
	// ascending split keys (len must be Shards-1): shard i covers
	// [RangeBounds[i-1], RangeBounds[i]). Nil hash-partitions the keys.
	RangeBounds []Key
	// RipeFraction is the OPQ fill ratio at which a shard joins a group
	// flush triggered by another shard (default 0.5).
	RipeFraction float64
	// MigrationChunk bounds the keys streamed per online-rebalancing
	// chunk (default 256).
	MigrationChunk int
	// Heal paces the auto-heal prober for quarantined shards (zero value
	// = enabled with defaults; Forest.Heal works alongside it).
	Heal HealPolicy
	// Evacuation bounds how long a shard may stay quarantined before
	// AutoRebalance migrates its range to healthy shards (zero value =
	// enabled with the default deadline).
	Evacuation EvacuationPolicy
}

// RebalancePolicy drives Forest.AutoRebalance off the per-shard load
// stats.
type RebalancePolicy = core.RebalancePolicy

// Migration is an in-flight online key-range move; see
// Forest.StartMigration.
type Migration = core.Migration

// MoveRule is one committed routing-table override; see
// core.RebalancingPartitioner.
type MoveRule = core.MoveRule

// DefaultForestOptions are DefaultOptions spread over 4 shards, with the
// global OPQ budget scaled so each shard keeps the single-tree queue
// depth.
func DefaultForestOptions() ForestOptions {
	o := DefaultOptions()
	o.OPQPages *= 4
	return ForestOptions{Options: o, Shards: 4}
}

// Forest is a sharded PIO B-tree: keys are partitioned across independent
// PIO trees on one device, each with its own Operation Queue and flush
// lock, so a batch flush on one shard never stalls operations on the
// others, and ripe shards flush together through a single concatenated
// psync submission. All Forest methods are safe for concurrent goroutine
// use.
type Forest struct {
	f    *core.Forest
	opts ForestOptions
}

// OpenForest creates a fresh sharded PIO forest on dev.
func OpenForest(dev *Device, opts ForestOptions) (*Forest, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.PageSize == 0 {
		// Only the tree knobs default. The global OPQ budget scales with
		// the shard count so every shard keeps the single-tree queue depth.
		opts.Options = opts.Options.withTreeDefaults()
		opts.OPQPages *= opts.Shards
	}
	var part core.Partitioner
	if opts.RangeBounds != nil {
		if len(opts.RangeBounds) != opts.Shards-1 {
			return nil, fmt.Errorf("pio: %d range bounds for %d shards, want %d",
				len(opts.RangeBounds), opts.Shards, opts.Shards-1)
		}
		part = core.RangePartitioner{Bounds: opts.RangeBounds}
	}
	cap := opts.CapacityHint
	if cap <= 0 {
		cap = 64 << 20
	}
	dev.nextID++
	fr, _, _, err := core.Build(dev.space, core.Spec{
		Prefix:   fmt.Sprintf("pio-%d-", dev.nextID),
		Shards:   opts.Shards,
		Capacity: cap,
		WAL:      opts.WAL,
		Forest: core.ForestConfig{
			Partitioner:  part,
			RipeFraction: opts.RipeFraction,
			Shard: core.Config{
				PageSize:    opts.PageSize,
				LeafSegs:    opts.LeafSegs,
				OPQPages:    opts.OPQPages,
				PioMax:      opts.PioMax,
				SPeriod:     opts.SPeriod,
				BCnt:        opts.BCnt,
				BufferBytes: opts.BufferBytes,
				Retry:       opts.Retry,
			},
			MigrationChunk: opts.MigrationChunk,
			Heal:           opts.Heal,
			Evacuation:     opts.Evacuation,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Forest{f: fr, opts: opts}, nil
}

// BulkLoad populates an empty forest from key-sorted records without
// simulated cost (initial load).
func (fx *Forest) BulkLoad(recs []Record) error { return fx.f.BulkLoad(recs) }

// Insert buffers an index-insert on the owning shard; a full shard OPQ
// triggers a coordinated group flush.
func (fx *Forest) Insert(at Ticks, r Record) (Ticks, error) { return fx.f.Insert(at, r) }

// Delete buffers an index-delete.
func (fx *Forest) Delete(at Ticks, k Key) (Ticks, error) { return fx.f.Delete(at, k) }

// Update buffers an index-update.
func (fx *Forest) Update(at Ticks, r Record) (Ticks, error) { return fx.f.Update(at, r) }

// Search performs a point search on the owning shard; flushes on other
// shards do not delay it.
func (fx *Forest) Search(at Ticks, k Key) (Value, bool, Ticks, error) {
	return fx.f.Search(at, k)
}

// SearchMany resolves a batch of keys with one MPSearch per involved
// shard, all descending in parallel in virtual time.
func (fx *Forest) SearchMany(at Ticks, keys []Key) (map[Key]Value, Ticks, error) {
	return fx.f.SearchMany(at, keys)
}

// RangeSearch merges the parallel range search over every shard that may
// hold [lo, hi).
func (fx *Forest) RangeSearch(at Ticks, lo, hi Key) ([]Record, Ticks, error) {
	return fx.f.RangeSearch(at, lo, hi)
}

// Flush forces one coordinated group flush seeded by the fullest shard.
func (fx *Forest) Flush(at Ticks) (Ticks, error) { return fx.f.Flush(at) }

// Checkpoint drains every shard's OPQ, logs the routing snapshot and
// cuts each log at its checkpoint record. Logs stay bounded without it:
// each flush that empties a shard's queue moves that log's head.
func (fx *Forest) Checkpoint(at Ticks) (Ticks, error) { return fx.f.Checkpoint(at) }

// Count returns the number of live records across all shards.
func (fx *Forest) Count() int64 { return fx.f.Count() }

// Height returns the tallest shard height.
func (fx *Forest) Height() int { return fx.f.Height() }

// Pending returns the total number of OPQ-buffered operations.
func (fx *Forest) Pending() int { return fx.f.Pending() }

// Shards returns the partition count.
func (fx *Forest) Shards() int { return fx.f.ShardCount() }

// Stats aggregates per-shard counters and flush-coordinator activity.
func (fx *Forest) Stats() core.ForestStats { return fx.f.Stats() }

// CheckInvariants validates every shard's on-disk structure and key
// placement (testing/debugging).
func (fx *Forest) CheckInvariants() error { return fx.f.CheckInvariants() }

// Sync is an explicit commit point: one ganged force makes the redo
// records of every buffered operation durable across all shard logs in a
// single blocking submission. A no-op without WAL.
func (fx *Forest) Sync(at Ticks) (Ticks, error) { return fx.f.Sync(at) }

// SplitShard carves shard i at boundary while the forest keeps serving:
// every key >= boundary that routes to i migrates in bounded chunks to
// the least-loaded other shard (returned). The routing flip commits
// through the WAL group-commit path; a crash mid-move is resumed or
// rolled back by Recover.
func (fx *Forest) SplitShard(at Ticks, i int, boundary Key) (int, Ticks, error) {
	return fx.f.SplitShard(at, i, boundary)
}

// MergeShards migrates every key routed to shard j into shard i while
// serving, leaving j empty — a natural destination for a later split.
func (fx *Forest) MergeShards(at Ticks, i, j int) (Ticks, error) {
	return fx.f.MergeShards(at, i, j)
}

// StartMigration begins moving the keys of [lo, hi) that route to shard
// src onto shard dst and returns the in-flight move; drive it with
// Step to interleave chunks with foreground work. SplitShard and
// MergeShards wrap this and run to completion.
func (fx *Forest) StartMigration(at Ticks, lo, hi Key, src, dst int) (*Migration, Ticks, error) {
	return fx.f.StartMigration(at, lo, hi, src, dst)
}

// AutoRebalance sheds load off the hottest shard when it absorbed
// disproportionate traffic since the last call: it moves the end of the
// shard's key range that its sampled keys say carries the excess
// onto the least-loaded shard, sized to the policy's DrainBudget. Returns
// whether a migration ran and the shard pair.
func (fx *Forest) AutoRebalance(at Ticks, pol RebalancePolicy) (moved bool, from, to int, done Ticks, err error) {
	return fx.f.AutoRebalance(at, pol)
}

// Routing exposes the forest's routing table (epoch, committed move
// rules, in-flight migration).
func (fx *Forest) Routing() *core.RebalancingPartitioner { return fx.f.Routing() }

// ErrShardQuarantined rejects writes addressed to a quarantined shard;
// match with errors.Is. ErrInjected tags every fault the injection
// plane produced, so callers can tell injected failures from organic
// ones in mixed tests.
var (
	ErrShardQuarantined = core.ErrShardQuarantined
	ErrInjected         = faultio.ErrInjected
)

// Quarantined returns the indexes of shards currently in read-only
// degraded mode (writes rejected with ErrShardQuarantined; reads
// served from the last committed state).
func (fx *Forest) Quarantined() []int { return fx.f.Quarantined() }

// Heal re-admits a quarantined shard: its log tail is forced, the shard
// is rewound to the durable snapshot and the committed log replayed —
// the crash-recovery procedure, minus the crash. Fails (and leaves the
// shard fully offline) while the device keeps erroring; after the fault
// clears (or FaultPlane.Revive) it restores full service.
func (fx *Forest) Heal(at Ticks, shard int) (Ticks, error) { return fx.f.Heal(at, shard) }

// Crash simulates a whole-forest crash: every shard's volatile state
// (OPQ, LSMap, buffer pool, unforced log tails) is lost; the simulated
// SSD contents and the forced WAL records remain. Only meaningful with
// WAL enabled; follow with Recover.
func (fx *Forest) Crash() { fx.f.Crash() }

// Recover replays every shard's WAL per the paper's Section 3.4 and
// returns the aggregated per-shard report.
func (fx *Forest) Recover(at Ticks) (core.ForestRecoveryReport, Ticks, error) {
	return fx.f.Recover(at)
}

// Clock is a convenience single timeline for applications that do not
// track virtual time themselves.
type Clock struct{ now Ticks }

// Now returns the clock's current simulated time.
func (c *Clock) Now() Ticks { return c.now }

// Advance moves the clock to t if later.
func (c *Clock) Advance(t Ticks) { c.now = vtime.Max(c.now, t) }

// Elapsed converts the clock to seconds of simulated time.
func (c *Clock) Elapsed() float64 { return c.now.Seconds() }
