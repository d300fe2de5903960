package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// This file implements online shard rebalancing: migrating a key range
// between two live PIO trees of a Forest while reads and writes keep
// flowing.
//
// Routing is an immutable snapshot swapped atomically: the base Range or
// Hash partitioner, an ordered list of committed MoveRules, and at most
// one in-flight migration. The migration carries a FRONTIER: keys in
// [lo, frontier) already live on the destination shard and route there,
// keys in [frontier, hi) still route to the source. Every key therefore
// has exactly one authoritative shard at every instant — lookups
// "dual-route" by consulting the migration map on top of the base table,
// and no write can be lost to a stale copy or a resurrected delete.
//
// The migration streams keys in bounded chunks under the source shard's
// virtual lock. A quarantine evacuation (healing.go) is the same protocol
// over a source that cannot be written: its device may never accept
// another write. That one bit decides where the records go. A migration
// logs them on both shards and KeyMoved on the source; an evacuation
// logs everything on the destination and never touches the source. One
// chunk commits with the WAL discipline
//
//	copy chunk to dst (redo records append to dst's log)
//	FORCE dst log                        -- copies durable first
//	append KeyMoved[chunk]               -- src log, or dst log (evacuation)
//	delete chunk keys from src           -- writable source only
//	FORCE src log                        -- writable source only
//	publish frontier = chunk end
//
// so at any crash point the durable KeyMoved frontier never points at
// keys the destination could have lost: KeyMoved durable implies the
// chunk's copies are durable, and the source's deletes durable implies
// KeyMoved durable (log prefix order). An evacuation's KeyMoved becomes
// durable with the next chunk's copy force or the commit force; until
// then recovery re-streams the chunk. Forest.Recover resumes a half-done
// move from the durable frontier, or rolls it back when no chunk ever
// committed. An abort mid-stream keeps the prefix the source already
// deleted — [lo, frontier) for a migration, nothing for an evacuation —
// and the routing-table flip commits through the same ganged
// group-commit force the flush coordinator uses; an evacuation's flip
// also retires the source.

// MoveRule reroutes keys in [Lo, Hi) that the routing so far assigns to
// shard From onto shard To. Rules apply in commit order, so a later rule
// observes the rerouting of earlier ones.
//
//lint:immutable
type MoveRule struct {
	Lo, Hi   kv.Key
	From, To int
	// ID is the committing migration's id (monotone across the forest).
	ID uint64
}

// migRoute is the in-flight migration's routing state inside a snapshot.
//
//lint:immutable
type migRoute struct {
	id       uint64
	lo, hi   kv.Key
	src, dst int
	frontier kv.Key // keys in [lo, frontier) already live on dst
}

// routing is one immutable routing-table snapshot: readers resolve
// shards through it lock-free, so a published snapshot is never mutated
// — writers copy it, adjust the copy, and publish the copy.
//
//lint:immutable
type routing struct {
	base  Partitioner
	slots int
	rules []MoveRule
	epoch uint64
	// maxCommitted is the highest migration id already committed or
	// rolled back; recovery replays only migration records above it.
	maxCommitted uint64
	mig          *migRoute
	// evac is the bitmask of evacuated shards: their whole range was
	// migrated onto healthy shards by a quarantine evacuation, but their
	// devices rejected the source-side deletes, so the stale physical
	// copies they retain must be skipped by every multi-shard sweep. Part
	// of the durable routing snapshot (the rules alone cannot express
	// "and don't read the source").
	evac uint64
}

// route resolves the authoritative shard of key k.
func (rt *routing) route(k kv.Key) int {
	s := rt.base.Shard(k)
	for _, r := range rt.rules {
		if s == r.From && k >= r.Lo && k < r.Hi {
			s = r.To
		}
	}
	if m := rt.mig; m != nil && s == m.src && k >= m.lo && k < m.frontier {
		s = m.dst
	}
	return s
}

// RebalancingPartitioner wraps Range or Hash routing with the committed
// move rules and the in-flight migration map of online rebalancing. All
// methods are safe for concurrent use: readers load one immutable
// snapshot, migrations publish new ones.
type RebalancingPartitioner struct {
	cur atomic.Pointer[routing]
}

// NewRebalancingPartitioner wraps base, which must cover exactly slots
// shards and must not itself be a rebalancing wrapper.
func NewRebalancingPartitioner(base Partitioner, slots int) (*RebalancingPartitioner, error) {
	if base == nil {
		return nil, fmt.Errorf("core: rebalancing partitioner needs a base partitioner")
	}
	if _, ok := base.(*RebalancingPartitioner); ok {
		return nil, fmt.Errorf("core: rebalancing partitioner cannot wrap another rebalancing partitioner")
	}
	if base.Shards() != slots {
		return nil, fmt.Errorf("core: rebalancing base covers %d shards, forest has %d", base.Shards(), slots)
	}
	p := &RebalancingPartitioner{}
	p.cur.Store(&routing{base: base, slots: slots})
	return p, nil
}

// Shards returns the physical shard count.
func (p *RebalancingPartitioner) Shards() int { return p.cur.Load().slots }

// Shard resolves the authoritative shard of k: base routing, then the
// committed move rules, then the in-flight migration frontier.
func (p *RebalancingPartitioner) Shard(k kv.Key) int { return p.cur.Load().route(k) }

// RangeShards returns an ascending superset of the shards that may hold
// keys in [lo, hi): the base set, widened by every overlapping rule and
// the in-flight migration.
func (p *RebalancingPartitioner) RangeShards(lo, hi kv.Key) []int {
	if hi <= lo {
		return nil
	}
	rt := p.cur.Load()
	// The base's ascending list, clipped so an insertion copies it.
	out := slices.Clip(rt.base.RangeShards(lo, hi))
	// A move out of a shard in the list adds its destination.
	moved := func(from, to int) {
		if _, ok := slices.BinarySearch(out, from); ok {
			if i, ok := slices.BinarySearch(out, to); !ok {
				out = slices.Insert(out, i, to)
			}
		}
	}
	for _, r := range rt.rules {
		if r.Lo < hi && lo < r.Hi {
			moved(r.From, r.To)
		}
	}
	if m := rt.mig; m != nil && m.lo < hi && lo < m.hi {
		moved(m.src, m.dst)
	}
	return out
}

// Base returns the wrapped partitioner.
func (p *RebalancingPartitioner) Base() Partitioner { return p.cur.Load().base }

// Epoch returns the routing-table version, bumped on every published
// change (migration start, frontier advance, commit, recovery rebuild).
func (p *RebalancingPartitioner) Epoch() uint64 { return p.cur.Load().epoch }

// Rules returns a copy of the committed move rules in commit order.
func (p *RebalancingPartitioner) Rules() []MoveRule {
	rt := p.cur.Load()
	out := make([]MoveRule, len(rt.rules))
	copy(out, rt.rules)
	return out
}

// IsEvacuated reports whether shard i's range has been evacuated onto
// healthy shards (see routing.evac).
func (p *RebalancingPartitioner) IsEvacuated(i int) bool {
	return i >= 0 && i < 64 && p.cur.Load().evac&(1<<uint(i)) != 0
}

// Migrating reports the in-flight migration's source and destination.
func (p *RebalancingPartitioner) Migrating() (src, dst int, active bool) {
	if m := p.cur.Load().mig; m != nil {
		return m.src, m.dst, true
	}
	return 0, 0, false
}

// publish installs next as the current snapshot with a bumped epoch.
func (p *RebalancingPartitioner) publish(next routing) {
	next.epoch = p.cur.Load().epoch + 1
	p.cur.Store(&next)
}

// RoutingMeta is the durable form of the routing table: what a DBMS
// catalog would persist alongside the per-shard Meta, and what the
// KindRoutingSnapshot WAL record carries.
type RoutingMeta struct {
	Epoch        uint64
	MaxCommitted uint64
	// Evacuated is the evacuated-shard bitmask (see routing.evac).
	Evacuated uint64
	Rules     []MoveRule
}

// RoutingSnapshot captures the committed routing state (the in-flight
// migration is volatile and reconstructed from the WAL).
func (p *RebalancingPartitioner) RoutingSnapshot() RoutingMeta {
	rt := p.cur.Load()
	rules := make([]MoveRule, len(rt.rules))
	copy(rules, rt.rules)
	return RoutingMeta{Epoch: rt.epoch, MaxCommitted: rt.maxCommitted, Evacuated: rt.evac, Rules: rules}
}

// encodeRoutingMeta serializes a routing snapshot for the
// KindRoutingSnapshot WAL record payload: a 28-byte header (epoch,
// max-committed, evacuated mask, rule count) followed by 32 bytes per
// rule.
func encodeRoutingMeta(m RoutingMeta) []byte {
	b := make([]byte, 0, 28+len(m.Rules)*32)
	b = binary.LittleEndian.AppendUint64(b, m.Epoch)
	b = binary.LittleEndian.AppendUint64(b, m.MaxCommitted)
	b = binary.LittleEndian.AppendUint64(b, m.Evacuated)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Rules)))
	for _, r := range m.Rules {
		b = binary.LittleEndian.AppendUint64(b, r.Lo)
		b = binary.LittleEndian.AppendUint64(b, r.Hi)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.From))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.To))
		b = binary.LittleEndian.AppendUint64(b, r.ID)
	}
	return b
}

// decodeRoutingMeta parses a KindRoutingSnapshot payload.
func decodeRoutingMeta(b []byte) (RoutingMeta, error) {
	var m RoutingMeta
	if len(b) < 28 {
		return m, fmt.Errorf("core: routing snapshot too short (%d bytes)", len(b))
	}
	m.Epoch = binary.LittleEndian.Uint64(b)
	m.MaxCommitted = binary.LittleEndian.Uint64(b[8:])
	m.Evacuated = binary.LittleEndian.Uint64(b[16:])
	n := int(binary.LittleEndian.Uint32(b[24:]))
	b = b[28:]
	if len(b) != n*32 {
		return m, fmt.Errorf("core: routing snapshot rule payload %d bytes, want %d", len(b), n*32)
	}
	m.Rules = make([]MoveRule, n)
	for i := range m.Rules {
		m.Rules[i] = MoveRule{
			Lo:   binary.LittleEndian.Uint64(b),
			Hi:   binary.LittleEndian.Uint64(b[8:]),
			From: int(binary.LittleEndian.Uint32(b[16:])),
			To:   int(binary.LittleEndian.Uint32(b[20:])),
			ID:   binary.LittleEndian.Uint64(b[24:]),
		}
		b = b[32:]
	}
	return m, nil
}

// validateRules rejects rule lists that would misroute.
func validateRules(rules []MoveRule, slots int) error {
	for i, r := range rules {
		if r.Lo >= r.Hi {
			return fmt.Errorf("core: move rule %d has empty range [%d, %d)", i, r.Lo, r.Hi)
		}
		if r.From < 0 || r.From >= slots || r.To < 0 || r.To >= slots {
			return fmt.Errorf("core: move rule %d targets shard %d->%d outside [0,%d)", i, r.From, r.To, slots)
		}
		if r.From == r.To {
			return fmt.Errorf("core: move rule %d moves shard %d onto itself", i, r.From)
		}
	}
	return nil
}

// MaxMigrationKey is the exclusive upper bound used by SplitShard and
// MergeShards to cover a shard's whole upper key space. The single key
// ^uint64(0) itself is never migrated (half-open ranges throughout).
const MaxMigrationKey = ^kv.Key(0)

// Migration is one in-flight key-range move between two shards. Obtain
// one with Forest.StartMigration and drive it with Step — each step
// moves one bounded chunk, so the caller chooses the interleaving with
// foreground traffic. SplitShard and MergeShards drive a migration to
// completion in one call; AutoRebalance also starts evacuations, which
// are migrations out of a quarantined source.
type Migration struct {
	f *Forest
	migSpec
	// bounds are the planned chunk boundaries: chunk i covers
	// [bounds[i], bounds[i+1]).
	bounds []kv.Key
	idx    int
	moved  int64
	done   bool
}

// migSpec is what a migration's WAL records say about it: the id, the
// range, the shard pair, and whether the source can be written.
type migSpec struct {
	id       uint64
	lo, hi   kv.Key
	src, dst int
	// srcWritable is false for a quarantine evacuation, whose source
	// device may never accept another write. Everything that differs
	// between the two follows from it: which logs carry the records
	// (recordShards), the records' ops, whether chunks delete from the
	// source, the prefix an abort keeps, and whether the commit retires
	// the source.
	srcWritable bool
}

// recordShards returns the shards whose logs carry the protocol records:
// both ends of a migration, the destination alone when the source cannot
// be written. The first one also carries the KeyMoved records.
func (m migSpec) recordShards() []int {
	if m.srcWritable {
		return []int{m.src, m.dst}
	}
	return []int{m.dst}
}

// startOp is the op of the Start record: OpEvacuate marks an evacuation.
func (m migSpec) startOp() wal.OpType {
	if m.srcWritable {
		return 0
	}
	return wal.OpEvacuate
}

// commitOp is the op of the End record that commits the whole range.
func (m migSpec) commitOp() wal.OpType {
	if m.srcWritable {
		return wal.OpMigrationCommit
	}
	return wal.OpEvacuate
}

// Done reports whether the migration has committed.
func (m *Migration) Done() bool { return m.done }

// Moved returns the number of keys migrated so far.
func (m *Migration) Moved() int64 { return m.moved }

// Range returns the migrating key range and the shard pair.
func (m *Migration) Range() (lo, hi kv.Key, src, dst int) {
	return m.lo, m.hi, m.src, m.dst
}

// StartMigration begins moving the keys of [lo, hi) that currently route
// to shard src onto shard dst. It plans the chunk schedule from a timed
// range scan of the source, makes the MigrationStart record durable
// through the ganged force, and publishes the migration into the routing
// table with frontier = lo. At most one migration may be in flight.
func (f *Forest) StartMigration(at vtime.Ticks, lo, hi kv.Key, src, dst int) (*Migration, vtime.Ticks, error) {
	n := len(f.shards)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, at, fmt.Errorf("core: migration shards %d->%d outside [0,%d)", src, dst, n)
	}
	if src == dst {
		return nil, at, fmt.Errorf("core: migration source and destination are both shard %d", src)
	}
	if hi <= lo {
		return nil, at, fmt.Errorf("core: migration range [%d, %d) is empty", lo, hi)
	}
	for _, si := range []int{src, dst} {
		s := f.shards[si]
		s.mu.Lock()
		err := s.writeErr(si)
		s.mu.Unlock()
		if err != nil {
			// A quarantined shard can neither stream chunks nor absorb
			// copies; Heal it first.
			return nil, at, err
		}
	}
	if !f.rebalanceActive.CompareAndSwap(false, true) {
		return nil, at, fmt.Errorf("core: a migration is already in flight")
	}
	m, done, err := f.startMigrationLocked(at, lo, hi, src, dst, true)
	if err != nil {
		f.rebalanceActive.Store(false)
		return nil, done, err
	}
	return m, done, nil
}

// startMigrationLocked is the start path of migrations and evacuations:
// plan the chunks, make the Start record durable on the record logs, and
// publish the migration. The caller has checked its entry conditions and
// claimed rebalanceActive. An evacuation's source is re-checked under
// its lock — a Heal may have re-admitted it, or a failed one left it
// dirty, since the caller's scan — and a source that no longer
// qualifies returns a nil migration and no error.
func (f *Forest) startMigrationLocked(at vtime.Ticks, lo, hi kv.Key, src, dst int, srcWritable bool) (*Migration, vtime.Ticks, error) {
	f.migMu.Lock()
	defer f.migMu.Unlock()
	// Both shards are locked (ascending index order, the same discipline
	// as lockPair): the start-record force below may have to quarantine
	// the destination when its log device fails the gang.
	plo, phi := src, dst
	if plo > phi {
		plo, phi = phi, plo
	}
	for _, si := range []int{plo, phi} {
		sh := f.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if si == src && !srcWritable && sh.health != quarantined {
			return nil, at, nil
		}
	}
	s := f.shards[src]

	// Plan the chunk schedule: a timed scan of the source range yields the
	// key population; every chunk-th key becomes a boundary. Keys inserted
	// mid-migration fall inside an existing chunk range and are picked up
	// when that chunk streams. An evacuation's source is quarantined: the
	// rollback at quarantine time left it exactly at its committed state.
	start := s.vlock.Acquire(at)
	recs, done, err := s.tree.RangeSearch(start, lo, hi)
	if err != nil {
		s.vlock.Release(done)
		return nil, done, err
	}
	chunk := f.migChunk
	bounds := []kv.Key{lo}
	for i := chunk; i < len(recs); i += chunk {
		if k := recs[i].Key; k > bounds[len(bounds)-1] && k < hi {
			bounds = append(bounds, k)
		}
	}
	bounds = append(bounds, hi)

	m := &Migration{f: f, bounds: bounds, migSpec: migSpec{
		id: f.nextMigrationID(), lo: lo, hi: hi, src: src, dst: dst, srcWritable: srcWritable,
	}}
	var logs []*wal.Log
	for _, si := range m.recordShards() {
		if t := f.shards[si].tree; t.log != nil {
			t.log.Append(wal.Record{
				Kind: wal.KindMigrationStart, Relation: t.cfg.Relation,
				FlushID: m.id, KeyLo: lo, KeyHi: hi, Key: uint64(src), Value: uint64(dst), Op: m.startOp(),
			})
			logs = append(logs, t.log)
		}
	}
	if len(logs) > 0 {
		// The start record commits through the same ganged force as the
		// flush coordinator's group commit.
		done, err = f.forceLogs(done, logs)
		if err != nil {
			// Contain like the flush coordinator's prepare: a member whose
			// start record is not durable is quarantined (the rollback drops
			// the stranded append), the never-published migration is closed
			// with abort records, and the refusal surfaces as a quarantine,
			// not a raw fault.
			var failing int
			done, failing = f.quarantineBlamed(done, err, m.recordShards())
			// A failed force is fine: the Ends stay in the tails and either
			// a Heal forces them or crash recovery rolls the open migration
			// back — the routing was never touched.
			if d, ferr := f.endMigration(done, m.migSpec, lo, hi, wal.OpMigrationAbort); ferr == nil {
				done = d
			}
			f.migrationAborts.Add(1)
			s.vlock.Release(done)
			return nil, done, shardQuarantinedErr(failing, err)
		}
	}
	rt := f.rpart.cur.Load()
	next := *rt
	next.mig = &migRoute{id: m.id, lo: lo, hi: hi, src: src, dst: dst, frontier: lo}
	f.rpart.publish(next)
	s.vlock.Release(done)
	return m, done, nil
}

// quarantineBlamed quarantines the shards of sis that attribute blames
// for a failed force of their logs. It returns the rollbacks' completion
// time and the first shard blamed. Caller holds the shards' locks.
func (f *Forest) quarantineBlamed(at vtime.Ticks, err error, sis []int) (vtime.Ticks, int) {
	members := make([]*forestShard, len(sis))
	for i, si := range sis {
		members[i] = f.shards[si]
	}
	first := -1
	for i, e := range attribute(err, members, nil) {
		if e != nil {
			at = f.quarantineShard(at, members[i], e)
			if first < 0 {
				first = sis[i]
			}
		}
	}
	return at, first
}

// nextMigrationID hands out forest-unique migration ids above everything
// committed or observed so far.
func (f *Forest) nextMigrationID() uint64 {
	for {
		cur := f.migIDSeq.Load()
		next := cur + 1
		if rt := f.rpart.cur.Load(); rt.maxCommitted >= cur {
			next = rt.maxCommitted + 1
		}
		if f.migIDSeq.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Step advances the migration by one unit: each call streams one chunk
// (copying its keys to the destination and committing the frontier
// advance per the chunk WAL discipline); once every chunk has streamed,
// one final call commits the routing flip. Returns whether the
// migration is done. The forest keeps serving during and between steps;
// only the chunk's shard pair is locked while a step runs.
func (m *Migration) Step(at vtime.Ticks) (bool, vtime.Ticks, error) {
	if m.done {
		return true, at, nil
	}
	f := m.f
	if m.idx < len(m.bounds)-1 {
		done, err := f.migrateChunk(at, m)
		if err != nil {
			return false, done, err
		}
		m.idx++
		return false, done, nil
	}
	done, err := f.commitMigration(at, m)
	if err != nil {
		return false, done, err
	}
	m.done = true
	return true, done, nil
}

// checkMigrationLive rejects steps on a stale Migration handle: a Crash
// (and the Recover that resolves the move from its durable records)
// drops the in-flight migration from the routing table, so the handle's
// id no longer matches and continuing would corrupt routing.
func (f *Forest) checkMigrationLive(m *Migration) error {
	if mig := f.rpart.cur.Load().mig; mig == nil || mig.id != m.id {
		return fmt.Errorf("core: migration %d is no longer in flight (a crash or recovery resolved it); discard this handle", m.id)
	}
	return nil
}

// lockPair locks the two shards in ascending index order (the same
// discipline as the flush coordinator, so the two can never deadlock).
func (f *Forest) lockPair(a, b int) func() {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	f.shards[lo].mu.Lock()
	f.shards[hi].mu.Lock()
	return func() {
		f.shards[hi].mu.Unlock()
		f.shards[lo].mu.Unlock()
	}
}

// migrateChunk moves one chunk [bounds[idx], bounds[idx+1]) under the
// source shard's virtual lock, following the chunk WAL discipline
// documented at the top of this file.
func (f *Forest) migrateChunk(at vtime.Ticks, m *Migration) (vtime.Ticks, error) {
	f.migMu.Lock()
	defer f.migMu.Unlock()
	unlock := f.lockPair(m.src, m.dst)
	defer unlock()
	if err := f.checkMigrationLive(m); err != nil {
		return at, err
	}
	src, dst := f.shards[m.src], f.shards[m.dst]
	a, b := m.bounds[m.idx], m.bounds[m.idx+1]

	start := src.vlock.Acquire(at)
	defer func() { src.vlock.Release(start) }()
	// Any mid-chunk failure aborts the migration with the pair
	// quarantined (see abortMigration).
	recs, now, err := src.tree.RangeSearch(start, a, b)
	if err != nil {
		start = now
		now, err = f.abortMigration(now, m, nil, false, err)
		start = vtime.Max(start, now)
		return now, err
	}
	// Copy to the destination: redo records append to dst's log; a full
	// destination OPQ flushes through the ordinary tree path.
	opq := dst.vopq.Acquire(now)
	for _, r := range recs {
		opq, err = dst.tree.Insert(opq, r)
		if err != nil {
			dst.vopq.Release(opq)
			now, err = f.abortMigration(opq, m, recs, false, err)
			start = vtime.Max(opq, now)
			return now, err
		}
	}
	dst.vopq.Release(opq)
	now = opq
	// Chunk phase 1: the copies must be durable before the frontier
	// record can be. A lost dst tail after a durable KeyMoved would strand
	// keys the source is about to delete.
	if dst.tree.log != nil {
		now, err = dst.tree.retryIO(now, dst.tree.log.Force)
		if err != nil {
			now, err = f.abortMigration(now, m, recs, false, err)
			start = vtime.Max(start, now)
			return now, err
		}
	}
	// Chunk phase 2: frontier record first, then the source deletes — the
	// log prefix order then guarantees any durable delete is covered by a
	// durable KeyMoved (and thus by durable copies). A source that cannot
	// be written keeps its copies, and its frontier record rides the
	// destination's log behind the forced copies: whenever it becomes
	// durable (the next chunk's force, or the commit force) the
	// copies-durable-before-KeyMoved invariant still holds. Recovery
	// re-streams an un-recorded chunk harmlessly — the resume path purges
	// destination remnants above the frontier first.
	if t := f.shards[m.recordShards()[0]].tree; t.log != nil {
		t.log.Append(wal.Record{
			Kind: wal.KindKeyMoved, Relation: t.cfg.Relation,
			FlushID: m.id, KeyLo: a, KeyHi: b, Key: uint64(m.src), Value: uint64(m.dst),
		})
	}
	if !m.srcWritable {
		f.evacChunks.Add(1)
	} else {
		for _, r := range recs {
			now, err = src.tree.Delete(now, r.Key)
			if err != nil {
				now, err = f.abortMigration(now, m, recs, true, err)
				start = vtime.Max(start, now)
				return now, err
			}
		}
		if src.tree.log != nil {
			now, err = src.tree.retryIO(now, src.tree.log.Force)
			if err != nil {
				now, err = f.abortMigration(now, m, recs, true, err)
				start = vtime.Max(start, now)
				return now, err
			}
		}
	}
	// Publish the frontier advance: keys in [lo, b) now route to dst.
	rt := f.rpart.cur.Load()
	next := *rt
	mig := *rt.mig
	mig.frontier = b
	next.mig = &mig
	f.rpart.publish(next)
	m.moved += int64(len(recs))
	f.keysMigrated.Add(int64(len(recs)))
	start = now
	return now, nil
}

// abortMigration aborts the in-flight migration after a failure
// mid-chunk, whatever the error's class. Caller holds migMu and both shard locks. The resolution
// must stay consistent under BOTH durable outcomes of the shards' log
// tails — a tail that is never forced (the durable log shows the last
// published frontier F and an open migration, which crash recovery
// resolves), and a tail a later Heal forces in full (the failing chunk's
// copies, KeyMoved and deletes become durable in order). So:
//
//  1. the destination and a writable source roll back to their
//     committed state and quarantine, or go offline when that fails (see
//     quarantineShard); an evacuation's source is left as it is — quarantined,
//     or live again if a Heal re-admitted it mid-stream, in which case
//     its uncommitted writes must survive;
//  2. the kept prefix is what the source already deleted: [lo, F) for a
//     writable source, nothing for one that cannot be written — without
//     the evacuated mark its copies are still swept, so the
//     destination's would double-count;
//  3. compensation records are appended BEHIND the chunk's records:
//     redo-deletes on dst purge the copies above the kept prefix (and, in
//     memory, the durable copies the rollback just resurrected), and
//     redo-inserts on src revive the chunk keys when its deletes were
//     already appended — whenever the tails do become durable, the chunk
//     nets to zero;
//  4. a MigrationEnd commits exactly the kept prefix ('a' aborts
//     outright when it is empty), and recoverRouting takes a 'c' rule's
//     range from the End record, so a durable-but-superseded KeyMoved
//     cannot widen it;
//  5. the routing publishes the partial rule and drops the migration.
func (f *Forest) abortMigration(at vtime.Ticks, m *Migration, recs []kv.Record, undoSrc bool, cause error) (vtime.Ticks, error) {
	src, dst := f.shards[m.src], f.shards[m.dst]
	rt := f.rpart.cur.Load()
	frontier := m.lo
	if rt.mig != nil && rt.mig.id == m.id {
		frontier = rt.mig.frontier
	}
	kept, done := m.lo, at
	if m.srcWritable {
		kept = frontier
		done = f.quarantineShard(done, src, cause)
	}
	done = f.quarantineShard(done, dst, cause)
	// Purge the copies above the kept prefix from the destination: those
	// below the frontier that the committed routing assigns to the source
	// (the rest is the destination's own data), then the in-flight
	// chunk's. tree.Delete both removes any durable copy the rollback
	// resurrected from memory and appends the covering redo-delete to
	// dst's tail; keys whose copy never landed get a harmless tombstone.
	stale := recs
	var err error
	if kept < frontier {
		var copies []kv.Record
		copies, done, err = dst.tree.RangeSearch(done, kept, frontier)
		owner := routing{base: rt.base, rules: rt.rules}
		stale = copies[:0]
		for _, r := range copies {
			if owner.route(r.Key) == m.src {
				stale = append(stale, r)
			}
		}
		stale = append(stale, recs...)
	}
	purged := 0
	for err == nil && purged < len(stale) {
		if done, err = dst.tree.Delete(done, stale[purged].Key); err == nil {
			purged++
		}
	}
	if err != nil {
		// A failed purge leaves stale copies in the destination's memory, so
		// it goes offline; the rest of the purge is appended to its tail as
		// redo-deletes, which the replay of a Heal (it forces the tail
		// first) applies. A failed copy scan cannot name an evacuation's
		// copies below the frontier: those survive such a Heal.
		//lint:ignore guardedby the caller holds both shard locks
		dst.transition(evReplayFail, done, done, err)
		for i := purged; dst.tree.log != nil && i < len(stale); i++ {
			dst.tree.log.Append(wal.Record{
				Kind: wal.KindLogicalRedo, Relation: dst.tree.cfg.Relation,
				Key: stale[i].Key, Op: wal.OpType(kv.OpDelete),
			})
		}
	}
	// The source's chunk deletes (appended, never durable — a durable
	// delete would have published the frontier) are compensated with
	// plain redo-inserts behind them; in memory the rollback already
	// restored the keys.
	if undoSrc && src.tree.log != nil {
		for _, r := range recs {
			src.tree.log.Append(wal.Record{
				Kind: wal.KindLogicalRedo, Relation: src.tree.cfg.Relation,
				Key: r.Key, Value: r.Value, Op: wal.OpType(kv.OpInsert),
			})
		}
	}
	op, endHi := wal.OpMigrationAbort, m.hi
	if kept > m.lo {
		op, endHi = wal.OpMigrationCommit, kept
	}
	// A failed force is fine: the End stays in the tails, the durable log
	// keeps the migration open at frontier F, and either a Heal (forces
	// the tails, compensations included) or a crash recovery (resolves
	// from the durable frontier) converges to this state.
	if d, err := f.endMigration(done, m.migSpec, m.lo, endHi, op); err == nil {
		done = d
	}
	next := *rt
	next.mig = nil
	next.maxCommitted = m.id
	if kept > m.lo {
		next.rules = append(append([]MoveRule(nil), rt.rules...),
			MoveRule{Lo: m.lo, Hi: kept, From: m.src, To: m.dst, ID: m.id})
		f.migrations.Add(1)
	}
	f.rpart.publish(next)
	f.migrationAborts.Add(1)
	f.rebalanceActive.Store(false)
	return done, fmt.Errorf("core: migration %d of shard %d onto %d aborted keeping [%d, %d): %w: %w",
		m.id, m.src, m.dst, m.lo, kept, ErrShardQuarantined, cause)
}

// endMigration closes a migration: a MigrationEnd record — op over
// [lo, hi) — on every record log, forced in one ganged submission.
func (f *Forest) endMigration(at vtime.Ticks, m migSpec, lo, hi kv.Key, op wal.OpType) (vtime.Ticks, error) {
	var logs []*wal.Log
	for _, si := range m.recordShards() {
		if t := f.shards[si].tree; t.log != nil {
			t.log.Append(wal.Record{
				Kind: wal.KindMigrationEnd, Relation: t.cfg.Relation,
				FlushID: m.id, KeyLo: lo, KeyHi: hi, Key: uint64(m.src), Value: uint64(m.dst), Op: op,
			})
			logs = append(logs, t.log)
		}
	}
	if len(logs) == 0 {
		return at, nil
	}
	return f.forceLogs(at, logs)
}

// commitMigration makes the routing flip durable (MigrationEnd through
// the ganged force) and publishes the committed rule. An evacuation's
// flip also publishes the source's evacuated mark and retires the
// source: from here on sweeps skip its stale physical copies and its
// quarantine stops blocking log truncation.
func (f *Forest) commitMigration(at vtime.Ticks, m *Migration) (vtime.Ticks, error) {
	f.migMu.Lock()
	defer f.migMu.Unlock()
	unlock := f.lockPair(m.src, m.dst)
	defer unlock()
	if err := f.checkMigrationLive(m); err != nil {
		return at, err
	}
	done, err := f.endMigration(at, m.migSpec, m.lo, m.hi, m.commitOp())
	if err != nil {
		// Every chunk is durably committed; only the End force failed. The
		// rule may publish regardless: the Ends stay in the tails (a Heal
		// forces them; a crash resolves the open migration from the durable
		// frontier = hi, re-streaming an empty remainder to the same
		// outcome). The members whose End did not land are quarantined.
		done, _ = f.quarantineBlamed(done, err, m.recordShards())
	}
	rt := f.rpart.cur.Load()
	next := *rt
	next.rules = append(append([]MoveRule(nil), rt.rules...),
		MoveRule{Lo: m.lo, Hi: m.hi, From: m.src, To: m.dst, ID: m.id})
	next.maxCommitted = m.id
	next.mig = nil
	if !m.srcWritable {
		next.evac |= 1 << uint(m.src)
		f.evacuations.Add(1)
		//lint:ignore guardedby lockPair holds the source's mu
		f.shards[m.src].transition(evRetire, done, done, nil)
	}
	f.rpart.publish(next)
	f.migrations.Add(1)
	f.rebalanceActive.Store(false)
	return done, nil
}

// SplitShard carves shard i at boundary: every key >= boundary that
// currently routes to i migrates to the least-loaded other shard, which
// is returned. The migration runs to completion before returning; use
// StartMigration/Step to interleave chunks with foreground work.
func (f *Forest) SplitShard(at vtime.Ticks, i int, boundary kv.Key) (int, vtime.Ticks, error) {
	dst, err := f.coldestShard(i)
	if err != nil {
		return -1, at, err
	}
	m, done, err := f.StartMigration(at, boundary, MaxMigrationKey, i, dst)
	if err != nil {
		return -1, done, err
	}
	done, err = m.Drain(done)
	return dst, done, err
}

// MergeShards migrates every key routed to shard j into shard i, leaving
// j empty (and a natural destination for a later split). The migration
// runs to completion before returning.
func (f *Forest) MergeShards(at vtime.Ticks, i, j int) (vtime.Ticks, error) {
	if i == j {
		return at, fmt.Errorf("core: cannot merge shard %d into itself", i)
	}
	m, done, err := f.StartMigration(at, 0, MaxMigrationKey, j, i)
	if err != nil {
		return done, err
	}
	return m.Drain(done)
}

// Drain steps the migration to completion and returns the commit time.
func (m *Migration) Drain(at vtime.Ticks) (vtime.Ticks, error) {
	for {
		done, next, err := m.Step(at)
		if err != nil {
			return next, err
		}
		at = next
		if done {
			return at, nil
		}
	}
}

// DrainUntil steps the migration until it commits or the virtual clock
// reaches deadline, whichever comes first. Chunks are atomic: the last
// one may overshoot the deadline, but no new chunk starts past it. The
// bool reports whether the migration committed.
func (m *Migration) DrainUntil(at, deadline vtime.Ticks) (bool, vtime.Ticks, error) {
	for {
		done, next, err := m.Step(at)
		if err != nil {
			return false, next, err
		}
		at = next
		if done {
			return true, at, nil
		}
		if at >= deadline {
			return false, at, nil
		}
	}
}

// coldestShard picks the shard (other than excluded) holding the fewest
// keys, preferring emptied merge targets as split destinations.
func (f *Forest) coldestShard(exclude int) (int, error) {
	best, bestKeys := -1, int64(0)
	for i, s := range f.shards {
		if i == exclude {
			continue
		}
		// A quarantined shard rejects the migration's inserts.
		s.mu.Lock()
		n, ok := s.tree.Count(), s.health.writable()
		s.mu.Unlock()
		if ok && (best < 0 || n < bestKeys) {
			best, bestKeys = i, n
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("core: forest has no destination shard to rebalance onto")
	}
	return best, nil
}

// RebalancePolicy drives Forest.AutoRebalance off the per-shard load
// stats.
type RebalancePolicy struct {
	// MinOps is the minimum routed operations the hottest shard must have
	// absorbed since the last AutoRebalance call (default 1000).
	MinOps int64
	// HotFactor is the hottest/mean load ratio that triggers a split
	// (default 2.0).
	HotFactor float64
	// DrainBudget bounds the virtual time one AutoRebalance call may
	// spend draining its migration; 0 drains to completion. A move that
	// exceeds the budget stays in flight and later calls resume it, so a
	// stuck (or fault-injected) migration cannot freeze the poller.
	DrainBudget vtime.Ticks
}

// uncontained filters a migration failure for the autonomous poll loop.
// A failure the fault plane already contained — the failing shards are
// quarantined or offline (or the move was refused because one is) and
// the routing table is resolved at a consistent state — becomes nil, "no
// move this tick": degraded mode is the heal/evacuation machinery's job,
// not its caller's. So does an I/O fault that failed a move before it
// started (the planning scan). Anything else keeps propagating.
func uncontained(err error) error {
	if err == nil || errors.Is(err, ErrShardQuarantined) || IsIOFault(err) {
		return nil
	}
	return err
}

// AutoRebalance inspects the per-shard load deltas since its last call
// and, when one shard absorbs disproportionate traffic, splits it at its
// approximate median key toward the coldest shard. Returns whether a
// migration ran and the shard pair.
func (f *Forest) AutoRebalance(at vtime.Ticks, pol RebalancePolicy) (moved bool, from, to int, done vtime.Ticks, err error) {
	if pol.MinOps <= 0 {
		pol.MinOps = 1000
	}
	if pol.HotFactor <= 1 {
		pol.HotFactor = 2.0
	}
	// Self-healing first: probe quarantined shards (a heal needs no
	// evacuation, and a healed shard is a rebalance candidate again).
	at = f.healTick(at)
	// A move left in flight by an earlier budget-bounded poll is resumed
	// before any new one is considered. Next, a shard past its evacuation
	// deadline outranks hotspot splitting: its range is unavailable for
	// writes until it moves.
	f.autoMu.Lock()
	m := f.autoMig
	f.autoMu.Unlock()
	done = at
	if m == nil {
		if src, dst, due := f.dueEvacuation(at); due {
			if m, done, err = f.evacuate(at, src, dst); err != nil {
				return false, -1, -1, done, uncontained(err)
			}
		}
	}
	if m == nil {
		hot, boundary, ok := f.hotShard(pol)
		if !ok {
			return false, -1, -1, at, nil
		}
		dst, cerr := f.coldestShard(hot)
		if cerr != nil {
			// Every other shard is quarantined: there is nowhere to split to
			// until one heals — non-fatal for the poll loop.
			return false, hot, -1, at, nil
		}
		if m, done, err = f.StartMigration(at, boundary, MaxMigrationKey, hot, dst); err != nil {
			return false, hot, dst, done, uncontained(err)
		}
	}
	moved, done, err = f.drainBudgeted(m, done, pol.DrainBudget)
	f.autoMu.Lock()
	f.autoMig = nil
	if !moved && err == nil {
		f.autoMig = m // out of budget: a later poll resumes it
	}
	f.autoMu.Unlock()
	_, _, from, to = m.Range()
	return moved, from, to, done, uncontained(err)
}

// hotShard returns the shard that absorbed a disproportionate share of
// the operations routed since the previous poll, and its approximate
// median key as the split boundary.
func (f *Forest) hotShard(pol RebalancePolicy) (int, kv.Key, bool) {
	n := len(f.shards)
	deltas := make([]int64, n)
	var total int64
	f.autoMu.Lock()
	if len(f.lastOps) != n {
		f.lastOps = make([]int64, n)
	}
	for i, s := range f.shards {
		s.mu.Lock()
		ops := s.ops
		s.mu.Unlock()
		deltas[i] = ops - f.lastOps[i]
		f.lastOps[i] = ops
		total += deltas[i]
	}
	f.autoMu.Unlock()
	hot := 0
	for i := 1; i < n; i++ {
		if deltas[i] > deltas[hot] {
			hot = i
		}
	}
	mean := float64(total) / float64(n)
	if deltas[hot] < pol.MinOps || float64(deltas[hot]) <= pol.HotFactor*mean {
		return -1, 0, false
	}
	// A quarantined hot shard is left for Heal: StartMigration refuses it.
	s := f.shards[hot]
	s.mu.Lock()
	boundary, ok := s.tree.ApproxMedianKey()
	s.mu.Unlock()
	return hot, boundary, ok
}

// drainBudgeted drains m fully when budget is zero, else for at most
// budget ticks of virtual time.
func (f *Forest) drainBudgeted(m *Migration, at, budget vtime.Ticks) (bool, vtime.Ticks, error) {
	if budget <= 0 {
		done, err := m.Drain(at)
		return err == nil, done, err
	}
	return m.DrainUntil(at, at+budget)
}

// migrationEvent accumulates one migration's durable records during the
// recovery scan.
type migrationEvent struct {
	// migSpec carries the id, and from the Start record the range, the
	// shard pair and whether the source is writable (Op OpEvacuate marks
	// an evacuation).
	migSpec
	started  bool
	frontier kv.Key
	end      wal.OpType // the End record's op; 0 while open
	// endLo/endHi are the End record's range: a live abort commits only
	// the prefix streamed before the fault, so the committed rule must
	// come from the End record, not the Start record.
	endLo, endHi kv.Key
}

// recoverRouting rebuilds the routing table from the durable log and
// resolves any half-done migration: committed moves re-apply their rule,
// a move with at least one durable chunk resumes from the frontier, and
// a move that never committed a chunk rolls back. Runs after the
// per-shard replay, which has already rebuilt both trees' contents from
// their redo records.
func (f *Forest) recoverRouting(at vtime.Ticks, rep *ForestRecoveryReport) (vtime.Ticks, error) {
	// Scan every shard's log once; dedupe records that land in both the
	// source and destination logs.
	snap := f.rpart.RoutingSnapshot()
	events := make(map[uint64]*migrationEvent)
	for _, l := range f.logs {
		recs, err := l.Records()
		if err != nil {
			return at, err
		}
		for _, r := range recs {
			switch r.Kind {
			case wal.KindRoutingSnapshot:
				m, err := decodeRoutingMeta(r.UndoInfo)
				if err != nil {
					return at, err
				}
				if m.MaxCommitted > snap.MaxCommitted {
					snap = m
				}
			case wal.KindMigrationStart, wal.KindKeyMoved, wal.KindMigrationEnd:
				ev := events[r.FlushID]
				if ev == nil {
					ev = &migrationEvent{migSpec: migSpec{id: r.FlushID}}
					events[r.FlushID] = ev
				}
				switch r.Kind {
				case wal.KindMigrationStart:
					ev.started = true
					ev.lo, ev.hi = r.KeyLo, r.KeyHi
					ev.src, ev.dst = int(r.Key), int(r.Value)
					ev.srcWritable = r.Op != wal.OpEvacuate
					if ev.frontier < r.KeyLo {
						ev.frontier = r.KeyLo
					}
				case wal.KindKeyMoved:
					if r.KeyHi > ev.frontier {
						ev.frontier = r.KeyHi
					}
				case wal.KindMigrationEnd:
					ev.end = r.Op
					ev.endLo, ev.endHi = r.KeyLo, r.KeyHi
				}
			}
		}
	}
	if err := validateRules(snap.Rules, len(f.shards)); err != nil {
		return at, err
	}
	rules := snap.Rules
	maxCommitted := snap.MaxCommitted
	evacMask := snap.Evacuated
	// The in-memory routing may already be ahead of the durable snapshot
	// (in-place recovery): committed rules are only ever published after
	// their MigrationEnd was forced, so preferring the higher
	// maxCommitted source is safe either way.
	if cur := f.rpart.cur.Load(); cur.maxCommitted > maxCommitted {
		rules = append([]MoveRule(nil), cur.rules...)
		maxCommitted = cur.maxCommitted
		evacMask = cur.evac
	}
	ids := make([]uint64, 0, len(events))
	for id := range events {
		if id > maxCommitted {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var err error
	for _, id := range ids {
		ev := events[id]
		if !ev.started {
			continue
		}
		switch ev.end {
		case wal.OpMigrationCommit, wal.OpEvacuate:
			rules = append(rules, MoveRule{Lo: ev.endLo, Hi: ev.endHi, From: ev.src, To: ev.dst, ID: ev.id})
			if ev.end == wal.OpEvacuate {
				evacMask |= 1 << uint(ev.src)
			}
		case wal.OpMigrationAbort:
		default:
			var evacuated bool
			rules, evacuated, at, err = f.resolveMigration(at, ev, rules, rep)
			if err != nil {
				return at, err
			}
			if evacuated {
				evacMask |= 1 << uint(ev.src)
			}
		}
		maxCommitted = ev.id
	}
	rt := f.rpart.cur.Load()
	f.rpart.publish(routing{
		base: rt.base, slots: rt.slots,
		rules: rules, maxCommitted: maxCommitted, evac: evacMask,
	})
	if seq := f.migIDSeq.Load(); seq < maxCommitted {
		f.migIDSeq.Store(maxCommitted)
	}
	f.rebalanceActive.Store(false)
	return at, nil
}

// resolveMigration finishes a migration the crash interrupted. The
// durable frontier partitions the range: [lo, frontier) is authoritative
// on dst, [frontier, hi) on src (uncommitted destination remnants are
// purged). Stale source copies below the frontier are purged too — when
// the source is writable; an evacuation's source is never written, and
// the routing evac bit hides its copies once the move commits. With no
// durable chunk the move rolls back, and a rolled-back evacuation leaves
// its source live; otherwise the remainder is re-streamed as one
// recovery chunk with the usual discipline and the flip committed, with
// every record on the record logs. The returned flag reports a committed
// evacuation, whose source recoverRouting marks evacuated. All I/O is
// timed — it is part of the recovery cost.
func (f *Forest) resolveMigration(at vtime.Ticks, ev *migrationEvent, rules []MoveRule, rep *ForestRecoveryReport) ([]MoveRule, bool, vtime.Ticks, error) {
	n := len(f.shards)
	if ev.src < 0 || ev.src >= n || ev.dst < 0 || ev.dst >= n || ev.src == ev.dst {
		return rules, false, at, fmt.Errorf("core: migration %d recovers invalid shard pair %d->%d", ev.id, ev.src, ev.dst)
	}
	unlock := f.lockPair(ev.src, ev.dst)
	defer unlock()
	src, dst := f.shards[ev.src], f.shards[ev.dst]
	// routeSoFar resolves routing as of the rules committed before this
	// migration — the authority the purge filters check against.
	routeSoFar := func(k kv.Key) int {
		rt := routing{base: f.rpart.cur.Load().base, rules: rules}
		return rt.route(k)
	}

	var recs []kv.Record
	done := at
	var err error
	if ev.srcWritable {
		// Purge stale source copies below the frontier: their deletes were
		// in the crashed chunk's (or purge's) volatile tail.
		recs, done, err = src.tree.RangeSearch(at, ev.lo, ev.frontier)
		if err != nil {
			return rules, false, done, err
		}
		for _, r := range recs {
			done, err = src.tree.Delete(done, r.Key)
			if err != nil {
				return rules, false, done, err
			}
			rep.MigrationKeysPurged++
		}
	}
	// Purge uncommitted destination remnants at or above the frontier —
	// but only keys the pre-migration routing assigns to the source; under
	// hash routing the destination legitimately holds its own keys inside
	// the migrating range.
	recs, done, err = dst.tree.RangeSearch(done, ev.frontier, ev.hi)
	if err != nil {
		return rules, false, done, err
	}
	for _, r := range recs {
		if routeSoFar(r.Key) != ev.src {
			continue
		}
		done, err = dst.tree.Delete(done, r.Key)
		if err != nil {
			return rules, false, done, err
		}
		rep.MigrationKeysPurged++
	}
	if ev.frontier <= ev.lo {
		// No chunk ever committed: roll the move back entirely. If an
		// evacuation's source device is still dead, the next write
		// re-quarantines it and the evacuation deadline fires again.
		done, err = f.endMigration(done, ev.migSpec, ev.lo, ev.hi, wal.OpMigrationAbort)
		if err != nil {
			return rules, false, done, err
		}
		rep.RolledBackMigrations++
		return rules, false, done, nil
	}
	// At least one chunk committed: resume. Re-stream [frontier, hi) as
	// one recovery chunk with the usual discipline, then commit the flip.
	recs, done, err = src.tree.RangeSearch(done, ev.frontier, ev.hi)
	if err != nil {
		return rules, false, done, err
	}
	for _, r := range recs {
		done, err = dst.tree.Insert(done, r)
		if err != nil {
			return rules, false, done, err
		}
		rep.MigrationKeysMoved++
	}
	if dst.tree.log != nil {
		done, err = dst.tree.log.Force(done)
		if err != nil {
			return rules, false, done, err
		}
	}
	if t := f.shards[ev.recordShards()[0]].tree; t.log != nil && len(recs) > 0 {
		t.log.Append(wal.Record{
			Kind: wal.KindKeyMoved, Relation: t.cfg.Relation,
			FlushID: ev.id, KeyLo: ev.frontier, KeyHi: ev.hi,
			Key: uint64(ev.src), Value: uint64(ev.dst),
		})
	}
	if ev.srcWritable {
		for _, r := range recs {
			done, err = src.tree.Delete(done, r.Key)
			if err != nil {
				return rules, false, done, err
			}
		}
	}
	done, err = f.endMigration(done, ev.migSpec, ev.lo, ev.hi, ev.commitOp())
	if err != nil {
		return rules, false, done, err
	}
	rules = append(rules, MoveRule{Lo: ev.lo, Hi: ev.hi, From: ev.src, To: ev.dst, ID: ev.id})
	rep.ResumedMigrations++
	return rules, !ev.srcWritable, done, nil
}
