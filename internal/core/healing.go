// Self-healing control plane of the forest: auto-heal probing of
// quarantined shards and evacuation of shards whose device never comes
// back. The fault plane (resilience.go) CONTAINS a failure — retry,
// then quarantine; this file is what un-does the containment without an
// operator: a quarantined shard periodically probes its device and
// re-admits itself through the Heal path when the device answers, and a
// shard that stays dead past a deadline has its key range migrated onto
// healthy shards, so a permanently failed device degrades capacity
// instead of availability. Everything runs off the AutoRebalance poll
// and is scheduled purely in virtual time, so runs stay
// byte-deterministic.
package core

import (
	"fmt"

	"repro/internal/kv"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// HealPolicy drives the auto-heal prober. After quarantine, the shard
// issues a cheap probe I/O every ProbeInterval; each failed probe (or
// failed Heal replay) doubles the gap up to MaxProbeInterval. The zero
// value means "defaults", so every forest gets self-healing without
// opting in; set Disabled for the operator-driven Heal-only behaviour.
type HealPolicy struct {
	// Disabled turns the prober off; Forest.Heal remains available.
	Disabled bool
	// ProbeInterval is the delay from quarantine to the first probe,
	// doubling per failed probe (0 means the default, 500µs).
	ProbeInterval vtime.Ticks
	// MaxProbeInterval caps the exponential probe gap (0 means the
	// default, 8ms).
	MaxProbeInterval vtime.Ticks
}

// Default probe cadence: the first probe comes quickly (transient fault
// windows are short), the cap keeps a dead device from being hammered
// while staying well below the evacuation deadline.
const (
	defaultProbeInterval    = 500 * vtime.Microsecond
	defaultMaxProbeInterval = 8 * vtime.Millisecond
)

// norm resolves the zero-value defaults.
func (p HealPolicy) norm() HealPolicy {
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = defaultProbeInterval
	}
	if p.MaxProbeInterval <= 0 {
		p.MaxProbeInterval = defaultMaxProbeInterval
	}
	if p.MaxProbeInterval < p.ProbeInterval {
		p.MaxProbeInterval = p.ProbeInterval
	}
	return p
}

// EvacuationPolicy bounds how long a quarantined shard may stay
// un-healed before AutoRebalance migrates its range onto healthy shards.
type EvacuationPolicy struct {
	// Disabled turns auto-evacuation off: a dead shard stays quarantined
	// until Heal or Recover.
	Disabled bool
	// After is the vtime a shard may stay quarantined — measured from the
	// incident start, which survives intermediate heals that never reach
	// a durable flush — before its range is evacuated (0 means the
	// default, 25ms).
	After vtime.Ticks
}

// defaultEvacuateAfter leaves the prober several capped-gap attempts
// before the range is given up on.
const defaultEvacuateAfter = 25 * vtime.Millisecond

// norm resolves the zero-value default.
func (p EvacuationPolicy) norm() EvacuationPolicy {
	if p.After <= 0 {
		p.After = defaultEvacuateAfter
	}
	return p
}

// probe issues one cheap read of the shard's root page — the smallest
// I/O that proves the device answers at all. Caller holds s.mu.
func (s *forestShard) probe(at vtime.Ticks) (vtime.Ticks, error) {
	t := s.tree
	return t.pf.ReadRun(at, t.root, 1, make([]byte, t.cfg.PageSize))
}

// healTick is the auto-heal prober: every quarantined, non-evacuated
// shard whose probe deadline passed issues a probe read and, when the
// device answers, attempts the full Heal replay. A failed probe or
// replay doubles the shard's probe gap up to the policy cap. Shards are
// visited in ascending index order so concurrent schedules cannot
// reorder probe outcomes. Returns the completion time of the probes
// performed.
func (f *Forest) healTick(at vtime.Ticks) vtime.Ticks {
	if f.heal.Disabled {
		return at
	}
	done := at
	for si, s := range f.shards {
		if f.rpart.IsEvacuated(si) {
			continue
		}
		s.mu.Lock()
		if !s.quarantined || s.nextProbeAt == 0 || at < s.nextProbeAt {
			s.mu.Unlock()
			continue
		}
		f.healProbes.Add(1)
		pd, err := s.probe(at)
		if err == nil {
			// The device answered the probe; the Heal replay (force the log
			// tail, roll back to durable, replay) is the real re-admission
			// test — a read-only device passes probes but fails here.
			pd, err = f.healLocked(pd, si, s)
			if err == nil {
				f.autoHeals.Add(1)
			}
		}
		if err != nil {
			s.probeGap *= 2
			if s.probeGap > f.heal.MaxProbeInterval {
				s.probeGap = f.heal.MaxProbeInterval
			}
			s.nextProbeAt = pd + s.probeGap
		}
		s.mu.Unlock()
		done = vtime.Max(done, pd)
	}
	return done
}

// healLocked is the body of Forest.Heal: caller holds s.mu and has
// checked that the shard is quarantined and not evacuated.
func (f *Forest) healLocked(at vtime.Ticks, shard int, s *forestShard) (vtime.Ticks, error) {
	// Force the shard's log tail first: an aborted migration leaves its
	// compensation records (and any stranded appends) in the unforced
	// tail, and the rollback replay below reads only durable records. If
	// the force still fails the device hasn't recovered — Heal fails, but
	// the shard is exactly as quarantined as before: its in-memory state
	// was not touched, so reads stay on.
	done := at
	if s.tree.log != nil {
		// The heal-probe record makes the force a genuine write even when
		// the rolled-back tail is empty: re-admission must prove the log
		// device accepts writes, not just reads — a read-only device
		// passes the probe read and would otherwise "heal" through an
		// empty tail, flap on the next flush, and never reach the
		// evacuation deadline's rescue. Replay scans ignore the record.
		s.tree.log.Append(wal.Record{Kind: wal.KindHealProbe, Relation: s.tree.cfg.Relation})
		var err error
		done, err = s.tree.retryIO(done, s.tree.log.Force)
		if err != nil {
			return done, fmt.Errorf("core: Heal shard %d: force tail: %w", shard, err)
		}
	}
	done, err := s.tree.rollbackToDurable(done)
	if err != nil {
		// A half-applied replay leaves memory incoherent: reads stay off
		// too until a replay goes through.
		s.qDirty = true
		return done, fmt.Errorf("core: Heal shard %d: %w", shard, err)
	}
	//lint:ignore guardedby caller holds s.mu (see contract above)
	s.quarantined, s.qDirty, s.qErr = false, false, nil
	s.nextProbeAt, s.probeGap = 0, 0
	// quarantinedAt stays: only a durable flush commit proves the device
	// is really back. A flapping device that heals and re-fails keeps its
	// original incident clock, so the evacuation deadline stays bounded.
	return done, nil
}

// startDueEvacuation scans for a shard past its evacuation deadline and
// starts the evacuation migration. A shard qualifies when it is
// quarantined with a coherent in-memory state (a dirty one has nothing
// trustworthy to stream), not yet evacuated, and its incident clock
// exceeded the policy deadline. Returns nil when nothing is due, no
// destination exists, or a migration is already in flight.
func (f *Forest) startDueEvacuation(at vtime.Ticks) (*Migration, vtime.Ticks, error) {
	if f.evac.Disabled {
		return nil, at, nil
	}
	for si, s := range f.shards {
		if si >= 64 || f.rpart.IsEvacuated(si) {
			// The evacuated set is a 64-bit mask in the durable routing
			// snapshot; forests beyond that (none realistic) heal only.
			continue
		}
		s.mu.Lock()
		due := s.quarantined && !s.qDirty && s.quarantinedAt > 0 &&
			at >= s.quarantinedAt+f.evac.After
		s.mu.Unlock()
		if !due {
			continue
		}
		if !f.rebalanceActive.CompareAndSwap(false, true) {
			return nil, at, nil // a migration is in flight; next poll retries
		}
		m, done, err := f.startEvacuation(at, si)
		if err != nil {
			f.rebalanceActive.Store(false)
			return nil, done, err
		}
		return m, done, nil
	}
	return nil, at, nil
}

// startEvacuation begins migrating the quarantined shard src's whole
// range onto the coldest healthy shard by replaying committed state
// through the migration protocol. It differs from StartMigration in
// exactly the ways a dead device forces: the source is quarantined by
// construction, and every migration record rides the DESTINATION's log
// (the source's device may never accept another write; recovery scans
// all logs and keys migration events by FlushID, so dst-only records
// recover fine). The Start and End records carry Op 'e' so recovery
// resolves the move with evacuation rules.
func (f *Forest) startEvacuation(at vtime.Ticks, src int) (*Migration, vtime.Ticks, error) {
	dst, err := f.coldestShard(src)
	if err != nil {
		// No healthy destination: stay quarantined rather than fail the
		// poll — capacity may come back (a heal) before the next tick.
		return nil, at, nil
	}
	f.migMu.Lock()
	defer f.migMu.Unlock()
	s := f.shards[src]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.quarantined || s.qDirty {
		return nil, at, nil // healed (or degraded further) since the scan
	}

	// Plan the chunk schedule from the shard's committed state — the
	// rollback at quarantine time left the tree (and its OPQ) exactly
	// there, so a timed scan is both safe and complete.
	lo, hi := kv.Key(0), MaxMigrationKey
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

	m := &Migration{f: f, id: f.nextMigrationID(), lo: lo, hi: hi, src: src, dst: dst, bounds: bounds, evac: true}
	if l := f.shards[dst].tree.log; l != nil {
		l.Append(wal.Record{
			Kind: wal.KindMigrationStart, Relation: f.shards[dst].tree.cfg.Relation,
			FlushID: m.id, KeyLo: lo, KeyHi: hi,
			Key: uint64(src), Value: uint64(dst), Op: wal.OpType('e'),
		})
		done, err = f.forceLogs(done, []*wal.Log{l})
		if err != nil {
			s.vlock.Release(done)
			return nil, done, err
		}
	}
	rt := f.rpart.cur.Load()
	next := *rt
	next.mig = &migRoute{id: m.id, lo: lo, hi: hi, src: src, dst: dst, frontier: lo}
	f.rpart.publish(next)
	s.vlock.Release(done)
	return m, done, nil
}

// failEvacuation aborts an evacuation after an I/O failure mid-chunk.
// Caller holds migMu and both shard locks. The source never deleted
// anything, so the cleanup is one-sided: quarantine the failing
// destination, purge every copy the evacuation streamed onto it —
// durable committed chunks included, since without the evacuated mark
// the source would still be swept and the copies would double-count —
// and close the migration with an abort record. The source stays
// quarantined and non-evacuated; a later poll retries from scratch.
func (f *Forest) failEvacuation(at vtime.Ticks, m *Migration, recs []kv.Record, cause error) (vtime.Ticks, error) {
	dst := f.shards[m.dst]
	rt := f.rpart.cur.Load()
	frontier := m.lo
	if rt.mig != nil && rt.mig.id == m.id {
		frontier = rt.mig.frontier
	}
	done := f.quarantineShard(at, dst, cause)
	if f.damaged.Load() != nil {
		return done, cause
	}
	// routeSoFar is the committed-rules authority: destination keys the
	// pre-evacuation routing assigns to the source are evacuation copies;
	// everything else is the destination's own data.
	routeSoFar := func(k kv.Key) int {
		r := routing{base: rt.base, rules: rt.rules}
		return r.route(k)
	}
	if dst.tree.log != nil {
		purge, pd, err := dst.tree.RangeSearch(done, m.lo, frontier)
		done = pd
		if err == nil {
			for _, r := range purge {
				if routeSoFar(r.Key) != m.src {
					continue
				}
				done, err = dst.tree.Delete(done, r.Key)
				if err != nil {
					break
				}
			}
		}
		if err == nil {
			// The in-flight chunk's copies (not yet behind the frontier).
			for _, r := range recs {
				done, err = dst.tree.Delete(done, r.Key)
				if err != nil {
					break
				}
			}
		}
		if err != nil {
			f.setDamaged(fmt.Errorf("core: evacuation %d abort purge failed: %w (original fault: %v)", m.id, err, cause))
			return done, cause
		}
		dst.tree.log.Append(wal.Record{
			Kind: wal.KindMigrationEnd, Relation: dst.tree.cfg.Relation,
			FlushID: m.id, KeyLo: m.lo, KeyHi: m.hi,
			Key: uint64(m.src), Value: uint64(m.dst), Op: wal.OpType('a'),
		})
		if d, err := f.forceLogs(done, []*wal.Log{dst.tree.log}); err == nil {
			done = d
		}
		// A failed force is fine: the End stays in the tail and crash
		// recovery resolves the open evacuation from its durable frontier.
	}
	next := *rt
	next.mig = nil
	next.maxCommitted = m.id
	f.rpart.publish(next)
	f.migrationAborts.Add(1)
	f.rebalanceActive.Store(false)
	return done, fmt.Errorf("core: evacuation %d of shard %d aborted, destination %d quarantined: %w",
		m.id, m.src, m.dst, cause)
}

// commitEvacuation makes the evacuation's routing flip durable (End 'e'
// on the destination's log) and publishes the rerouting rule plus the
// source's evacuated mark: from here on sweeps skip the source's stale
// physical copies and the quarantine stops blocking log truncation.
// Caller holds migMu and both shard locks via commitMigration.
func (f *Forest) commitEvacuation(at vtime.Ticks, m *Migration) (vtime.Ticks, error) {
	done := at
	dst := f.shards[m.dst]
	if dst.tree.log != nil {
		dst.tree.log.Append(wal.Record{
			Kind: wal.KindMigrationEnd, Relation: dst.tree.cfg.Relation,
			FlushID: m.id, KeyLo: m.lo, KeyHi: m.hi,
			Key: uint64(m.src), Value: uint64(m.dst), Op: wal.OpType('e'),
		})
		var err error
		done, err = f.forceLogs(done, []*wal.Log{dst.tree.log})
		if err != nil {
			if !IsIOFault(err) {
				f.setDamaged(err)
				return done, err
			}
			// Every chunk is durably committed; only the End force failed.
			// The rule may publish regardless (a crash resolves the open
			// evacuation from its durable frontier = hi, converging to the
			// same state), but the destination's log device is failing —
			// quarantine it.
			done = f.quarantineShard(done, dst, err)
		}
	}
	rt := f.rpart.cur.Load()
	next := *rt
	next.rules = append(append([]MoveRule(nil), rt.rules...),
		MoveRule{Lo: m.lo, Hi: m.hi, From: m.src, To: m.dst, ID: m.id})
	next.maxCommitted = m.id
	next.mig = nil
	next.evac |= 1 << uint(m.src)
	f.rpart.publish(next)
	f.migrations.Add(1)
	f.evacuations.Add(1)
	// Keep the source quarantined (flushes, checkpoints and rebalancing
	// must keep skipping it) but record why, and stop the heal prober —
	// an evacuated shard has nothing left to re-admit.
	s := f.shards[m.src]
	s.qErr = fmt.Errorf("core: shard %d evacuated to shard %d (migration %d)", m.src, m.dst, m.id)
	s.nextProbeAt, s.probeGap = 0, 0
	f.rebalanceActive.Store(false)
	return done, nil
}
