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
	"errors"
	"fmt"

	"repro/internal/vtime"
	"repro/internal/wal"
)

// shardHealth is a shard's state in the self-healing automaton.
type shardHealth uint8

const (
	healthy     shardHealth = iota
	probation               // healed and serving writes; the incident clock still runs
	quarantined             // writes rejected, the committed state served
	offline                 // the rollback replay failed: reads rejected too
	retired                 // evacuated: the range is served by healthy shards
)

// writable reports whether the shard takes writes and joins flushes,
// checkpoints and migrations.
func (h shardHealth) writable() bool { return h <= probation }

// probing reports whether the auto-heal prober works on the shard.
func (h shardHealth) probing() bool { return h == quarantined || h == offline }

// healthEvent is one input of the automaton.
type healthEvent uint8

const (
	evFail        healthEvent = iota // an I/O fault, contained by a rollback to durable (or a failed probe)
	evReplayFail                     // a rollback replay that itself failed
	evHeal                           // a heal replay re-admitted the shard
	evFlushCommit                    // a flush of the shard committed durably
	evRecover                        // a full Recover replayed the shard
	evRetire                         // an evacuation committed the shard's range elsewhere
)

// healthNext is the automaton's state table, indexed [event][from] with
// the states in declaration order: healthy, probation, quarantined,
// offline, retired. A retired shard absorbs every event.
var healthNext = [...][retired + 1]shardHealth{
	evFail:        {quarantined, quarantined, quarantined, offline, retired},
	evReplayFail:  {offline, offline, offline, offline, retired},
	evHeal:        {healthy, probation, probation, probation, retired},
	evFlushCommit: {healthy, healthy, quarantined, offline, retired},
	evRecover:     {healthy, healthy, healthy, healthy, retired},
	evRetire:      {retired, retired, retired, retired, retired},
}

var errEvacuated = errors.New("core: shard evacuated; its range is served by healthy shards")

// transition feeds ev into the shard's health automaton: the only writer
// of health and of the data its states carry. A fault that takes a
// writable shard out of service struck at `at` with the given cause; from
// healthy it opens the incident, from probation the incident keeps its
// start. ready is when the shard is done with its device (rollback or
// probe finished): the next probe counts from it, and a fail while the
// prober works is a failed probe, which backs it off. Caller holds s.mu.
func (s *forestShard) transition(ev healthEvent, at, ready vtime.Ticks, cause error) {
	from := s.health
	s.health = healthNext[ev][from]
	switch {
	case s.health == retired:
		s.cause = errEvacuated
	case s.health.writable():
		s.cause = nil
	case from.writable():
		if from == healthy {
			s.since = at
		}
		s.cause = cause
		s.probeFrom, s.probeFails = ready, 0
	case ev == evFail:
		s.probeFrom, s.probeFails = ready, s.probeFails+1
	}
}

// HealPolicy drives the auto-heal prober. After quarantine, the shard
// issues a cheap probe I/O every ProbeInterval; each failed probe (or
// failed Heal replay) doubles the gap up to MaxProbeInterval. The zero
// value means "defaults", so every forest gets self-healing without
// opting in; Forest.Heal re-admits a shard on demand as well.
type HealPolicy struct {
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

// healTick is the auto-heal prober: every quarantined or offline shard
// whose probe deadline passed issues a probe read and, when the device
// answers, attempts the full Heal replay. A failed probe or replay backs
// the prober off. Shards are visited in ascending index order so
// concurrent schedules cannot reorder probe outcomes. Returns the
// completion time of the probes performed.
func (f *Forest) healTick(at vtime.Ticks) vtime.Ticks {
	done := at
	for si, s := range f.shards {
		s.mu.Lock()
		gap := backoff(f.heal.ProbeInterval, f.heal.MaxProbeInterval, s.probeFails)
		if !s.health.probing() || at < s.probeFrom+gap {
			s.mu.Unlock()
			continue
		}
		f.healProbes.Add(1)
		pd, err := s.probe(at)
		if err == nil {
			// The device answered the probe; the Heal replay (force the log
			// tail, roll back to durable, replay) is the real re-admission
			// test — a read-only device passes probes but fails here.
			pd, err = s.heal(pd, si)
			if err == nil {
				f.autoHeals.Add(1)
			}
		}
		if err != nil {
			s.transition(evFail, pd, pd, err)
		}
		s.mu.Unlock()
		done = vtime.Max(done, pd)
	}
	return done
}

// heal is the body of Forest.Heal and the prober's re-admission test.
// Caller holds s.mu; the shard is quarantined or offline.
func (s *forestShard) heal(at vtime.Ticks, shard int) (vtime.Ticks, error) {
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
		s.transition(evReplayFail, done, done, err)
		return done, fmt.Errorf("core: Heal shard %d: %w", shard, err)
	}
	// Probation, not healthy: only a durable flush commit proves the
	// device is back, so a device that heals and re-fails keeps its
	// incident clock and the evacuation deadline stays bounded.
	s.transition(evHeal, done, done, nil)
	return done, nil
}

// evacuate starts migrating the whole committed range of src onto dst: a
// migration whose source cannot be written (see the protocol at the top
// of rebalance.go). Returns nil when a migration is already in flight.
// The start re-checks the source under its lock, so a shard healed since
// dueEvacuation's scan is left alone and the claim on the migration slot
// is released.
func (f *Forest) evacuate(at vtime.Ticks, src, dst int) (*Migration, vtime.Ticks, error) {
	if !f.rebalanceActive.CompareAndSwap(false, true) {
		return nil, at, nil // a migration is in flight; next poll retries
	}
	m, done, err := f.startMigrationLocked(at, 0, MaxMigrationKey, src, dst, false, moveCap{})
	if m == nil {
		f.rebalanceActive.Store(false)
	}
	return m, done, err
}

// dueEvacuation scans for a shard past its evacuation deadline and picks
// its destination. A shard qualifies when it is quarantined — an offline
// one has nothing trustworthy to stream — and its incident clock
// exceeded the policy deadline. Reports false when nothing is due or no
// healthy destination exists.
func (f *Forest) dueEvacuation(at vtime.Ticks) (src, dst int, ok bool) {
	for si, s := range f.shards {
		if si >= 64 {
			// The evacuated set is a 64-bit mask in the durable routing
			// snapshot; forests beyond that (none realistic) heal only.
			break
		}
		s.mu.Lock()
		due := s.health == quarantined && at >= s.since+f.evac.After
		s.mu.Unlock()
		if !due {
			continue
		}
		dst, err := f.coldestShard(si, nil)
		if err != nil {
			// No healthy destination: stay quarantined rather than fail the
			// poll — capacity may come back (a heal) before the next tick.
			return -1, -1, false
		}
		return si, dst, true
	}
	return -1, -1, false
}
