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

// startDueEvacuation starts migrating the whole committed range of a
// shard past its evacuation deadline (see dueEvacuation) onto the
// coldest healthy shard. Returns nil when nothing is due, no destination
// exists, or a migration is already in flight.
func (f *Forest) startDueEvacuation(at vtime.Ticks) (*Migration, vtime.Ticks, error) {
	src, dst, ok := f.dueEvacuation(at)
	if !ok {
		return nil, at, nil
	}
	return f.evacuate(at, src, dst)
}

// evacuate starts the evacuation of src onto dst: a migration whose
// source cannot be written (see the protocol at the top of
// rebalance.go). The start re-checks the source under its lock, so a
// shard healed since dueEvacuation's scan is left alone and the claim on
// the migration slot is released.
func (f *Forest) evacuate(at vtime.Ticks, src, dst int) (*Migration, vtime.Ticks, error) {
	if !f.rebalanceActive.CompareAndSwap(false, true) {
		return nil, at, nil // a migration is in flight; next poll retries
	}
	m, done, err := f.startMigrationLocked(at, 0, MaxMigrationKey, src, dst, false)
	if m == nil {
		f.rebalanceActive.Store(false)
	}
	return m, done, err
}

// dueEvacuation scans for a shard past its evacuation deadline and picks
// its destination. A shard qualifies when it is quarantined with a
// coherent in-memory state (a dirty one has nothing trustworthy to
// stream), not yet evacuated, and its incident clock exceeded the policy
// deadline. Reports false when nothing is due or no healthy destination
// exists.
func (f *Forest) dueEvacuation(at vtime.Ticks) (src, dst int, ok bool) {
	if f.evac.Disabled {
		return -1, -1, false
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
		dst, err := f.coldestShard(si)
		if err != nil {
			// No healthy destination: stay quarantined rather than fail the
			// poll — capacity may come back (a heal) before the next tick.
			return -1, -1, false
		}
		return si, dst, true
	}
	return -1, -1, false
}
