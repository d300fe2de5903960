// Fault handling of the I/O plane: error classification, bounded retry
// with vtime-charged exponential backoff, and the shard-quarantine
// sentinel. The paper's model assumes the device either completes a
// psync gang or the machine crashes; this layer is what lets the forest
// operate through the third case — a device that returns errors and
// keeps running.
package core

import (
	"errors"

	"repro/internal/vtime"
)

// ErrShardQuarantined rejects writes addressed to a shard operating in
// read-only degraded mode after retry exhaustion or a permanent device
// failure. Reads keep being served from the shard's committed state;
// Forest.Heal re-admits the shard after a successful recovery replay.
var ErrShardQuarantined = errors.New("core: shard quarantined (read-only degraded mode)")

// IsTransientIO classifies an I/O error: transient failures (injected
// transient EIO, stuck-op timeouts, all-transient partial gangs) may
// succeed on retry; everything else — permanent device failures,
// validation errors, unknown errors — is treated as permanent, the
// conservative default.
func IsTransientIO(err error) bool {
	var t interface{ TransientIO() bool }
	return errors.As(err, &t) && t.TransientIO()
}

// IsIOFault reports whether err originated in the I/O plane — it carries
// the TransientIO marker, whatever its classification. Containment does
// not depend on it: a failure is charged to the shards attribute names,
// whatever its class. The AutoRebalance poll uses it to treat a device
// fault that failed a move before it started as "no move this tick".
func IsIOFault(err error) bool {
	var t interface{ TransientIO() bool }
	return errors.As(err, &t)
}

// IsWatchdogTimeout reports whether err is (or wraps) a stuck-I/O
// watchdog firing — an op the I/O plane abandoned at its vtime deadline
// instead of hanging. Watchdog timeouts are transient (the device may
// answer a resubmission) and additionally counted on their own stat, so
// operators can tell a hanging device from an erroring one.
func IsWatchdogTimeout(err error) bool {
	var t interface{ WatchdogTimeout() bool }
	return errors.As(err, &t) && t.WatchdogTimeout()
}

// RetryPolicy bounds the transient-fault retry loop. The zero value means
// "defaults" (4 retries, 50µs base backoff doubling up to 2ms), so every
// existing Config gets resilience without opting in; set Disabled to get
// the pre-fault-plane fail-fast behaviour.
type RetryPolicy struct {
	// Disabled turns retry off entirely.
	Disabled bool
	// MaxRetries is the number of re-attempts after the first failure
	// (<= 0 means the default).
	MaxRetries int
	// BaseBackoff is the wait charged before the first retry; it doubles
	// per attempt up to MaxBackoff (0 means the defaults).
	BaseBackoff vtime.Ticks
	MaxBackoff  vtime.Ticks
	// StuckTimeout is the stuck-I/O watchdog deadline: an engine I/O that
	// would hang (a stuck fault, a device-wide stall window) longer than
	// this is abandoned at the deadline with a transient timeout error and
	// fed into the same retry/quarantine state machine as any other
	// transient fault. Zero means the default (5ms); negative disarms the
	// watchdog, letting hangs run their course as latency. The deadline is
	// armed on the I/O plane via ssdio.Space.SetStuckTimeout by whoever
	// assembles the stack (the pio facade, the scenario engine, tests) —
	// StuckDeadline resolves the effective value.
	StuckTimeout vtime.Ticks
}

// Default retry bounds: four attempts spanning ~50µs..800µs of backoff,
// comfortably above the device's GC-stall latencies but far below a
// scenario phase. The default watchdog deadline sits below faultio's
// 10ms default stuck hang, so stuck ops trip the watchdog out of the
// box.
const (
	defaultMaxRetries   = 4
	defaultBaseBackoff  = 50 * vtime.Microsecond
	defaultMaxBackoff   = 2 * vtime.Millisecond
	defaultStuckTimeout = 5 * vtime.Millisecond
)

// StuckDeadline resolves the effective stuck-I/O watchdog deadline:
// the configured StuckTimeout, the package default when zero, or 0
// (disarmed) when negative.
func (p RetryPolicy) StuckDeadline() vtime.Ticks {
	switch {
	case p.StuckTimeout < 0:
		return 0
	case p.StuckTimeout == 0:
		return defaultStuckTimeout
	default:
		return p.StuckTimeout
	}
}

// norm resolves the zero-value defaults.
func (p RetryPolicy) norm() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = defaultMaxRetries
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = defaultBaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = defaultMaxBackoff
	}
	return p
}

// backoff returns base doubled n times, capped at max: the wait before
// retry attempt n (0-based), or before the probe after n failed ones.
func backoff(base, max vtime.Ticks, n int) vtime.Ticks {
	for ; n > 0 && base < max; n-- {
		base *= 2
	}
	return vtime.Min(base, max)
}

// retryStats counts retry activity; Tree and Forest each embed one.
type retryStats struct {
	// IORetries counts re-attempted submissions after a transient fault.
	IORetries int64
	// IORetryBackoff is the total vtime charged waiting between attempts.
	IORetryBackoff vtime.Ticks
	// IORetriesExhausted counts transient faults that survived every
	// retry (the events that escalate to quarantine).
	IORetriesExhausted int64
	// WatchdogTimeouts counts stuck-I/O watchdog firings: hanging ops
	// abandoned at their vtime deadline (a subset of the transient
	// failures above).
	WatchdogTimeouts int64
}

// countWatchdog classifies one failed attempt's error onto the watchdog
// counter.
func countWatchdog(ctr *retryStats, err error) {
	if err != nil && ctr != nil && IsWatchdogTimeout(err) {
		ctr.WatchdogTimeouts++
	}
}

// retryTimedIO runs a timed I/O operation, re-attempting transient
// failures with exponential backoff charged on the vtime clock (the
// retry loop blocks the submitter exactly as a real one would). The op
// is invoked with the virtual time at which its submission may start;
// failed submissions must not have applied contents (the ssdio fault
// plane guarantees this), so resubmission is safe. Permanent errors
// return immediately.
func retryTimedIO(pol RetryPolicy, ctr *retryStats, at vtime.Ticks, op func(vtime.Ticks) (vtime.Ticks, error)) (vtime.Ticks, error) {
	done, err := op(at)
	countWatchdog(ctr, err)
	if err == nil || pol.Disabled {
		return done, err
	}
	pol = pol.norm()
	for attempt := 0; err != nil && IsTransientIO(err) && attempt < pol.MaxRetries; attempt++ {
		wait := backoff(pol.BaseBackoff, pol.MaxBackoff, attempt)
		if ctr != nil {
			ctr.IORetries++
			ctr.IORetryBackoff += wait
		}
		done, err = op(done + wait)
		countWatchdog(ctr, err)
	}
	if err != nil && IsTransientIO(err) && ctr != nil {
		ctr.IORetriesExhausted++
	}
	return done, err
}
