package faultio

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// Parse compiles a textual fault program. The format is line-oriented
// (newlines or ';' separate clauses, '#' starts a comment):
//
//	seed=42
//	transient file=pio-1-wal* call=gang p=0.2 from=10ms until=50ms
//	latency delay=200us p=0.1
//	permanent file=pio-1-shard2 from=30ms
//	stuck call=psync delay=5ms p=0.01
//	stall from=5ms delay=2ms every=20ms
//	readonly file=pio-1-wal2 from=30ms
//
// The first word of a clause is the fault kind (or the seed setting);
// the remaining key=value fields fill the Rule. Durations accept ns, us,
// µs, ms, and s suffixes; a bare number is nanoseconds. An omitted p
// means the rule always fires inside its window. every= is valid only on
// stall rules (a periodic device-wide pulse of delay= length) and
// requires an explicit delay=.
func Parse(text string) (Program, error) {
	var p Program
	for _, line := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' }) {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		head := fields[0]
		if v, ok := strings.CutPrefix(head, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Program{}, fmt.Errorf("faultio: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			if len(fields) > 1 {
				return Program{}, fmt.Errorf("faultio: trailing fields after %s", head)
			}
			continue
		}
		var r Rule
		switch head {
		case "transient":
			r.Kind = Transient
		case "permanent":
			r.Kind = Permanent
		case "latency":
			r.Kind = Latency
		case "stuck":
			r.Kind = Stuck
		case "stall":
			r.Kind = Stall
		case "readonly":
			r.Kind = ReadOnly
		default:
			return Program{}, fmt.Errorf("faultio: unknown fault kind %q", head)
		}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return Program{}, fmt.Errorf("faultio: field %q is not key=value", f)
			}
			var err error
			switch key {
			case "file":
				r.File = val
			case "call":
				switch val {
				case ssdio.CallSync, ssdio.CallPsync, ssdio.CallGang:
					r.Call = val
				default:
					return Program{}, fmt.Errorf("faultio: unknown call kind %q", val)
				}
			case "p":
				r.P, err = strconv.ParseFloat(val, 64)
				// The inverted comparison also rejects NaN, which would
				// slip through `< 0 || > 1` and make fires() misbehave.
				if err == nil && !(r.P >= 0 && r.P <= 1) {
					err = fmt.Errorf("probability out of [0,1]")
				}
			case "from":
				r.From, err = parseTicks(val)
			case "until":
				r.Until, err = parseTicks(val)
			case "delay":
				r.Delay, err = parseTicks(val)
			case "every":
				r.Every, err = parseTicks(val)
			default:
				return Program{}, fmt.Errorf("faultio: unknown field %q", key)
			}
			if err != nil {
				return Program{}, fmt.Errorf("faultio: bad %s=%s: %v", key, val, err)
			}
		}
		if r.Kind == Latency && r.Delay == 0 {
			return Program{}, fmt.Errorf("faultio: latency rule needs delay=")
		}
		if r.Every > 0 && r.Kind != Stall {
			return Program{}, fmt.Errorf("faultio: every= is only valid on stall rules")
		}
		if r.Kind == Stall && r.Every > 0 && r.Delay == 0 {
			return Program{}, fmt.Errorf("faultio: periodic stall rule needs delay=")
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

// parseTicks parses a duration with an ns/us/µs/ms/s suffix (bare
// numbers are nanoseconds) into vtime Ticks.
func parseTicks(s string) (vtime.Ticks, error) {
	unit := vtime.Nanosecond
	num := s
	for _, u := range []struct {
		suffix string
		ticks  vtime.Ticks
	}{
		{"ns", vtime.Nanosecond},
		{"us", vtime.Microsecond},
		{"µs", vtime.Microsecond},
		{"ms", vtime.Millisecond},
		{"s", vtime.Second},
	} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			unit, num = u.ticks, v
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite duration")
	}
	if v < 0 {
		return 0, fmt.Errorf("negative duration")
	}
	// Cap well below the int64 range: an overflowing float-to-Ticks
	// conversion is implementation-specific (it can wrap negative), and
	// the injectors add delays to the clock, which must never overflow.
	t := v * float64(unit)
	if t > float64(math.MaxInt64/4) {
		return 0, fmt.Errorf("duration too large")
	}
	return vtime.Ticks(t), nil
}
