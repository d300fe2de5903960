package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/kv"
)

// fuzzRules decodes a MoveRule list from raw bytes (16 bytes per rule),
// clamped so it passes validateRules: the fuzzer explores rule-set
// shapes, not the validator's rejection paths.
func fuzzRules(raw []byte, slots int) []MoveRule {
	var rules []MoveRule
	for len(raw) >= 16 && len(rules) < 8 {
		lo := binary.LittleEndian.Uint64(raw)
		span := binary.LittleEndian.Uint32(raw[8:])
		from := int(raw[12]) % slots
		to := int(raw[13]) % slots
		raw = raw[16:]
		if to == from {
			to = (from + 1) % slots
		}
		hi := lo + uint64(span) + 1
		if hi <= lo { // wrapped
			continue
		}
		rules = append(rules, MoveRule{Lo: lo, Hi: hi, From: from, To: to, ID: uint64(len(rules) + 1)})
	}
	return rules
}

// FuzzRoute checks the routing invariant online rebalancing rests on:
// whatever committed move rules and in-flight frontier a
// RebalancingPartitioner carries, every key resolves to exactly one
// shard inside [0, slots), and RangeShards always returns an ascending,
// duplicate-free superset containing that shard.
func FuzzRoute(f *testing.F) {
	f.Add(uint64(10), uint64(0), uint64(100), []byte{})
	f.Add(uint64(5), uint64(0), uint64(9),
		[]byte{1, 0, 0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 1, 0, 0})
	f.Add(^uint64(0), ^uint64(0)-1, ^uint64(0), []byte{
		0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 2, 3, 0, 0,
		10, 0, 0, 0, 0, 0, 0, 0, 90, 0, 0, 0, 3, 2, 0, 0,
	})

	f.Fuzz(func(t *testing.T, key, lo, hi uint64, raw []byte) {
		slots := 2
		if len(raw) > 0 {
			slots = 2 + int(raw[0]%6)
		}
		for _, base := range []Partitioner{
			HashPartitioner{N: slots},
			rangePartitionerFor(slots),
		} {
			p, err := newRebalancingPartitioner(base, slots)
			if err != nil {
				t.Fatalf("newRebalancingPartitioner: %v", err)
			}
			rules := fuzzRules(raw, slots)
			if err := validateRules(rules, slots); err != nil {
				t.Fatalf("fuzzRules produced an invalid rule set: %v", err)
			}
			rt := *p.cur.Load()
			rt.rules = rules
			if len(raw) >= 2 && raw[1]%2 == 1 && hi > lo {
				// An in-flight migration with a mid-range frontier.
				src := int(raw[1]/2) % slots
				rt.mig = &migRoute{
					id: 99, lo: lo, hi: hi,
					src: src, dst: (src + 1) % slots,
					frontier: lo + (hi-lo)/2,
				}
			}
			p.publish(rt)

			checkRoute := func(k kv.Key) int {
				s := p.Shard(k)
				if s < 0 || s >= slots {
					t.Fatalf("key %d routed to shard %d outside [0,%d)", k, s, slots)
				}
				return s
			}
			checkRoute(key)
			if hi > lo {
				shards := p.RangeShards(lo, hi)
				for i := 1; i < len(shards); i++ {
					if shards[i] <= shards[i-1] {
						t.Fatalf("RangeShards(%d,%d) not strictly ascending: %v", lo, hi, shards)
					}
				}
				covered := make(map[int]bool, len(shards))
				for _, s := range shards {
					if s < 0 || s >= slots {
						t.Fatalf("RangeShards(%d,%d) contains shard %d outside [0,%d)", lo, hi, s, slots)
					}
					covered[s] = true
				}
				// Sample the range edges and midpoint: each sampled key's
				// owner must be in the superset.
				for _, k := range []kv.Key{lo, lo + (hi-lo)/2, hi - 1} {
					if s := checkRoute(k); !covered[s] {
						t.Fatalf("key %d routes to shard %d, missing from RangeShards(%d,%d)=%v", k, s, lo, hi, shards)
					}
				}
			}
			// Routing is deterministic: the same key resolves identically on
			// a second load of the same snapshot.
			if a, b := p.Shard(key), p.Shard(key); a != b {
				t.Fatalf("key %d routed to %d then %d on one snapshot", key, a, b)
			}
		}
	})
}

// rangePartitionerFor splits the key space into slots even spans.
func rangePartitionerFor(slots int) RangePartitioner {
	bounds := make([]kv.Key, slots-1)
	span := ^kv.Key(0) / kv.Key(slots)
	for i := range bounds {
		bounds[i] = kv.Key(i+1) * span
	}
	return RangePartitioner{Bounds: bounds}
}
