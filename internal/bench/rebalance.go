package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// buildRebalanceForest bulk-loads a range-partitioned, WAL-attached
// forest (one log per shard) whose first stripe holds most of the keys —
// the dominant-tenant layout a skewed workload turns into a hotspot.
func buildRebalanceForest(p flashsim.Config, n, memBytes, shards int, pp pioParams) (*core.Forest, []kv.Record, error) {
	// Skewed stripes over the loaded key domain [0, n*16): stripe 0 is
	// the dominant tenant, the rest split the remainder evenly.
	hotN := n * rebalanceHotPercent / 100
	bounds := make([]kv.Key, shards-1)
	for i := range bounds {
		bounds[i] = kv.Key(hotN+i*(n-hotN)/(shards-1)) * 16
	}
	fr, _, recs, err := buildForest(p, n, memBytes, pp, core.Spec{
		Shards: shards, WAL: true,
		Forest: core.ForestConfig{Partitioner: core.RangePartitioner{Bounds: bounds}},
	})
	return fr, recs, err
}

// RebalanceBench measures online shard rebalancing under a hotspot: a
// mixed workload confined to shard 0's stripe is driven before, during,
// and after a SplitShard that carves the hot stripe's upper half onto an
// idle shard. "During" interleaves the migration's chunk steps with the
// workload as one more simulated thread, so the dip and the recovery are
// both visible — and deterministic, which lets CI gate on the numbers.
func RebalanceBench(s Scale) ([]Table, error) {
	threads := s.Threads
	if threads <= 0 {
		threads = 8
	}
	shards := s.Shards
	if shards <= 1 {
		shards = 4
	}
	const insertRatio = 0.5
	dev := flashsim.Iodrive()
	pp := forestTune(dev, s.InitialEntries, s.MemBytes, shards, insertRatio)
	fr, recs, err := buildRebalanceForest(dev, s.InitialEntries, s.MemBytes, shards, pp)
	if err != nil {
		return nil, err
	}
	// The hotspot: every operation targets the dominant stripe. One
	// stateful generator feeds all three phases, so fresh-key inserts
	// never repeat across phases (the tree treats keys as unique).
	hot := recs[:len(recs)*rebalanceHotPercent/100]
	gen := newHotspotGen(hot, s.Seed)
	boundary := hot[len(hot)/2].Key

	t := &Table{
		ID: "rebalance-" + dev.Name,
		Title: fmt.Sprintf("hotspot split, %d ops/phase 50/50 mix on 1 of %d stripes, %d threads, N=%d",
			s.Ops, shards, threads, s.InitialEntries),
		Header: []string{"phase", "elapsed_s", "kops_per_s", "flushes", "gang_submits", "migrated_keys"},
	}
	// The three phases share one continuous virtual timeline (the shard
	// vlocks carry their horizons across phases); each phase's threads
	// start at the phase base and its makespan is measured from there.
	phase := func(name string, base vtime.Ticks, ops []workload.Op, extra *core.Migration) (vtime.Ticks, error) {
		pre := fr.Stats()
		ths := make([]*vtimeThread, 0, threads+1)
		for i := 0; i < threads; i++ {
			tid := i
			ths = append(ths, newVtimeThread(tid, func(_, step int, now vtime.Ticks) (vtime.Ticks, bool) {
				idx := step*threads + tid
				if idx >= len(ops) {
					return now, false
				}
				op := ops[idx]
				var next vtime.Ticks
				var err error
				if op.Kind == workload.OpInsert {
					next, err = fr.Insert(vtime.Max(now, base), op.Rec)
				} else {
					_, _, next, err = fr.Search(vtime.Max(now, base), op.Rec.Key)
				}
				if err != nil {
					panic(err)
				}
				return next, true
			}))
		}
		if extra != nil {
			ths = append(ths, newVtimeThread(threads, func(_, _ int, now vtime.Ticks) (vtime.Ticks, bool) {
				if extra.Done() {
					return now, false
				}
				_, next, err := extra.Step(vtime.Max(now, base))
				if err != nil {
					panic(err)
				}
				return next, true
			}))
		}
		end := vtime.Max(runThreads(3*vtime.Microsecond, ths), base)
		elapsed := end - base
		post := fr.Stats()
		kops := float64(len(ops)) / elapsed.Seconds() / 1e3
		t.AddRow(name, fmtSeconds(elapsed), fmt.Sprintf("%.1f", kops),
			fmt.Sprintf("%d", post.Tree.Flushes-pre.Tree.Flushes),
			fmt.Sprintf("%d", post.GangSubmits-pre.GangSubmits),
			fmt.Sprintf("%d", post.MigratedKeys-pre.MigratedKeys))
		return end, nil
	}

	now, err := phase("before", 0, gen.ops(s.Ops, insertRatio), nil)
	if err != nil {
		return nil, err
	}
	// The split streams toward shard 1 (idle, like every non-hot shard);
	// its chunks run as one more simulated thread among the workload.
	mig, now, err := fr.StartMigration(now, boundary, core.MaxMigrationKey, 0, 1)
	if err != nil {
		return nil, err
	}
	now, err = phase("during", now, gen.ops(s.Ops, insertRatio), mig)
	if err != nil {
		return nil, err
	}
	// Finish any chunks the during-phase makespan cut short.
	now, err = mig.Drain(now)
	if err != nil {
		return nil, err
	}
	if _, err := phase("after", now, gen.ops(s.Ops, insertRatio), nil); err != nil {
		return nil, err
	}
	st := fr.Stats()
	if err := fr.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("bench: forest invalid after rebalance: %w", err)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("split moved %d keys in bounded chunks while serving; routing epoch %d, %d committed migrations",
			st.MigratedKeys, st.RoutingEpoch, st.Migrations),
		"before: the hot stripe pins one shard, so every flush is solo; after: the split spreads the hotspot over two shards whose flushes gang into shared psync submissions")
	return []Table{*t}, nil
}

// rebalanceHotPercent is the share of loaded keys living in stripe 0 —
// the dominant tenant whose traffic the split spreads out.
const rebalanceHotPercent = 70

// hotspotGen generates a mixed workload confined to one loaded stripe.
// Unlike workload.Mixed it keeps its fresh-key state across calls, so
// successive phases never re-insert a key. The records must be the
// workload.InitialKeys layout (record i holds key i*16+8).
type hotspotGen struct {
	recs      []kv.Record
	rng       *rand.Rand
	nextFresh map[int]uint64
}

func newHotspotGen(recs []kv.Record, seed int64) *hotspotGen {
	return &hotspotGen{recs: recs, rng: rand.New(rand.NewSource(seed)), nextFresh: make(map[int]uint64)}
}

func (g *hotspotGen) ops(n int, insertRatio float64) []workload.Op {
	out := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		base := g.rng.Intn(len(g.recs))
		if g.rng.Float64() < insertRatio {
			// Fresh keys fill the 15 gap slots around each loaded key.
			off := g.nextFresh[base] % 15
			if off >= 8 {
				off++
			}
			g.nextFresh[base]++
			out = append(out, workload.Op{
				Kind: workload.OpInsert,
				Rec:  kv.Record{Key: uint64(base)*16 + off, Value: g.rng.Uint64()},
			})
		} else {
			out = append(out, workload.Op{Kind: workload.OpSearch, Rec: g.recs[base]})
		}
	}
	return out
}

func init() {
	Register("rebalance", RebalanceBench)
}
