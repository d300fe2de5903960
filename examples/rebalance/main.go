// Rebalance: demonstrate online shard rebalancing. A range-partitioned
// forest serves a skewed tenant whose stripe holds most of the keys and
// absorbs all the traffic; the per-shard load stats expose the hotspot,
// and AutoRebalance sheds the hot shard's excess load onto the least
// loaded shard — streaming the key range in bounded chunks while
// searches and inserts keep flowing, with every protocol step
// (MigrationStart, per-chunk KeyMoved, MigrationEnd) committed through
// the WAL group-commit path.
//
// The example then crashes the forest in the middle of a SECOND
// migration and shows Forest.Recover resuming it from the durable
// frontier: no key is lost or duplicated, and the routing table comes
// back consistent.
package main

import (
	"fmt"
	"log"

	pio "repro"
)

const (
	shards = 4
	hotN   = 6000 // keys in the dominant tenant's stripe
	coldN  = 500  // keys per cold stripe
)

func main() {
	dev := pio.NewDevice(pio.Iodrive)
	opts := pio.DefaultForestOptions()
	opts.WAL = true
	opts.Shards = shards
	opts.MigrationChunk = 256
	// Stripe 0 carries the dominant tenant, the rest are small.
	total := hotN + (shards-1)*coldN
	opts.RangeBounds = make([]pio.Key, shards-1)
	for i := range opts.RangeBounds {
		opts.RangeBounds[i] = pio.Key(hotN+i*coldN) * 16
	}
	fr, err := pio.OpenForest(dev, opts)
	if err != nil {
		log.Fatal(err)
	}
	recs := make([]pio.Record, total)
	for i := range recs {
		recs[i] = pio.Record{Key: pio.Key(i)*16 + 8, Value: pio.Value(i)}
	}
	if err := fr.BulkLoad(recs); err != nil {
		log.Fatal(err)
	}

	// Prime the load-delta baseline, then hammer the hot stripe only.
	var clock pio.Clock
	if _, _, _, _, err := fr.AutoRebalance(clock.Now(), pio.RebalancePolicy{}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		r := recs[i%hotN]
		_, _, done, err := fr.Search(clock.Now(), r.Key)
		if err != nil {
			log.Fatal(err)
		}
		clock.Advance(done)
	}
	st := fr.Stats()
	fmt.Println("per-shard load after the skewed burst (ops/keys):")
	for i, l := range st.ShardLoads {
		fmt.Printf("  shard %d: %5d ops, %5d keys\n", i, l.Ops, l.Keys)
	}

	// The policy sees the imbalance and moves the end of the hot shard's
	// range that carries its excess load to the least-loaded shard —
	// online.
	moved, from, to, done, err := fr.AutoRebalance(clock.Now(), pio.RebalancePolicy{MinOps: 1000, HotFactor: 2})
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	st = fr.Stats()
	fmt.Printf("\nAutoRebalance: moved=%v shard %d -> %d (%d keys streamed, routing epoch %d)\n",
		moved, from, to, st.MigratedKeys, st.RoutingEpoch)
	for i, l := range st.ShardLoads {
		fmt.Printf("  shard %d: %5d keys\n", i, l.Keys)
	}

	// Keys keep resolving through the new routing.
	probe := recs[hotN*3/4]
	v, ok, done, err := fr.Search(clock.Now(), probe.Key)
	if err != nil || !ok || v != probe.Value {
		log.Fatalf("probe after split: %v %v %v", v, ok, err)
	}
	clock.Advance(done)

	// Now crash halfway through a second migration: move the range back,
	// but stop after the first chunk and pull the plug.
	rules := fr.Routing().Rules()
	lo, hi := rules[len(rules)-1].Lo, rules[len(rules)-1].Hi
	mig, done, err := fr.StartMigration(clock.Now(), lo, hi, to, from)
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	if _, done, err = mig.Step(clock.Now()); err != nil { // one durable chunk
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("\ncrash mid-migration (1 of several chunks durable, frontier in the WAL)...\n")
	fr.Crash()
	rep, done, err := fr.Recover(clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("Recover: resumed=%d rolledBack=%d keysMoved=%d keysPurged=%d\n",
		rep.ResumedMigrations, rep.RolledBackMigrations, rep.MigrationKeysMoved, rep.MigrationKeysPurged)

	// Every key is still there exactly once.
	if got := fr.Count(); got != int64(total) {
		log.Fatalf("count %d after recovery, want %d", got, total)
	}
	if err := fr.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall %d keys intact; routing rules: %d, epoch %d\n",
		total, len(fr.Routing().Rules()), fr.Routing().Epoch())
}
