// Forest recovery: demonstrate the PIO B-tree's crash-recovery scheme
// (Section 3.4) on a sharded index. Each shard's log holds three record
// kinds: a logical redo log per buffered update, flush event logs
// bracketing every OPQ flush, and flush undo logs (node pre-images) that
// roll back a flush the crash left incomplete. A crash loses the OPQ,
// LSMap and buffer pool; recovery undoes incomplete flushes, then redoes
// the committed updates no completed flush consumed.
//
// The forest attaches one WAL per shard and the flush coordinator runs a
// two-phase group commit: one ganged force makes every member's
// FlushStart/undo records durable before the data writes, a second
// commits their FlushEnds — two blocking log submissions per group
// instead of two per shard.
//
// The example commits three classes of work, crashes, recovers with
// Forest.Recover, and verifies the durable prefix survived exactly:
//
//  1. flushed entries (consumed by a committed group flush);
//  2. committed-but-unflushed entries (redo records made durable by an
//     explicit Sync group commit, redone into the OPQs);
//  3. an uncommitted tail (never forced — legitimately lost, no-steal).
package main

import (
	"fmt"
	"log"

	pio "repro"
)

const (
	shards  = 4
	stride  = 1 << 20
	flushed = 400 // per shard, phase 1
	synced  = 30  // per shard, phase 2
	lost    = 10  // per shard, phase 3
)

func key(shard, j int) pio.Key { return pio.Key(shard)*stride + pio.Key(j) }

func main() {
	dev := pio.NewDevice(pio.P300)
	opts := pio.DefaultForestOptions()
	opts.WAL = true
	opts.Shards = shards
	// Range-partition so every shard sees all three phases.
	opts.RangeBounds = make([]pio.Key, shards-1)
	for i := range opts.RangeBounds {
		opts.RangeBounds[i] = pio.Key(i+1) * stride
	}
	fr, err := pio.OpenForest(dev, opts)
	if err != nil {
		log.Fatal(err)
	}
	var clock pio.Clock
	insert := func(shard, j int) {
		k := key(shard, j)
		done, err := fr.Insert(clock.Now(), pio.Record{Key: k, Value: uint64(k) * 3})
		if err != nil {
			log.Fatal(err)
		}
		clock.Advance(done)
	}

	// Phase 1: enough inserts on every shard that the coordinator runs
	// group flushes (each one a two-phase group commit), then one explicit
	// flush to settle the queues into committed flushes.
	for j := 0; j < flushed; j++ {
		for s := 0; s < shards; s++ {
			insert(s, j)
		}
	}
	done, err := fr.Flush(clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	st := fr.Stats()
	fmt.Printf("phase 1: %d inserts flushed; %d group flushes, %d ganged log forces (%.3fs simulated)\n",
		shards*flushed, st.GroupFlushes, st.LogGangSubmits, clock.Elapsed())

	// Phase 2: buffered work committed by one ganged Sync — the redo
	// records of all four shards ride a single blocking submission.
	for j := 0; j < synced; j++ {
		for s := 0; s < shards; s++ {
			insert(s, flushed+j)
		}
	}
	done, err = fr.Sync(clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("phase 2: %d operations committed in the OPQs by one group commit\n", shards*synced)

	// Phase 3: an uncommitted tail, never forced.
	for j := 0; j < lost; j++ {
		for s := 0; s < shards; s++ {
			insert(s, flushed+synced+j)
		}
	}
	fmt.Printf("phase 3: %d uncommitted operations pending\n", shards*lost)

	// Crash: OPQs, LSMaps, buffer pools and unforced log tails vanish.
	fr.Crash()
	fmt.Println("crash! volatile state lost on every shard")

	rep, done, err := fr.Recover(clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	clock.Advance(done)
	fmt.Printf("recovery: %d flushes undone (%d pages restored), %d entries redone, %d skipped as flushed\n",
		rep.Total.UndoneFlushes, rep.Total.UndoPagesApplied, rep.Total.RedoneEntries, rep.Total.SkippedEntries)

	// Verify the durable prefix: phases 1-2 present, phase 3 gone.
	missing, ghosts := 0, 0
	for s := 0; s < shards; s++ {
		for j := 0; j < flushed+synced+lost; j++ {
			k := key(s, j)
			_, ok, d, err := fr.Search(clock.Now(), k)
			if err != nil {
				log.Fatal(err)
			}
			clock.Advance(d)
			if j < flushed+synced && !ok {
				missing++
			}
			if j >= flushed+synced && ok {
				ghosts++
			}
		}
	}
	fmt.Printf("verification: %d committed keys missing, %d uncommitted keys resurrected\n", missing, ghosts)
	if missing > 0 || ghosts > 0 {
		log.Fatal("recovery restored the wrong prefix")
	}
	if err := fr.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered forest is consistent on every shard")
}
