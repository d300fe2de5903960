package main

import (
	"fmt"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// The common engine configuration (ISSUE 12, "Common set-up").
const (
	pageSize    = 2048
	leafSegs    = 4
	pioMax      = 64
	bcnt        = 5000
	speriod     = 5000
	opqPages    = 16 // global budget, split over the shards
	cpuPerNode  = 2 * vtime.Microsecond
	ctxSwitch   = 3 * vtime.Microsecond
	dataFileCap = 64 << 20 // pio.OpenForest's default CapacityHint
	walFileCap  = 16 << 20 // pio.OpenForest's per-shard log file
)

// stack is the engine composed the way pio.OpenForest composes it, but
// from the internal packages, so the benchmark keeps every handle whose
// public counters it reads.
type stack struct {
	dev       *flashsim.Device
	space     *ssdio.Space
	dataFiles []*ssdio.File
	walFiles  []*ssdio.File
	pfs       []*pagefile.PageFile
	logs      []*wal.Log
	fr        *core.Forest
}

func deviceProfile() flashsim.Config { return flashsim.P300() }

// buildStack creates the device, files, logs and forest and bulk-loads n
// records over equal range partitions.
func buildStack(sc scale, poolBytes int, withWAL bool) (*stack, error) {
	dev, err := flashsim.NewDevice(deviceProfile())
	if err != nil {
		return nil, err
	}
	st := &stack{dev: dev, space: ssdio.NewSpace(dev)}
	perShard := int64(dataFileCap/sc.shards + 1<<20)
	for i := 0; i < sc.shards; i++ {
		f, err := st.space.Create(fmt.Sprintf("data-%d", i), perShard)
		if err != nil {
			return nil, err
		}
		pf, err := pagefile.New(f, pageSize)
		if err != nil {
			return nil, err
		}
		st.dataFiles = append(st.dataFiles, f)
		st.pfs = append(st.pfs, pf)
		if !withWAL {
			continue
		}
		wf, err := st.space.Create(fmt.Sprintf("wal-%d", i), walFileCap)
		if err != nil {
			return nil, err
		}
		l, err := wal.NewLog(wf, pageSize)
		if err != nil {
			return nil, err
		}
		st.walFiles = append(st.walFiles, wf)
		st.logs = append(st.logs, l)
	}
	bounds := make([]kv.Key, sc.shards-1)
	for i := range bounds {
		bounds[i] = kv.Key((i+1)*sc.n/sc.shards) * slotStride
	}
	st.fr, err = core.NewForest(st.pfs, core.ForestConfig{
		Partitioner: core.RangePartitioner{Bounds: bounds},
		Shard: core.Config{
			PageSize:    pageSize,
			LeafSegs:    leafSegs,
			OPQPages:    opqPages,
			PioMax:      pioMax,
			SPeriod:     speriod,
			BCnt:        bcnt,
			BufferBytes: poolBytes,
			CPUPerNode:  cpuPerNode,
		},
		Logs: st.logs,
	})
	if err != nil {
		return nil, err
	}
	st.space.SetStuckTimeout(core.RetryPolicy{}.StuckDeadline())
	recs := make([]kv.Record, sc.n)
	for i := range recs {
		k := loadedKey(i)
		recs[i] = kv.Record{Key: k, Value: valueOf(k)}
	}
	if err := st.fr.BulkLoad(recs); err != nil {
		return nil, err
	}
	return st, nil
}

// counters is one reading of every layer's public counters. All fields
// are cumulative; metrics are computed from the difference of two
// readings around the measured phase.
type counters struct {
	dev        flashsim.Stats
	data, wal  ssdio.Stats
	pages      int64 // sum of PageFile.NumPages
	dataBytes  int64 // sum of data File.Size
	pool       bufferpool.Stats
	frames     int
	forceWr    int64
	gangForces int64
	logBytes   int64 // durable log bytes ever written (live + truncated)
	truncated  int64
	live       int64
	fs         core.ForestStats
}

func addIO(a *ssdio.Stats, b ssdio.Stats) {
	a.SyncCalls += b.SyncCalls
	a.PsyncCalls += b.PsyncCalls
	a.PsyncReqs += b.PsyncReqs
	a.CtxSwitches += b.CtxSwitches
	a.IOTime += b.IOTime
}

// read takes a reading. The forest must be quiescent (ShardTree's
// contract), which it is between phases.
func (st *stack) read() counters {
	c := counters{dev: st.dev.Stats(), fs: st.fr.Stats()}
	for i, f := range st.dataFiles {
		addIO(&c.data, f.Stats())
		c.dataBytes += f.Size()
		c.pages += st.pfs[i].NumPages()
		p := st.fr.ShardTree(i).Pool()
		ps := p.Stats()
		c.pool.Hits += ps.Hits
		c.pool.Misses += ps.Misses
		c.pool.Evictions += ps.Evictions
		c.frames += p.Capacity()
	}
	for i, f := range st.walFiles {
		addIO(&c.wal, f.Stats())
		fw, gf := st.logs[i].ForceStats()
		c.forceWr += fw
		c.gangForces += gf
		t, l := st.logs[i].TruncatedBytes(), st.logs[i].LiveBytes()
		c.truncated += t
		c.live += l
		c.logBytes += t + l
	}
	return c
}
