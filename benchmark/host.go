package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostDelta is what a measured phase cost this machine.
type hostDelta struct {
	wallNs   int64
	cpuNs    int64 // process user+sys, so GC workers count
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPUSec float64
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func gcCPUNow() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measureHost runs f between two readings of the process's clocks and
// allocation counters. A collection first puts every run at the same heap
// state.
func measureHost(f func()) hostDelta {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0, t0 := gcCPUNow(), cpuNow(), time.Now()
	f()
	wall := time.Since(t0)
	cpu1, gc1 := cpuNow(), gcCPUNow()
	runtime.ReadMemStats(&m1)
	return hostDelta{
		wallNs:   int64(wall),
		cpuNs:    cpu1 - cpu0,
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcCPUSec: gc1 - gc0,
	}
}
