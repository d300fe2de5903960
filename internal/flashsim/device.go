package flashsim

import (
	"fmt"
	"sync"

	"repro/internal/vtime"
)

// Op is the I/O direction of a request.
type Op uint8

const (
	// Read transfers data device -> host.
	Read Op = iota
	// Write transfers data host -> device.
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Request is one I/O command against the device's logical address space.
// Offset and Size are in bytes; Size must be positive. Offsets need not be
// aligned to the flash page size, but index substrates always issue
// page-aligned I/O.
type Request struct {
	Op     Op
	Offset int64
	Size   int
}

// Result describes the completion of one request within a batch.
type Result struct {
	// Start is when the command was issued to the device.
	Start vtime.Ticks
	// Done is when the command fully completed (data transferred and, for
	// writes, programmed).
	Done vtime.Ticks
}

// Latency is the request's service time.
func (r Result) Latency() vtime.Ticks { return r.Done - r.Start }

// Device is one simulated flash SSD. All methods are safe for concurrent
// use; internally a single mutex orders resource reservations, which is
// also the determinism boundary for simulated-thread experiments (callers
// that need determinism submit from the vtime scheduler, which is already
// sequential).
type Device struct {
	cfg Config

	mu       sync.Mutex
	channels []vtime.Ticks   // channel bus busy-until
	packages [][]vtime.Ticks // [channel][package] busy-until
	hostBus  vtime.Ticks     // host interface busy-until
	hostDir  Op              // last host bus direction
	hostUsed bool            // any transfer yet

	ncq []vtime.Ticks // completion times of the last NCQDepth requests (ring)
	nq  int           // ring cursor

	wear  [][]int64 // [channel][package] program counts (wear accounting)
	aging Aging
	stats Stats
}

// Aging models the write-path degradation of a worn or nearly-full drive:
// programs slow down (worn cells need more ISPP pulses and stronger ECC)
// and the firmware's garbage collector periodically steals a package to
// relocate a victim block, stalling foreground programs behind it. The
// zero value is a fresh drive.
type Aging struct {
	// ProgramFactor scales CellProgramLatency; values <= 1 leave the
	// program time unchanged.
	ProgramFactor float64
	// GCEvery, when positive, triggers a garbage-collection stall on a
	// package after every GCEvery page programs on that package.
	GCEvery int64
	// GCStall is the duration the victim package is busy relocating data
	// per triggered collection.
	GCStall vtime.Ticks
}

// SetAging installs an aging profile on the live device; subsequent
// writes pay the configured degradation. Scenario harnesses use it to
// age a device mid-run without disturbing its reservation timelines.
func (d *Device) SetAging(a Aging) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.aging = a
}

// Aging returns the device's current aging profile.
func (d *Device) Aging() Aging {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.aging
}

// programLatency is the effective page-program time under the current
// aging profile. Caller holds d.mu.
func (d *Device) programLatency() vtime.Ticks {
	lat := d.cfg.CellProgramLatency
	if d.aging.ProgramFactor > 1 {
		lat = vtime.Ticks(float64(lat) * d.aging.ProgramFactor)
	}
	return lat
}

// NewDevice builds a device from cfg; it panics only on programmer error
// (invalid configuration), reported via error instead.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg}
	d.channels = make([]vtime.Ticks, cfg.Channels)
	d.packages = make([][]vtime.Ticks, cfg.Channels)
	for i := range d.packages {
		d.packages[i] = make([]vtime.Ticks, cfg.PackagesPerChannel)
	}
	d.ncq = make([]vtime.Ticks, cfg.NCQDepth)
	d.wear = make([][]int64, cfg.Channels)
	for i := range d.wear {
		d.wear[i] = make([]int64, cfg.PackagesPerChannel)
	}
	return d, nil
}

// MustDevice is NewDevice for tests and examples with known-good profiles.
func MustDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device's configuration.
func (d *Device) Config() Config { return d.cfg }

// locate maps a flash page number to its (channel, package) pair.
// Consecutive pages span channels first (channel-level striping), then the
// packages of each channel (package-level striping), per Section 2.1.
func (d *Device) locate(fpn int64) (ch, pkg int) {
	ch = int(fpn % int64(d.cfg.Channels))
	pkg = int((fpn / int64(d.cfg.Channels)) % int64(d.cfg.PackagesPerChannel))
	return ch, pkg
}

// hostTransfer reserves the host bus for n bytes starting no earlier than
// at, charging the direction-switch penalty when the bus turns around.
// Caller holds d.mu.
func (d *Device) hostTransfer(at vtime.Ticks, op Op, n int) (start, done vtime.Ticks) {
	start = vtime.Max(at, d.hostBus)
	if d.hostUsed && d.hostDir != op {
		start += d.cfg.DirSwitchPenalty
		d.stats.DirSwitches++
	}
	done = start + vtime.Ticks(float64(n)*d.cfg.HostNsPerByte)
	d.hostBus = done
	d.hostDir = op
	d.hostUsed = true
	return start, done
}

// servePage executes one flash-page-sized piece of a request and returns
// its completion time. Caller holds d.mu.
func (d *Device) servePage(at vtime.Ticks, op Op, fpn int64, n int) vtime.Ticks {
	ch, pkg := d.locate(fpn)
	chCost := vtime.Ticks(float64(n) * d.cfg.ChannelNsPerByte)
	switch op {
	case Read:
		// Sense the cell, then move data over the channel, then over the
		// host interface. The package is held until its data has left the
		// channel (page register occupied).
		cellStart := vtime.Max(at, d.packages[ch][pkg])
		cellDone := cellStart + d.cfg.CellReadLatency
		chStart := vtime.Max(cellDone, d.channels[ch])
		chDone := chStart + chCost
		d.channels[ch] = chDone
		d.packages[ch][pkg] = chDone
		_, hostDone := d.hostTransfer(chDone, Read, n)
		d.stats.PagesRead++
		return hostDone
	case Write:
		// Move data over the host interface, then the channel, then program
		// the cell. The channel is released as soon as the transfer ends,
		// so other packages of the gang can receive data while this one
		// programs: the write-interleaving technique of Section 2.1.
		_, hostDone := d.hostTransfer(at, Write, n)
		chStart := vtime.Max(hostDone, vtime.Max(d.channels[ch], d.packages[ch][pkg]))
		chDone := chStart + chCost
		d.channels[ch] = chDone
		progDone := chDone + d.programLatency()
		d.wear[ch][pkg]++
		// GC pressure: after every GCEvery programs the package stalls to
		// relocate a victim block before the next request can use it.
		if d.aging.GCEvery > 0 && d.wear[ch][pkg]%d.aging.GCEvery == 0 {
			progDone += d.aging.GCStall
			d.stats.GCStalls++
			d.stats.GCStallTime += d.aging.GCStall
		}
		d.packages[ch][pkg] = progDone
		d.stats.PagesProgrammed++
		return progDone
	default:
		panic(fmt.Sprintf("flashsim: invalid op %d", op))
	}
}

// serve executes one whole request arriving at time at. Caller holds d.mu.
func (d *Device) serve(at vtime.Ticks, req Request) Result {
	if req.Size <= 0 {
		panic(fmt.Sprintf("flashsim: request size must be positive, got %d", req.Size))
	}
	if req.Offset < 0 {
		panic(fmt.Sprintf("flashsim: negative offset %d", req.Offset))
	}
	// NCQ window: this request cannot start before the request NCQDepth
	// positions earlier has completed.
	start := vtime.Max(at, d.ncq[d.nq])

	fps := int64(d.cfg.FlashPageSize)
	first := req.Offset / fps
	last := (req.Offset + int64(req.Size) - 1) / fps
	done := start
	for fpn := first; fpn <= last; fpn++ {
		// Bytes of the request on this flash page.
		pageStart := fpn * fps
		pageEnd := pageStart + fps
		reqEnd := req.Offset + int64(req.Size)
		n := int(minI64(pageEnd, reqEnd) - maxI64(pageStart, req.Offset))
		if c := d.servePage(start, req.Op, fpn, n); c > done {
			done = c
		}
	}
	done += d.cfg.CmdOverhead
	d.ncq[d.nq] = done
	d.nq = (d.nq + 1) % len(d.ncq)

	if req.Op == Read {
		d.stats.Reads++
		d.stats.BytesRead += int64(req.Size)
		d.stats.ReadTime += done - start
	} else {
		d.stats.Writes++
		d.stats.BytesWritten += int64(req.Size)
		d.stats.WriteTime += done - start
	}
	return Result{Start: start, Done: done}
}

// Submit issues a batch of requests at virtual time at, back to back with
// the configured submission gap, and returns the per-request results plus
// the completion time of the whole batch (the psync I/O semantics of
// Section 2.3: "delivers the set of I/Os ... and retrieves request results
// at once"). A batch of one models plain synchronous I/O.
func (d *Device) Submit(at vtime.Ticks, reqs []Request) ([]Result, vtime.Ticks) {
	if len(reqs) == 0 {
		return nil, at
	}
	results := make([]Result, len(reqs))
	return results, d.submit(at, reqs, results)
}

// SubmitBatch is Submit for a caller that needs only the completion time
// of the whole batch, as a psync call does: it allocates no result slice.
func (d *Device) SubmitBatch(at vtime.Ticks, reqs []Request) vtime.Ticks {
	if len(reqs) == 0 {
		return at
	}
	return d.submit(at, reqs, nil)
}

// submit serves a non-empty batch, recording each request's result in
// results unless it is nil, and returns the batch's completion time.
func (d *Device) submit(at vtime.Ticks, reqs []Request, results []Result) vtime.Ticks {
	d.mu.Lock()
	defer d.mu.Unlock()
	batchDone := at
	for i, r := range reqs {
		issue := at + vtime.Ticks(i)*d.cfg.SubmitGap
		res := d.serve(issue, r)
		if results != nil {
			results[i] = res
		}
		if res.Done > batchDone {
			batchDone = res.Done
		}
	}
	d.noteBatch(len(reqs))
	return batchDone
}

// noteBatch counts one submission of n requests. Caller holds d.mu.
func (d *Device) noteBatch(n int) {
	d.stats.Batches++
	if n > d.stats.MaxBatch {
		d.stats.MaxBatch = n
	}
}

// SubmitOne issues a single synchronous request: Submit with a batch of
// one, served under the lock directly so the sync-read path allocates no
// request or result slice.
func (d *Device) SubmitOne(at vtime.Ticks, req Request) Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	res := d.serve(at, req)
	d.noteBatch(1)
	return res
}

// Wear reports the program-count distribution across the flash array:
// minimum, maximum and mean page programs per package. Even wear is the
// signature of striping working; a hot package signals a layout problem.
func (d *Device) Wear() (min, max int64, mean float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	first := true
	var total int64
	for _, row := range d.wear {
		for _, w := range row {
			if first || w < min {
				min = w
			}
			if first || w > max {
				max = w
			}
			first = false
			total += w
		}
	}
	n := d.cfg.TotalPackages()
	if n > 0 {
		mean = float64(total) / float64(n)
	}
	return min, max, mean
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the device counters (resource time lines are kept).
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Stats aggregates device activity for experiment reporting.
type Stats struct {
	Reads, Writes   int64
	BytesRead       int64
	BytesWritten    int64
	ReadTime        vtime.Ticks // summed request latencies
	WriteTime       vtime.Ticks
	PagesRead       int64
	PagesProgrammed int64
	DirSwitches     int64
	Batches         int64
	MaxBatch        int
	// GCStalls counts aging-triggered garbage collections; GCStallTime is
	// the package-busy time they added (see Aging).
	GCStalls    int64
	GCStallTime vtime.Ticks
}

// TotalOps returns the number of completed requests.
func (s Stats) TotalOps() int64 { return s.Reads + s.Writes }

// String summarizes the counters on one line.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d bytesR=%d bytesW=%d batches=%d maxBatch=%d dirSwitches=%d",
		s.Reads, s.Writes, s.BytesRead, s.BytesWritten, s.Batches, s.MaxBatch, s.DirSwitches)
}
