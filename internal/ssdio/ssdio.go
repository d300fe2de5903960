// Package ssdio layers files and I/O request methods over the simulated
// flash SSD. It provides the three request methods compared in Section 2.3
// of the paper:
//
//   - Sync: one blocking request at a time (traditional synchronous I/O);
//   - Psync: "parallel synchronous I/O" — a whole array of requests is
//     submitted at once and the caller blocks until every member completed,
//     with no completion-event routine;
//   - thread-mode: many simulated threads each issuing Sync requests
//     (parallel processing), including the POSIX write-ordering per-file
//     writer lock that serializes synchronous direct writes to a shared
//     file (the effect behind Figure 4(a) vs 4(b)).
//
// Files hold real contents while all timing comes from the flashsim
// device, so index structures built on top are both functionally correct
// and time-faithful. A file's host image is sparse: fixed-size extents
// (ExtentSize bytes) allocated on their first write, with never-written
// ranges reading as zeros, so creating or growing a file costs no host
// memory. Discard is a host-side TRIM of a dead range (the WAL calls it on
// the head it truncates): the extents wholly inside it go to the file's
// spare list, and the next write that needs a new extent takes one from
// there, cleared, before it allocates. A log's image is thus a ring of
// extents that stops growing once its live window does. Like growth, this
// is invisible to the simulated device.
package ssdio

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/flashsim"
	"repro/internal/vtime"
)

// ErrOutOfRange reports an access beyond the end of a file.
var ErrOutOfRange = errors.New("ssdio: access out of file range")

// Req is one file I/O: read fills Buf from the file, write stores Buf into
// the file. Off is file-relative. len(Buf) is the transfer size.
type Req struct {
	Op  flashsim.Op
	Off int64
	Buf []byte
}

// Stats counts submitter activity for the context-switch experiment
// (Figure 4(c)) and general reporting.
type Stats struct {
	// SyncCalls / PsyncCalls count blocking submissions.
	SyncCalls  int64
	PsyncCalls int64
	// PsyncReqs counts requests carried inside psync batches.
	PsyncReqs int64
	// CtxSwitches counts simulated context switches: every blocking call
	// costs two (block on submit, wake on completion), independent of the
	// number of requests in the batch — the key psync advantage.
	CtxSwitches int64
	// IOTime accumulates time spent blocked in I/O calls.
	IOTime vtime.Ticks
}

// Space is an allocator of device address ranges: a minimal file system on
// the simulated SSD. It is safe for concurrent use.
type Space struct {
	dev *flashsim.Device

	// inj is the active fault injector (see fault.go); nil loads mean the
	// plane is fault-free and every path below costs exactly what it did
	// before the hook existed.
	inj atomic.Pointer[injectorBox]

	// stuck is the armed stuck-I/O watchdog deadline in ticks (see
	// SetStuckTimeout); 0 means disarmed.
	stuck atomic.Int64

	mu    sync.Mutex
	next  int64            // guarded by mu
	files map[string]*File // guarded by mu

	// reqMu serializes the psync calls and gangs too large for a stack
	// request array over reqs, the one array they describe themselves to
	// the device in: it grows as append does to hold the largest such
	// call, and is kept.
	reqMu sync.Mutex
	reqs  []flashsim.Request // guarded by reqMu
}

// NewSpace creates an empty space on dev.
func NewSpace(dev *flashsim.Device) *Space {
	return &Space{dev: dev, files: make(map[string]*File)}
}

// Create allocates a file of the given size (bytes). Creating an existing
// name returns an error; use Open to retrieve it.
func (s *Space) Create(name string, size int64) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("ssdio: create %q: size must be positive, got %d", name, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("ssdio: create %q: file exists", name)
	}
	f := &File{
		space: s,
		name:  name,
		base:  s.next,
		size:  size,
	}
	// Align file bases to the flash page size so striping begins at a
	// channel boundary for every file.
	fps := int64(s.dev.Config().FlashPageSize)
	s.next += (size + fps - 1) / fps * fps
	s.files[name] = f
	return f, nil
}

// Open returns a previously created file.
func (s *Space) Open(name string) (*File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("ssdio: open %q: no such file", name)
	}
	return f, nil
}

// Remove deletes a file's directory entry (its address range is not
// reused; the space is an arena).
func (s *Space) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("ssdio: remove %q: no such file", name)
	}
	delete(s.files, name)
	return nil
}

// ExtentSize is the granularity of a file's host image: an extent is
// allocated on its first write and released by Discard to the file's spare
// list, which later writes take from.
const ExtentSize = 64 << 10

// extent is one allocated ExtentSize slice of a file's image.
type extent = [ExtentSize]byte

// File is a fixed-base, growable byte range on the simulated SSD.
type File struct {
	space *Space
	name  string
	base  int64

	mu   sync.Mutex
	size int64 // guarded by mu
	// image holds the file's contents: entry j covers extent first+j,
	// bytes [(first+j)*ExtentSize, (first+j+1)*ExtentSize), and a nil
	// entry, or an extent outside the index, reads as zeros.
	image []*extent // guarded by mu
	first int64     // guarded by mu
	// spare holds the extents Discard released, cleared by writeImage
	// when it takes one. It has no cap: image and spare together never
	// hold more extents than the image did at its largest.
	spare []*extent // guarded by mu
	// held counts the extents the file has allocated: those in the image
	// and on the spare list, since it frees none.
	held int // guarded by mu

	// writeOrder models the per-file reader-writer lock POSIX-compliant
	// file systems use to satisfy write ordering for synchronous writes
	// (Section 2.3). Only Sync writes take it; Psync batches come from a
	// single submitter and are exempt, which is exactly why psync I/O wins
	// on a shared file in Figure 4(a).
	writeOrder vtime.Mutex

	stats Stats // guarded by mu
}

// Name returns the file's name within its Space.
func (f *File) Name() string { return f.name }

// Size returns the current file size in bytes.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// ResidentBytes returns the host memory the file's image holds: its
// allocated extents, without the spares (see SpareBytes).
func (f *File) ResidentBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, e := range f.image {
		if e != nil {
			n += ExtentSize
		}
	}
	return n
}

// SpareBytes returns the host memory the file keeps in extents Discard
// released and no write has taken back yet.
func (f *File) SpareBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.spare)) * ExtentSize
}

// Stats returns a snapshot of the file's submitter counters.
func (f *File) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// ResetStats zeroes the counters.
func (f *File) ResetStats() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = Stats{}
}

// EnsureSize grows the file to at least size bytes (contents zero-filled).
// Growth is a metadata operation: it carries no simulated I/O cost and
// allocates no image.
func (f *File) EnsureSize(size int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.size < size {
		f.size = size
	}
}

// Discard is a host-side TRIM of [off, off+n): the range reads back as
// zeros, and the extents wholly inside it move from the image to the
// file's spare list (see writeImage). It issues no
// device request, costs no simulated time, changes no stats and leaves the
// file size alone.
func (f *File) Discard(off, n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || n < 0 || off+n > f.size {
		return fmt.Errorf("%w: %s discard off=%d len=%d size=%d", ErrOutOfRange, f.name, off, n, f.size)
	}
	f.roomForSpares()
	end := off + n
	off = max(off, f.first*ExtentSize) // nothing below the index to drop
	for off < end {
		i, o := off/ExtentSize, off%ExtentSize
		k := min(end-off, ExtentSize-o)
		p := f.entry(i)
		if p == nil {
			break // nothing past the index was ever written
		}
		if e := *p; e != nil && k == ExtentSize {
			f.spare = append(f.spare, e)
			*p = nil
		} else if e != nil {
			clear(e[o : o+k])
		}
		off += k
	}
	return nil
}

// checkRange validates one request against the file size.
// Caller holds f.mu.
func (f *File) checkRange(r Req) error {
	if r.Off < 0 || r.Off+int64(len(r.Buf)) > f.size {
		return fmt.Errorf("%w: %s off=%d len=%d size=%d", ErrOutOfRange, f.name, r.Off, len(r.Buf), f.size)
	}
	if len(r.Buf) == 0 {
		return fmt.Errorf("ssdio: %s: empty buffer", f.name)
	}
	return nil
}

// apply moves bytes for one request. Caller holds f.mu.
func (f *File) apply(r Req) {
	if r.Op == flashsim.Read {
		f.readImage(r.Buf, r.Off)
	} else {
		f.writeImage(r.Buf, r.Off)
	}
}

// readImage fills buf from the image at off; holes read as zeros. Caller
// holds f.mu and has checked the range.
func (f *File) readImage(buf []byte, off int64) {
	for len(buf) > 0 {
		i, o := off/ExtentSize, off%ExtentSize
		var n int
		if p := f.entry(i); p != nil && *p != nil {
			n = copy(buf, (*p)[o:])
		} else {
			n = int(min(int64(len(buf)), ExtentSize-o))
			clear(buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
	}
}

// writeImage stores buf into the image at off. An extent's first write
// takes a spare, cleared so the rest of it reads as zeros, or allocates
// one when there is none. Caller holds f.mu and has checked the range.
func (f *File) writeImage(buf []byte, off int64) {
	for len(buf) > 0 {
		i, o := off/ExtentSize, off%ExtentSize
		p := f.slot(i)
		if *p == nil {
			*p = f.takeExtent()
		}
		n := copy((*p)[o:], buf)
		buf = buf[n:]
		off += int64(n)
	}
}

// entry returns the index entry of extent i, or nil when i lies outside
// the index. Caller holds f.mu.
func (f *File) entry(i int64) **extent {
	if j := i - f.first; j >= 0 && j < int64(len(f.image)) {
		return &f.image[j]
	}
	return nil
}

// slot returns the index entry of extent i, widening the index to cover
// it. Before the index outgrows its array it drops its leading holes, so
// a log whose head Discard keeps cutting slides along one array instead
// of growing it. Caller holds f.mu.
func (f *File) slot(i int64) **extent {
	if i-f.first >= int64(cap(f.image)) {
		k := 0
		for k < len(f.image) && f.image[k] == nil {
			k++
		}
		n := copy(f.image, f.image[k:])
		clear(f.image[n:])
		f.image = f.image[:n]
		f.first += int64(k)
	}
	if len(f.image) == 0 {
		f.first = i
	} else if i < f.first {
		f.image = append(make([]*extent, f.first-i, f.first-i+int64(len(f.image))), f.image...)
		f.first = i
	}
	if j := i - f.first; j >= int64(len(f.image)) {
		if j >= int64(cap(f.image)) {
			// Room for every extent the file holds and one more, the most
			// a log's window spans: its index grows only with its image.
			f.image = slices.Grow(f.image, int(max(j, int64(f.held))+1)-len(f.image))
		}
		f.image = append(f.image, make([]*extent, j+1-int64(len(f.image)))...)
	}
	return &f.image[i-f.first]
}

// roomForSpares lets the spare list hold every extent the file has, so
// it grows only after the image has grown past its high-water mark, and
// only in a file that releases extents. Caller holds f.mu.
func (f *File) roomForSpares() {
	f.spare = slices.Grow(f.spare, f.held-len(f.spare))
}

// takeExtent returns a zeroed extent: the last spare, or a new one.
// Caller holds f.mu.
func (f *File) takeExtent() *extent {
	n := len(f.spare)
	if n == 0 {
		f.held++
		return new(extent)
	}
	e := f.spare[n-1]
	f.spare[n-1] = nil
	f.spare = f.spare[:n-1]
	clear(e[:])
	return e
}

// stackReqs is how many requests a psync or a gang describes to the device
// from the stack, PioMax, the paper's psync bound. A larger call uses the
// Space's request array under reqMu instead, so neither allocates once
// that array has grown to the largest call.
const stackReqs = 64

// Psync submits the whole batch at virtual time at and returns the time at
// which every request has completed. This is the paper's psync I/O: one
// blocking call, outstanding level = len(reqs).
func (f *File) Psync(at vtime.Ticks, reqs []Req) (vtime.Ticks, error) {
	if len(reqs) == 0 {
		return at, nil
	}
	subAt := at
	if inj := f.space.injector(); inj != nil {
		d := f.space.watchdog(f.name, CallPsync, at, inj.Decide(f.name, CallPsync, at, reqs))
		if d.Err != nil {
			// The call blocked (and is charged) like a real submission,
			// but no contents were applied and nothing reached the device:
			// durable state is as if the machine crashed before the write.
			f.mu.Lock()
			f.stats.PsyncCalls++
			f.stats.PsyncReqs += int64(len(reqs))
			f.stats.CtxSwitches += 2
			f.stats.IOTime += d.Delay
			f.mu.Unlock()
			return at + d.Delay, d.Err
		}
		subAt += d.Delay
	}
	var small [stackReqs]flashsim.Request
	devReqs := small[:0]
	if len(reqs) > len(small) {
		s := f.space
		s.reqMu.Lock()
		defer s.reqMu.Unlock()
		s.reqs = slices.Grow(s.reqs[:0], len(reqs))
		devReqs = s.reqs
	}
	f.mu.Lock()
	for _, r := range reqs {
		if err := f.checkRange(r); err != nil {
			f.mu.Unlock()
			return at, err
		}
		devReqs = append(devReqs, flashsim.Request{Op: r.Op, Offset: f.base + r.Off, Size: len(r.Buf)})
	}
	for _, r := range reqs {
		f.apply(r)
	}
	f.stats.PsyncCalls++
	f.stats.PsyncReqs += int64(len(reqs))
	f.stats.CtxSwitches += 2
	f.mu.Unlock()

	done := f.space.dev.SubmitBatch(subAt, devReqs)

	f.mu.Lock()
	f.stats.IOTime += done - at
	f.mu.Unlock()
	return done, nil
}

// GangBatch pairs one file with the requests it contributes to a
// cross-file psync submission (see PsyncGang).
type GangBatch struct {
	F    *File
	Reqs []Req
}

// PsyncGang submits the requests of several files of one Space as a
// single psync call: one blocking submission, outstanding level equal to
// the total request count. This is the second level of the paper's
// batching — independent flush batches (e.g. one per index shard) are
// concatenated so the device sees one large request array and keeps every
// channel busy, instead of draining the batches one blocking call at a
// time. All files must belong to the same Space.
func PsyncGang(at vtime.Ticks, batches []GangBatch) (vtime.Ticks, error) {
	var total int
	var space *Space
	for _, b := range batches {
		if len(b.Reqs) == 0 {
			continue
		}
		total += len(b.Reqs)
		if space == nil {
			space = b.F.space
		} else if b.F.space != space {
			return at, fmt.Errorf("ssdio: psync gang spans spaces (%q)", b.F.name)
		}
	}
	if total == 0 {
		return at, nil
	}

	// Fault decisions come first, one per member batch, before any file
	// contents are touched: a failed batch is neither applied nor
	// submitted, leaving its file exactly as a crash before the write
	// would. The longest member delay stalls the whole blocking call.
	var skip []bool
	var faults []GangFault
	var delay vtime.Ticks
	if inj := space.injector(); inj != nil {
		skip = make([]bool, len(batches))
		for i, b := range batches {
			if len(b.Reqs) == 0 {
				continue
			}
			d := space.watchdog(b.F.name, CallGang, at, inj.Decide(b.F.name, CallGang, at, b.Reqs))
			if d.Delay > delay {
				delay = d.Delay
			}
			if d.Err != nil {
				skip[i] = true
				faults = append(faults, GangFault{Batch: i, File: b.F.name, Err: d.Err})
			}
		}
	}

	// Validate every surviving batch before touching any file contents,
	// so a bad request leaves the whole gang un-applied (all-or-nothing).
	var small [stackReqs]flashsim.Request
	devReqs := small[:0]
	if total > len(small) {
		space.reqMu.Lock()
		defer space.reqMu.Unlock()
		space.reqs = slices.Grow(space.reqs[:0], total)
		devReqs = space.reqs
	}
	landed := 0
	for i, b := range batches {
		f := b.F
		if len(b.Reqs) == 0 || (skip != nil && skip[i]) {
			continue
		}
		landed++
		f.mu.Lock()
		for _, r := range b.Reqs {
			if err := f.checkRange(r); err != nil {
				f.mu.Unlock()
				return at, err
			}
			devReqs = append(devReqs, flashsim.Request{Op: r.Op, Offset: f.base + r.Off, Size: len(r.Buf)})
		}
		f.mu.Unlock()
	}
	for i, b := range batches {
		if len(b.Reqs) == 0 || (skip != nil && skip[i]) {
			continue
		}
		b.F.mu.Lock()
		for _, r := range b.Reqs {
			b.F.apply(r)
		}
		b.F.stats.PsyncReqs += int64(len(b.Reqs))
		b.F.mu.Unlock()
	}

	done := at + delay
	if len(devReqs) > 0 {
		done = space.dev.SubmitBatch(at+delay, devReqs)
	}

	// The gang is one blocking call from one submitter; charge the
	// call-level counters to the first contributing file. Failed batches
	// contribute no request counts — they never reached the device — but
	// their delay is part of the blocked window.
	for _, b := range batches {
		if len(b.Reqs) == 0 {
			continue
		}
		b.F.mu.Lock()
		b.F.stats.PsyncCalls++
		b.F.stats.CtxSwitches += 2
		b.F.stats.IOTime += done - at
		b.F.mu.Unlock()
		break
	}
	if len(faults) > 0 {
		return done, &PartialGangError{Landed: landed, Faults: faults}
	}
	return done, nil
}

// Sync submits one blocking request at virtual time at. Synchronous writes
// serialize on the file's write-ordering lock, reproducing the POSIX
// behaviour that prevents parallel processing from exploiting internal
// parallelism on a shared file.
func (f *File) Sync(at vtime.Ticks, r Req) (vtime.Ticks, error) {
	subAt := at
	if inj := f.space.injector(); inj != nil {
		d := f.space.watchdog(f.name, CallSync, at, inj.Decide(f.name, CallSync, at, []Req{r}))
		if d.Err != nil {
			f.mu.Lock()
			f.stats.SyncCalls++
			f.stats.CtxSwitches += 2
			f.stats.IOTime += d.Delay
			f.mu.Unlock()
			return at + d.Delay, d.Err
		}
		subAt += d.Delay
	}
	f.mu.Lock()
	if err := f.checkRange(r); err != nil {
		f.mu.Unlock()
		return at, err
	}
	f.apply(r)
	f.stats.SyncCalls++
	f.stats.CtxSwitches += 2
	start := subAt
	if r.Op == flashsim.Write {
		start = f.writeOrder.Acquire(subAt)
	}
	devReq := flashsim.Request{Op: r.Op, Offset: f.base + r.Off, Size: len(r.Buf)}
	f.mu.Unlock()

	res := f.space.dev.SubmitOne(start, devReq)

	f.mu.Lock()
	if r.Op == flashsim.Write {
		f.writeOrder.Release(res.Done)
	}
	f.stats.IOTime += res.Done - at
	f.mu.Unlock()
	return res.Done, nil
}

// ReadAt copies file contents without any simulated I/O cost. It is meant
// for experiment setup, assertions and debugging, never for timed paths.
func (f *File) ReadAt(buf []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off+int64(len(buf)) > f.size {
		return fmt.Errorf("%w: %s off=%d len=%d size=%d", ErrOutOfRange, f.name, off, len(buf), f.size)
	}
	f.readImage(buf, off)
	return nil
}

// WriteAt stores file contents without any simulated I/O cost (see ReadAt).
func (f *File) WriteAt(buf []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return fmt.Errorf("%w: %s off=%d", ErrOutOfRange, f.name, off)
	}
	f.size = max(f.size, off+int64(len(buf)))
	f.writeImage(buf, off)
	return nil
}

// Snapshot returns a copy of the file contents, used by crash-recovery
// tests to capture the durable state at a simulated crash point.
func (f *File) Snapshot() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, f.size)
	f.readImage(out, 0)
	return out
}

// Restore replaces the file contents (and size) from a snapshot. The old
// image's extents go to the spare list, which the new image takes from.
func (f *File) Restore(data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.size = int64(len(data))
	f.roomForSpares()
	for _, e := range f.image {
		if e != nil {
			f.spare = append(f.spare, e)
		}
	}
	clear(f.image)
	f.image = f.image[:0]
	f.writeImage(data, 0)
}
