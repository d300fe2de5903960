// Package pagefile provides page-granular storage on an ssdio file: page
// allocation, single-page and batched (psync) multi-page reads and writes.
// Every index structure in this repository (B+-tree, PIO B-tree, BFTL,
// FD-tree, B-link tree) stores its nodes through this layer.
//
// This package is an I/O plane: piolint's ioerr analyzer treats every
// error-returning function here as an error source and fails CI if a
// caller — at any depth of wrapping — drops the error instead of
// propagating it to a return, a panic, or a crash sink. A future
// real-hardware backend surfaces pwritev2/io_uring failures through
// exactly these results, so a swallowed error here would silently void
// the durability contract.
package pagefile

import (
	"fmt"

	"repro/internal/flashsim"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// PageID identifies one page within a PageFile. Zero is a valid page;
// InvalidPage marks "no page".
type PageID int64

// InvalidPage is the nil page id.
const InvalidPage PageID = -1

// PageFile is a growable array of fixed-size pages on a simulated SSD
// file. It is not safe for concurrent use; the simulated-thread scheduler
// serializes access in concurrency experiments.
type PageFile struct {
	f        *ssdio.File
	pageSize int
	next     PageID
	free     []PageID
	reqs     []ssdio.Req // the requests of the psync call being made
}

// New creates a page file with the given page size on f. The page size
// must be a positive multiple of the device flash page size or divide it
// evenly (powers of two in practice).
func New(f *ssdio.File, pageSize int) (*PageFile, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("pagefile: page size must be a positive power of two, got %d", pageSize)
	}
	return &PageFile{f: f, pageSize: pageSize}, nil
}

// PageSize returns the page size in bytes.
func (p *PageFile) PageSize() int { return p.pageSize }

// File exposes the underlying ssdio file (for stats and snapshots).
func (p *PageFile) File() *ssdio.File { return p.f }

// NumPages returns the number of pages ever allocated (including freed).
func (p *PageFile) NumPages() int64 { return int64(p.next) }

// Alloc returns a fresh (or recycled) page id. Allocation itself is a
// metadata operation with no simulated I/O cost; the first write pays.
func (p *PageFile) Alloc() PageID {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	id := p.next
	p.next++
	p.f.EnsureSize(int64(p.next) * int64(p.pageSize))
	return id
}

// AllocRun allocates n consecutive page ids (used by FD-tree sorted runs
// and bulk loaders that want sequential layout).
func (p *PageFile) AllocRun(n int) PageID {
	if n <= 0 {
		panic(fmt.Sprintf("pagefile: AllocRun(%d)", n))
	}
	id := p.next
	p.next += PageID(n)
	p.f.EnsureSize(int64(p.next) * int64(p.pageSize))
	return id
}

// Free recycles a page id.
func (p *PageFile) Free(id PageID) {
	p.free = append(p.free, id)
}

// check validates an id and returns its byte offset.
func (p *PageFile) check(id PageID) (int64, error) {
	if id < 0 || id >= p.next {
		return 0, fmt.Errorf("pagefile: page %d out of range [0,%d)", id, p.next)
	}
	return int64(id) * int64(p.pageSize), nil
}

// ReadPage synchronously reads one page at virtual time at into buf
// (len(buf) must equal the page size) and returns the completion time.
func (p *PageFile) ReadPage(at vtime.Ticks, id PageID, buf []byte) (vtime.Ticks, error) {
	off, err := p.check(id)
	if err != nil {
		return at, err
	}
	if len(buf) != p.pageSize {
		return at, fmt.Errorf("pagefile: read buffer %d bytes, want %d", len(buf), p.pageSize)
	}
	return p.f.Sync(at, ssdio.Req{Op: flashsim.Read, Off: off, Buf: buf})
}

// WritePage synchronously writes one page.
func (p *PageFile) WritePage(at vtime.Ticks, id PageID, buf []byte) (vtime.Ticks, error) {
	off, err := p.check(id)
	if err != nil {
		return at, err
	}
	if len(buf) != p.pageSize {
		return at, fmt.Errorf("pagefile: write buffer %d bytes, want %d", len(buf), p.pageSize)
	}
	return p.f.Sync(at, ssdio.Req{Op: flashsim.Write, Off: off, Buf: buf})
}

// ReadRun synchronously reads n consecutive pages starting at id as one
// large request (sequential I/O with package-level parallelism), filling
// buf of n*pageSize bytes.
func (p *PageFile) ReadRun(at vtime.Ticks, id PageID, n int, buf []byte) (vtime.Ticks, error) {
	off, err := p.check(id)
	if err != nil {
		return at, err
	}
	if _, err := p.check(id + PageID(n) - 1); err != nil {
		return at, err
	}
	if len(buf) != n*p.pageSize {
		return at, fmt.Errorf("pagefile: run buffer %d bytes, want %d", len(buf), n*p.pageSize)
	}
	return p.f.Sync(at, ssdio.Req{Op: flashsim.Read, Off: off, Buf: buf})
}

// WriteRun synchronously writes n consecutive pages as one large request.
func (p *PageFile) WriteRun(at vtime.Ticks, id PageID, n int, buf []byte) (vtime.Ticks, error) {
	off, err := p.check(id)
	if err != nil {
		return at, err
	}
	if _, err := p.check(id + PageID(n) - 1); err != nil {
		return at, err
	}
	if len(buf) != n*p.pageSize {
		return at, fmt.Errorf("pagefile: run buffer %d bytes, want %d", len(buf), n*p.pageSize)
	}
	return p.f.Sync(at, ssdio.Req{Op: flashsim.Write, Off: off, Buf: buf})
}

// PsyncRead reads the given pages in one psync call; bufs[i] receives page
// ids[i]. This is the read half of the paper's MPSearch descent.
func (p *PageFile) PsyncRead(at vtime.Ticks, ids []PageID, bufs [][]byte) (vtime.Ticks, error) {
	return p.psync(at, flashsim.Read, ids, bufs)
}

// PsyncWrite writes the given pages in one psync call; the write half of
// the paper's batch update.
func (p *PageFile) PsyncWrite(at vtime.Ticks, ids []PageID, bufs [][]byte) (vtime.Ticks, error) {
	return p.psync(at, flashsim.Write, ids, bufs)
}

func (p *PageFile) psync(at vtime.Ticks, op flashsim.Op, ids []PageID, bufs [][]byte) (vtime.Ticks, error) {
	if len(ids) != len(bufs) {
		return at, fmt.Errorf("pagefile: %d ids but %d buffers", len(ids), len(bufs))
	}
	if len(ids) == 0 {
		return at, nil
	}
	reqs := p.reqs[:0]
	for i, id := range ids {
		off, err := p.check(id)
		if err != nil {
			return at, err
		}
		if len(bufs[i]) != p.pageSize {
			return at, fmt.Errorf("pagefile: buffer %d is %d bytes, want %d", i, len(bufs[i]), p.pageSize)
		}
		reqs = append(reqs, ssdio.Req{Op: op, Off: off, Buf: bufs[i]})
	}
	return p.submit(at, reqs)
}

// RunReq is one request of a psync batch covering N consecutive pages
// starting at First. A PIO B-tree leaf read/write is a single RunReq, so
// a batch of RunReqs exercises channel-level parallelism (many requests)
// and package-level parallelism (multi-page requests) simultaneously.
type RunReq struct {
	First PageID
	N     int
	Buf   []byte // N*pageSize bytes
	Write bool
}

// PsyncRuns submits a batch of run requests as one psync call.
func (p *PageFile) PsyncRuns(at vtime.Ticks, runs []RunReq) (vtime.Ticks, error) {
	if len(runs) == 0 {
		return at, nil
	}
	reqs, err := p.appendRuns(p.reqs[:0], runs)
	if err != nil {
		return at, err
	}
	return p.submit(at, reqs)
}

// submit issues reqs, built in p.reqs, as one psync call. Afterwards the
// scratch lets go of the callers' buffers.
func (p *PageFile) submit(at vtime.Ticks, reqs []ssdio.Req) (vtime.Ticks, error) {
	p.reqs = reqs
	at, err := p.f.Psync(at, reqs)
	clear(reqs)
	return at, err
}

// GatherRuns validates a batch of run requests and appends their ssdio
// requests to reqs without submitting, so a coordinator can concatenate
// the batches of several page files into one cross-file psync submission
// (ssdio.PsyncGang). The data is neither read nor written until the gang
// is submitted.
func (p *PageFile) GatherRuns(reqs []ssdio.Req, runs []RunReq) ([]ssdio.Req, error) {
	return p.appendRuns(reqs, runs)
}

// appendRuns appends the ssdio requests of a batch of run requests to reqs.
func (p *PageFile) appendRuns(reqs []ssdio.Req, runs []RunReq) ([]ssdio.Req, error) {
	for i, r := range runs {
		if r.N <= 0 {
			return nil, fmt.Errorf("pagefile: run %d has %d pages", i, r.N)
		}
		off, err := p.check(r.First)
		if err != nil {
			return nil, err
		}
		if _, err := p.check(r.First + PageID(r.N) - 1); err != nil {
			return nil, err
		}
		if len(r.Buf) != r.N*p.pageSize {
			return nil, fmt.Errorf("pagefile: run %d buffer %d bytes, want %d", i, len(r.Buf), r.N*p.pageSize)
		}
		op := flashsim.Read
		if r.Write {
			op = flashsim.Write
		}
		reqs = append(reqs, ssdio.Req{Op: op, Off: off, Buf: r.Buf})
	}
	return reqs, nil
}

// ReadPageNoCost fetches page contents without simulated time, for
// verification and recovery inspection.
func (p *PageFile) ReadPageNoCost(id PageID, buf []byte) error {
	off, err := p.check(id)
	if err != nil {
		return err
	}
	return p.f.ReadAt(buf, off)
}

// WritePageNoCost stores page contents without simulated time, for bulk
// loading during experiment setup.
func (p *PageFile) WritePageNoCost(id PageID, buf []byte) error {
	off, err := p.check(id)
	if err != nil {
		return err
	}
	return p.f.WriteAt(buf, off)
}
