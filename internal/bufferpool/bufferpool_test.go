package bufferpool

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

func newPoolT(t *testing.T, capacity int, policy Policy) (*Pool, *pagefile.PageFile) {
	t.Helper()
	p, pf, _ := newPoolSpaceT(t, capacity, policy)
	return p, pf
}

// newPoolSpaceT also returns the ssdio space, for tests that install a
// fault injector under the pool.
func newPoolSpaceT(t *testing.T, capacity int, policy Policy) (*Pool, *pagefile.PageFile, *ssdio.Space) {
	t.Helper()
	space := ssdio.NewSpace(flashsim.MustDevice(flashsim.F120()))
	f, err := space.Create("bp", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pagefile.New(f, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(pf, capacity, policy)
	if err != nil {
		t.Fatal(err)
	}
	return p, pf, space
}

func fillPage(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }

func TestNewValidation(t *testing.T) {
	_, pf := newPoolT(t, 1, WriteBack)
	if _, err := New(pf, 0, WriteBack); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestHitAvoidsIO(t *testing.T) {
	p, pf := newPoolT(t, 4, WriteBack)
	id := pf.Alloc()
	if err := pf.WritePageNoCost(id, fillPage(5)); err != nil {
		t.Fatal(err)
	}
	_, at1, err := p.Get(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if at1 == 0 {
		t.Fatal("miss cost no time")
	}
	data, at2, err := p.Get(at1, id)
	if err != nil {
		t.Fatal(err)
	}
	if at2 != at1 {
		t.Fatal("hit cost time")
	}
	if data[0] != 5 {
		t.Fatal("wrong content")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %f", s.HitRatio())
	}
}

func TestLRUEviction(t *testing.T) {
	p, pf := newPoolT(t, 2, WriteBack)
	ids := []pagefile.PageID{pf.Alloc(), pf.Alloc(), pf.Alloc()}
	var at vtime.Ticks
	var err error
	for _, id := range ids {
		if _, at, err = p.Get(at, id); err != nil {
			t.Fatal(err)
		}
	}
	// ids[0] is the LRU victim; ids[1], ids[2] remain.
	if p.Contains(ids[0]) {
		t.Fatal("LRU victim still cached")
	}
	if !p.Contains(ids[1]) || !p.Contains(ids[2]) {
		t.Fatal("recently used pages evicted")
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	p, pf := newPoolT(t, 1, WriteBack)
	a, b := pf.Alloc(), pf.Alloc()
	at, err := p.Put(0, a, fillPage(1))
	if err != nil {
		t.Fatal(err)
	}
	writesBefore := pf.File().Stats().SyncCalls
	// Loading b evicts dirty a -> one device write then one read.
	if _, at, err = p.Get(at, b); err != nil {
		t.Fatal(err)
	}
	writesAfter := pf.File().Stats().SyncCalls
	if writesAfter-writesBefore != 2 {
		t.Fatalf("expected write-back + read = 2 device ops, got %d", writesAfter-writesBefore)
	}
	// Durable content of a must be the dirty data.
	out := make([]byte, 4096)
	if err := pf.ReadPageNoCost(a, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatal("dirty page lost on eviction")
	}
	_ = at
}

func TestWriteThroughNeverDirty(t *testing.T) {
	p, pf := newPoolT(t, 2, WriteThrough)
	id := pf.Alloc()
	if _, err := p.Put(0, id, fillPage(9)); err != nil {
		t.Fatal(err)
	}
	if p.DirtyCount() != 0 {
		t.Fatal("write-through left dirty frame")
	}
	out := make([]byte, 4096)
	if err := pf.ReadPageNoCost(id, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 9 {
		t.Fatal("write-through did not reach device")
	}
}

func TestFlushWritesAllDirty(t *testing.T) {
	p, pf := newPoolT(t, 4, WriteBack)
	ids := []pagefile.PageID{pf.Alloc(), pf.Alloc(), pf.Alloc()}
	var at vtime.Ticks
	var err error
	for i, id := range ids {
		if at, err = p.Put(at, id, fillPage(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if p.DirtyCount() != 3 {
		t.Fatalf("dirty = %d", p.DirtyCount())
	}
	if at, err = p.Flush(at); err != nil {
		t.Fatal(err)
	}
	if p.DirtyCount() != 0 {
		t.Fatal("flush left dirty frames")
	}
	for i, id := range ids {
		out := make([]byte, 4096)
		if err := pf.ReadPageNoCost(id, out); err != nil {
			t.Fatal(err)
		}
		if out[0] != byte(i+1) {
			t.Fatalf("page %d content %d", i, out[0])
		}
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p, pf := newPoolT(t, 1, WriteBack)
	a, b := pf.Alloc(), pf.Alloc()
	if _, _, err := p.Get(0, a); err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Get(0, b); err == nil {
		t.Fatal("eviction of pinned page succeeded")
	}
	if err := p.Unpin(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Get(0, b); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(a); err == nil {
		t.Fatal("unpin of evicted/unpinned page succeeded")
	}
	if err := p.Pin(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(b); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCleanAndInvalidate(t *testing.T) {
	p, pf := newPoolT(t, 2, WriteThrough)
	id := pf.Alloc()
	p.InsertClean(id, fillPage(3))
	if !p.Contains(id) {
		t.Fatal("InsertClean did not cache")
	}
	st := pf.File().Stats()
	if st.SyncCalls != 0 {
		t.Fatal("InsertClean hit the device")
	}
	data, at, err := p.Get(0, id)
	if err != nil || at != 0 || data[0] != 3 {
		t.Fatalf("get after insert: %v %v %v", data[0], at, err)
	}
	p.Invalidate(id)
	if p.Contains(id) {
		t.Fatal("Invalidate left page cached")
	}
	// InsertClean with wrong size is ignored.
	p.InsertClean(id, []byte{1})
	if p.Contains(id) {
		t.Fatal("wrong-size InsertClean cached")
	}
}

func TestInsertCleanEvictsCleanOnly(t *testing.T) {
	p, pf := newPoolT(t, 1, WriteBack)
	a, b := pf.Alloc(), pf.Alloc()
	if _, err := p.Put(0, a, fillPage(1)); err != nil { // dirty
		t.Fatal(err)
	}
	p.InsertClean(b, fillPage(2))
	// The only frame is dirty: InsertClean must refuse to evict it.
	if p.Contains(b) {
		t.Fatal("InsertClean evicted a dirty frame")
	}
	if !p.Contains(a) {
		t.Fatal("dirty frame vanished")
	}
}

func TestResize(t *testing.T) {
	p, pf := newPoolT(t, 4, WriteBack)
	var at vtime.Ticks
	var err error
	ids := make([]pagefile.PageID, 4)
	for i := range ids {
		ids[i] = pf.Alloc()
		if at, err = p.Put(at, ids[i], fillPage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = p.Resize(at, 2); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len after resize = %d", p.Len())
	}
	if _, err = p.Resize(at, 0); err == nil {
		t.Fatal("resize to 0 accepted")
	}
}

// failOp is an ssdio.Injector failing every request of one direction.
type failOp struct{ op flashsim.Op }

var errInjected = errors.New("injected device fault")

func (f failOp) Decide(_, _ string, _ vtime.Ticks, reqs []ssdio.Req) ssdio.FaultDecision {
	if reqs[0].Op == f.op {
		return ssdio.FaultDecision{Err: errInjected}
	}
	return ssdio.FaultDecision{}
}

// TestFailedFillLeavesNoFrame covers the miss path that refills the
// evicted victim's frame in place: a fill that fails must not leave the
// half-filled frame resident under either page id, a pinned frame must
// never be the one refilled, and a dirty victim is written back before its
// buffer is reused.
func TestFailedFillLeavesNoFrame(t *testing.T) {
	p, pf, space := newPoolSpaceT(t, 2, WriteBack)
	a, b, c := pf.Alloc(), pf.Alloc(), pf.Alloc()
	for id, fill := range map[pagefile.PageID]byte{a: 0xA, b: 0xB, c: 0xC} {
		if err := pf.WritePageNoCost(id, fillPage(fill)); err != nil {
			t.Fatal(err)
		}
	}
	// a is the least recently used frame but pinned, so b is the victim.
	pinned, at, err := p.Get(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(a); err != nil {
		t.Fatal(err)
	}
	if at, err = p.Put(at, b, fillPage(0xBB)); err != nil { // dirty
		t.Fatal(err)
	}

	// The victim's write-back fails: nothing may change.
	space.SetInjector(failOp{flashsim.Write})
	if _, at, err = p.Get(at, c); !errors.Is(err, errInjected) {
		t.Fatalf("Get with failing write-back: err = %v", err)
	}
	if !p.Contains(b) || p.Contains(c) || p.DirtyCount() != 1 || p.Len() != 2 {
		t.Fatalf("failed write-back disturbed the pool: b=%v c=%v dirty=%d len=%d",
			p.Contains(b), p.Contains(c), p.DirtyCount(), p.Len())
	}

	// The write-back succeeds, the fill fails: b is evicted (and durable),
	// c is not resident, and the frame is gone rather than half-filled.
	space.SetInjector(failOp{flashsim.Read})
	if _, at, err = p.Get(at, c); !errors.Is(err, errInjected) {
		t.Fatalf("Get with failing fill: err = %v", err)
	}
	if p.Contains(b) || p.Contains(c) || !p.Contains(a) || p.Len() != 1 {
		t.Fatalf("after failed fill: a=%v b=%v c=%v len=%d, want only a resident",
			p.Contains(a), p.Contains(b), p.Contains(c), p.Len())
	}
	if s := p.Stats(); s.DirtyWrites != 1 || s.Evictions != 1 || s.Misses != 3 {
		t.Fatalf("stats after failed fill: %+v", s)
	}

	space.SetInjector(nil)
	for _, want := range []struct {
		id   pagefile.PageID
		fill byte
	}{{c, 0xC}, {b, 0xBB}, {c, 0xC}} {
		var data []byte
		if data, at, err = p.Get(at, want.id); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, fillPage(want.fill)) {
			t.Fatalf("page %d reads %#x.., want %#x", want.id, data[0], want.fill)
		}
		if p.Len() > p.Capacity() {
			t.Fatalf("Len %d > capacity %d", p.Len(), p.Capacity())
		}
		// Every miss above recycled a frame; none of them was the pinned one.
		if !p.Contains(a) || !bytes.Equal(pinned, fillPage(0xA)) {
			t.Fatal("pinned frame was evicted or overwritten")
		}
	}
}
