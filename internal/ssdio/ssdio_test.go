package ssdio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/vtime"
)

func newSpace() *Space {
	return NewSpace(flashsim.MustDevice(flashsim.P300()))
}

func TestCreateOpenRemove(t *testing.T) {
	s := newSpace()
	f, err := s.Create("a", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "a" || f.Size() != 4096 {
		t.Fatalf("name=%q size=%d", f.Name(), f.Size())
	}
	if _, err := s.Create("a", 4096); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := s.Create("b", 0); err == nil {
		t.Fatal("zero-size create accepted")
	}
	got, err := s.Open("a")
	if err != nil || got != f {
		t.Fatalf("Open: %v %v", got, err)
	}
	if _, err := s.Open("zz"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestSyncRoundTrip(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 64*1024)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	done, err := f.Sync(0, Req{Op: flashsim.Write, Off: 8192, Buf: data})
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("write cost no time")
	}
	out := make([]byte, 4096)
	done2, err := f.Sync(done, Req{Op: flashsim.Read, Off: 8192, Buf: out})
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= done {
		t.Fatal("read cost no time")
	}
	if !bytes.Equal(out, data) {
		t.Fatal("read back wrong data")
	}
}

func TestPsyncRoundTripAndFasterThanSync(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 1<<20)
	const n = 32
	// Write n pages via psync.
	reqs := make([]Req, n)
	for i := range reqs {
		buf := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		reqs[i] = Req{Op: flashsim.Write, Off: int64(i) * 4096, Buf: buf}
	}
	pDone, err := f.Psync(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Read them back via psync and verify.
	outs := make([]Req, n)
	for i := range outs {
		outs[i] = Req{Op: flashsim.Read, Off: int64(i) * 4096, Buf: make([]byte, 4096)}
	}
	rDone, err := f.Psync(pDone, outs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].Buf[0] != byte(i+1) {
			t.Fatalf("page %d wrong content %d", i, outs[i].Buf[0])
		}
	}
	psyncTime := rDone - pDone

	// Same reads one by one on a fresh space must be much slower.
	s2 := newSpace()
	f2, _ := s2.Create("f", 1<<20)
	var now vtime.Ticks
	for i := 0; i < n; i++ {
		now, err = f2.Sync(now, Req{Op: flashsim.Read, Off: int64(i) * 4096, Buf: make([]byte, 4096)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if float64(now)/float64(psyncTime) < 4 {
		t.Fatalf("psync speedup only %.1fx (psync=%v sync=%v)", float64(now)/float64(psyncTime), psyncTime, now)
	}
}

// TestSharedFileWriteOrdering reproduces Figure 4(a): synchronous writers
// to a shared file serialize on the write-ordering lock, so two simulated
// threads writing at the same virtual time cannot overlap.
func TestSharedFileWriteOrdering(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("shared", 1<<20)
	buf := make([]byte, 4096)
	// Thread A writes at t=0, thread B also at t=0.
	doneA, err := f.Sync(0, Req{Op: flashsim.Write, Off: 0, Buf: buf})
	if err != nil {
		t.Fatal(err)
	}
	doneB, err := f.Sync(0, Req{Op: flashsim.Write, Off: 8192, Buf: buf})
	if err != nil {
		t.Fatal(err)
	}
	if doneB < doneA {
		t.Fatalf("second write finished (%v) before first (%v) despite write ordering", doneB, doneA)
	}
	// On separate files the same two writes overlap.
	s2 := newSpace()
	fa, _ := s2.Create("a", 1<<20)
	fb, _ := s2.Create("b", 1<<20)
	dA, _ := fa.Sync(0, Req{Op: flashsim.Write, Off: 0, Buf: buf})
	dB, _ := fb.Sync(0, Req{Op: flashsim.Write, Off: 8192, Buf: buf})
	if dB >= dA+dA/2 {
		t.Fatalf("separate-file writes did not overlap: %v then %v", dA, dB)
	}
}

// TestReadsNotSerialized: the write-ordering lock must not affect reads.
func TestReadsNotSerialized(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 1<<20)
	buf := make([]byte, 4096)
	d1, _ := f.Sync(0, Req{Op: flashsim.Read, Off: 0, Buf: buf})
	d2, _ := f.Sync(0, Req{Op: flashsim.Read, Off: 4096 * 3, Buf: buf})
	// Both issued at t=0 on different channels: must overlap substantially.
	if d2 > d1*2 {
		t.Fatalf("reads appear serialized: %v vs %v", d1, d2)
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 1<<20)
	buf := make([]byte, 4096)
	var now vtime.Ticks
	for i := 0; i < 10; i++ {
		now, _ = f.Sync(now, Req{Op: flashsim.Read, Off: int64(i) * 4096, Buf: buf})
	}
	reqs := make([]Req, 10)
	for i := range reqs {
		reqs[i] = Req{Op: flashsim.Read, Off: int64(i) * 4096, Buf: make([]byte, 4096)}
	}
	now, _ = f.Psync(now, reqs)
	st := f.Stats()
	// 10 sync calls x2 + 1 psync call x2 = 22.
	if st.CtxSwitches != 22 {
		t.Fatalf("CtxSwitches = %d, want 22", st.CtxSwitches)
	}
	if st.SyncCalls != 10 || st.PsyncCalls != 1 || st.PsyncReqs != 10 {
		t.Fatalf("stats = %+v", st)
	}
	f.ResetStats()
	if f.Stats().CtxSwitches != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestRangeErrors(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 8192)
	buf := make([]byte, 4096)
	if _, err := f.Sync(0, Req{Op: flashsim.Read, Off: 8192, Buf: buf}); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := f.Sync(0, Req{Op: flashsim.Read, Off: -1, Buf: buf}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := f.Sync(0, Req{Op: flashsim.Read, Off: 0, Buf: nil}); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, err := f.Psync(0, []Req{{Op: flashsim.Read, Off: 8192, Buf: buf}}); err == nil {
		t.Fatal("psync out-of-range accepted")
	}
	if err := f.ReadAt(buf, 8000); err == nil {
		t.Fatal("ReadAt out of range accepted")
	}
}

// TestEnsureSizeAndWriteAtGrow also checks that only writes hold host
// memory: creating, growing and reading a file allocate no extent.
func TestEnsureSizeAndWriteAtGrow(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 4096)
	f.EnsureSize(1 << 30)
	if f.Size() != 1<<30 {
		t.Fatalf("size = %d", f.Size())
	}
	f.EnsureSize(100) // shrink is a no-op
	if f.Size() != 1<<30 {
		t.Fatal("EnsureSize shrank the file")
	}
	if _, err := f.Sync(0, Req{Op: flashsim.Read, Off: 1 << 29, Buf: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if got := f.ResidentBytes(); got != 0 {
		t.Fatalf("create, grow and read hold %d bytes of image", got)
	}
	if err := f.WriteAt([]byte{1, 2, 3}, 1<<30+20000); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1<<30+20003 {
		t.Fatalf("WriteAt did not grow: %d", f.Size())
	}
	if got := f.ResidentBytes(); got != ExtentSize {
		t.Fatalf("one small write holds %d bytes of image, want one extent", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 4096)
	if err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	if err := f.WriteAt([]byte("world"), 0); err != nil {
		t.Fatal(err)
	}
	f.Restore(snap)
	out := make([]byte, 5)
	if err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello" {
		t.Fatalf("restored %q", out)
	}
}

func TestPsyncEmptyBatch(t *testing.T) {
	s := newSpace()
	f, _ := s.Create("f", 4096)
	done, err := f.Psync(55, nil)
	if err != nil || done != 55 {
		t.Fatalf("empty psync: %v %v", done, err)
	}
}

// TestLargeGangHammerRace: two goroutines issue gangs of more than 64
// requests on one Space, each writing its own pattern and reading it back,
// while a third discards and rewrites whole extents of a member file. The
// large gangs share the Space's request array and the discards feed the
// member's spare list, so the race detector watches both; every read
// sees its own writer's bytes, and the device serves every request.
func TestLargeGangHammerRace(t *testing.T) {
	const rounds, perFile, size = 60, 45, 512
	s := newSpace()
	files := make([]*File, 3)
	for i := range files {
		files[i], _ = s.Create(fmt.Sprintf("f%d", i), 4*ExtentSize)
	}
	shared := files[2]
	// gang writes perFile requests to each of own and shared (its region
	// of shared starts at base), then reads them all back in a second gang.
	gang := func(own *File, base int64, seed byte) error {
		var at vtime.Ticks
		for r := 0; r < rounds; r++ {
			var w, rd [2][]Req
			for j := 0; j < perFile; j++ {
				for k, off := range [2]int64{int64(j) * size, base + int64(j)*size} {
					buf := make([]byte, size)
					pattern(buf, seed+byte(r+j+k))
					w[k] = append(w[k], Req{Op: flashsim.Write, Off: off, Buf: buf})
					rd[k] = append(rd[k], Req{Op: flashsim.Read, Off: off, Buf: make([]byte, size)})
				}
			}
			var err error
			if at, err = PsyncGang(at, []GangBatch{{F: own, Reqs: w[0]}, {F: shared, Reqs: w[1]}}); err != nil {
				return err
			}
			if at, err = PsyncGang(at, []GangBatch{{F: own, Reqs: rd[0]}, {F: shared, Reqs: rd[1]}}); err != nil {
				return err
			}
			for k := range rd {
				for j := range rd[k] {
					if !bytes.Equal(rd[k][j].Buf, w[k][j].Buf) {
						return fmt.Errorf("round %d: request %d of batch %d read back wrong", r, j, k)
					}
				}
			}
		}
		return nil
	}
	// churn owns shared's last two extents: it writes them, checks them,
	// discards them whole and checks they read as zeros.
	churn := func() error {
		base := int64(2 * ExtentSize)
		data, got := make([]byte, 2*ExtentSize), make([]byte, 2*ExtentSize)
		for r := 0; r < rounds; r++ {
			pattern(data, byte(r))
			if err := shared.WriteAt(data, base); err != nil {
				return err
			}
			if err := shared.ReadAt(got, base); err != nil || !bytes.Equal(got, data) {
				return fmt.Errorf("round %d: churned extents read back wrong (%v)", r, err)
			}
			if err := shared.Discard(base, 2*ExtentSize); err != nil {
				return err
			}
			if err := shared.ReadAt(got, base); err != nil || !bytes.Equal(got, make([]byte, len(got))) {
				return fmt.Errorf("round %d: discarded extents do not read as zeros (%v)", r, err)
			}
		}
		return nil
	}
	errs := make(chan error, 3)
	go func() { errs <- gang(files[0], 0, 1) }()
	go func() { errs <- gang(files[1], ExtentSize, 101) }()
	go func() { errs <- churn() }()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.dev.Stats().TotalOps(), int64(2*rounds*2*2*perFile); got != want {
		t.Fatalf("device served %d requests, want %d", got, want)
	}
	if st := s.dev.Stats(); st.MaxBatch != 2*perFile {
		t.Fatalf("largest batch %d requests, want %d", st.MaxBatch, 2*perFile)
	}
}
