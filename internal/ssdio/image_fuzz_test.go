package ssdio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/vtime"
)

// The image differential. FuzzFileImage decodes its input as a program of
// fixed-size instructions and runs it on two files, each on its own
// device: one executes every Discard, the other skips them. Each file is
// checked against a flat []byte model (the image the extents replaced),
// and the two are checked against each other, since a Discard must move
// no returned vtime, no device counter and no file counter. The extents a
// Discard releases are reused by later writes (and by Restore), so the
// model check also catches a recycled extent that keeps stale bytes, and
// each side checks that its image and spares together never hold more
// than the image did at its largest.

// Instruction layout: opcode, offset/5 (uint16), two length bytes, fill.
const insnSize = 6

// Opcodes, taken modulo numInsns.
const (
	insnSyncWrite = iota
	insnSyncRead
	insnPsync
	insnGang
	insnReadAt
	insnWriteAt
	insnEnsureSize
	insnDiscard
	insnSnapshot
	insnRestore
	numInsns
)

// imageInitSize spans three whole extents and a sliver of a fourth, so
// offsets past it exercise growth and range errors.
const imageInitSize = 3*ExtentSize + 100

// imageSide is one file under test with its flat model.
type imageSide struct {
	dev   *flashsim.Device
	f     *File
	model []byte
	saved []byte // the last Snapshot, for Restore
	// highWater is the most ResidentBytes the file has reported.
	highWater int64
}

func newImageSide(t *testing.T) *imageSide {
	t.Helper()
	dev := flashsim.MustDevice(flashsim.P300())
	f, err := NewSpace(dev).Create("img", imageInitSize)
	if err != nil {
		t.Fatal(err)
	}
	return &imageSide{dev: dev, f: f, model: make([]byte, imageInitSize)}
}

func (s *imageSide) inRange(off, n int64) bool { return off >= 0 && off+n <= int64(len(s.model)) }

// grow extends the model to size bytes, zero-filled.
func (s *imageSide) grow(size int64) {
	if size > int64(len(s.model)) {
		s.model = append(s.model, make([]byte, size-int64(len(s.model)))...)
	}
}

// settle checks a timed submission's outcome against the model: the
// call fails exactly when a request is out of range, and otherwise its
// requests take effect in order.
func (s *imageSide) settle(t *testing.T, reqs []Req, err error) {
	t.Helper()
	valid := true
	for _, r := range reqs {
		valid = valid && s.inRange(r.Off, int64(len(r.Buf)))
	}
	if valid != (err == nil) {
		t.Fatalf("submission of %d requests: in range %v, err %v", len(reqs), valid, err)
	}
	if !valid {
		return
	}
	for i, r := range reqs {
		want := s.model[r.Off : r.Off+int64(len(r.Buf))]
		if r.Op == flashsim.Write {
			copy(want, r.Buf)
		} else if !bytes.Equal(r.Buf, want) {
			t.Fatalf("request %d reads [%d, +%d) wrong", i, r.Off, len(r.Buf))
		}
	}
}

// requests builds an instruction's timed requests: one for a Sync, up to
// four for a Psync or gang, the later ones spaced past the first.
func requests(op int, off int64, n int, fill byte) []Req {
	k := 1
	if op == insnPsync || op == insnGang {
		k += int(fill % 4)
	}
	reqs := make([]Req, k)
	for j := range reqs {
		r := Req{Op: flashsim.Read, Off: off + int64(j)*int64(n+int(fill)), Buf: make([]byte, n)}
		if op == insnSyncWrite || (op != insnSyncRead && fill>>(j+2)&1 == 1) {
			r.Op = flashsim.Write
		}
		pattern(r.Buf, fill+byte(j)) // a read must overwrite it, zeros included
		reqs[j] = r
	}
	return reqs
}

// pattern fills b with bytes that are mostly nonzero, so data is told
// apart from a hole.
func pattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7) + 1
	}
}

// step runs one instruction on s, with Discards skipped unless discard is
// set, and returns the vtime a timed call returned (at otherwise).
func (s *imageSide) step(t *testing.T, at vtime.Ticks, insn []byte, discard bool) vtime.Ticks {
	t.Helper()
	op := int(insn[0] % numInsns)
	off := int64(binary.LittleEndian.Uint16(insn[1:])) * 5
	n := 1 + int(insn[3])*37 + int(insn[4]%37)
	fill := insn[5]
	done := at
	var err error
	switch op {
	case insnSyncWrite, insnSyncRead:
		reqs := requests(op, off, n, fill)
		done, err = s.f.Sync(at, reqs[0])
		s.settle(t, reqs, err)
	case insnPsync:
		reqs := requests(op, off, n, fill)
		done, err = s.f.Psync(at, reqs)
		s.settle(t, reqs, err)
	case insnGang:
		reqs := requests(op, off, n, fill)
		done, err = PsyncGang(at, []GangBatch{{F: s.f, Reqs: reqs[:1]}, {F: s.f, Reqs: reqs[1:]}})
		s.settle(t, reqs, err)
	case insnReadAt:
		buf := make([]byte, n)
		pattern(buf, fill)
		err = s.f.ReadAt(buf, off)
		if s.inRange(off, int64(n)) != (err == nil) {
			t.Fatalf("ReadAt [%d, +%d) of %d bytes: err %v", off, n, len(s.model), err)
		}
		if err == nil && !bytes.Equal(buf, s.model[off:off+int64(n)]) {
			t.Fatalf("ReadAt [%d, +%d) wrong", off, n)
		}
	case insnWriteAt:
		buf := make([]byte, n)
		pattern(buf, fill)
		if err = s.f.WriteAt(buf, off); err != nil {
			t.Fatalf("WriteAt [%d, +%d): %v", off, n, err)
		}
		s.grow(off + int64(n))
		copy(s.model[off:], buf)
	case insnEnsureSize:
		s.f.EnsureSize(off + int64(n))
		s.grow(off + int64(n))
	case insnDiscard:
		if !discard {
			break
		}
		dn := int64(n) * 64 // long enough to cover whole extents
		err = s.f.Discard(off, dn)
		if s.inRange(off, dn) != (err == nil) {
			t.Fatalf("Discard [%d, +%d) of %d bytes: err %v", off, dn, len(s.model), err)
		}
		if err == nil {
			clear(s.model[off : off+dn])
		}
	case insnSnapshot:
		s.saved = s.f.Snapshot()
		if !bytes.Equal(s.saved, s.model) {
			t.Fatal("Snapshot differs from the model")
		}
	case insnRestore:
		if s.saved != nil {
			s.f.Restore(s.saved)
			s.model = append(s.model[:0], s.saved...)
		}
	}
	if got := s.f.Size(); got != int64(len(s.model)) {
		t.Fatalf("size %d, model %d", got, len(s.model))
	}
	res, spare := s.f.ResidentBytes(), s.f.SpareBytes()
	s.highWater = max(s.highWater, res)
	if res+spare > s.highWater {
		t.Fatalf("opcode %d leaves %d image and %d spare bytes, past the high-water image of %d", op, res, spare, s.highWater)
	}
	return done
}

func FuzzFileImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		trimmed, kept := newImageSide(t), newImageSide(t)
		var at vtime.Ticks
		for ; len(prog) >= insnSize; prog = prog[insnSize:] {
			insn := prog[:insnSize]
			done := trimmed.step(t, at, insn, true)
			if d := kept.step(t, at, insn, false); d != done {
				t.Fatalf("opcode %d returned vtime %d with discards, %d without", insn[0]%numInsns, done, d)
			}
			at = done
		}
		if !bytes.Equal(trimmed.f.Snapshot(), trimmed.model) || !bytes.Equal(kept.f.Snapshot(), kept.model) {
			t.Fatal("final image differs from the model")
		}
		if a, b := trimmed.dev.Stats(), kept.dev.Stats(); a != b {
			t.Fatalf("device stats with discards %+v, without %+v", a, b)
		}
		if a, b := trimmed.f.Stats(), kept.f.Stats(); a != b {
			t.Fatalf("file stats with discards %+v, without %+v", a, b)
		}
	})
}
