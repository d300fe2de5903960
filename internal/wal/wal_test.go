package wal

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/flashsim"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

func newLog(t *testing.T) *Log {
	t.Helper()
	dev := flashsim.MustDevice(flashsim.P300())
	f, err := ssdio.NewSpace(dev).Create("wal", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(f, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindLogicalRedo, KindFlushStart, KindFlushEnd, KindFlushUndo, KindCommit, KindCheckpoint, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}

func TestAppendForceRead(t *testing.T) {
	l := newLog(t)
	lsn1 := l.Append(Record{Kind: KindLogicalRedo, TxID: 1, Relation: 2, Op: OpInsert, Key: 10, Value: 100})
	lsn2 := l.Append(Record{Kind: KindFlushStart, FlushID: 7, KeyLo: 1, KeyHi: 50})
	if lsn2 != lsn1+1 {
		t.Fatalf("LSNs not sequential: %d %d", lsn1, lsn2)
	}
	if l.DurableLSN() != 0 {
		t.Fatal("records durable before Force")
	}
	done, err := l.Force(0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("force cost no time")
	}
	if l.DurableLSN() != lsn2 {
		t.Fatalf("durable LSN %d, want %d", l.DurableLSN(), lsn2)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records", len(recs))
	}
	r := recs[0]
	if r.Kind != KindLogicalRedo || r.TxID != 1 || r.Relation != 2 || r.Op != OpInsert || r.Key != 10 || r.Value != 100 {
		t.Fatalf("record mismatch: %+v", r)
	}
	if recs[1].FlushID != 7 || recs[1].KeyLo != 1 || recs[1].KeyHi != 50 {
		t.Fatalf("record mismatch: %+v", recs[1])
	}
}

func TestForceEmptyTailFree(t *testing.T) {
	l := newLog(t)
	done, err := l.Force(42)
	if err != nil || done != 42 {
		t.Fatalf("empty force: %v %v", done, err)
	}
}

func TestCrashDropsTail(t *testing.T) {
	l := newLog(t)
	l.Append(Record{Kind: KindLogicalRedo, Key: 1})
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindLogicalRedo, Key: 2})
	l.Crash()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != 1 {
		t.Fatalf("after crash: %+v", recs)
	}
	// LSNs continue from the durable point.
	lsn := l.Append(Record{Kind: KindLogicalRedo, Key: 3})
	if lsn != 2 {
		t.Fatalf("post-crash LSN %d, want 2", lsn)
	}
}

func TestUndoInfoRoundTrip(t *testing.T) {
	l := newLog(t)
	undo := make([]byte, 1024)
	for i := range undo {
		undo[i] = byte(i)
	}
	l.Append(Record{Kind: KindFlushUndo, NodeID: -5, UndoInfo: undo})
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].NodeID != -5 || len(recs[0].UndoInfo) != 1024 {
		t.Fatalf("undo record: %+v", recs[0])
	}
	for i, b := range recs[0].UndoInfo {
		if b != byte(i) {
			t.Fatalf("undo byte %d = %d", i, b)
		}
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(kind uint8, tx uint64, rel uint32, op uint8, key, val, fid, lo, hi uint64, node int64, undo []byte) bool {
		if len(undo) > 4096 {
			undo = undo[:4096]
		}
		in := Record{
			LSN: 1, Kind: Kind(kind%6 + 1), TxID: tx, Relation: rel,
			Op: OpType(op), Key: key, Value: val, FlushID: fid,
			KeyLo: lo, KeyHi: hi, NodeID: node,
		}
		if len(undo) > 0 {
			in.UndoInfo = undo
		}
		wire := in.marshal(nil)
		out, n, err := unmarshal(wire)
		if err != nil || n != len(wire) {
			return false
		}
		if out.Kind != in.Kind || out.TxID != in.TxID || out.Relation != in.Relation ||
			out.Op != in.Op || out.Key != in.Key || out.Value != in.Value ||
			out.FlushID != in.FlushID || out.KeyLo != in.KeyLo || out.KeyHi != in.KeyHi ||
			out.NodeID != in.NodeID || len(out.UndoInfo) != len(in.UndoInfo) {
			return false
		}
		for i := range in.UndoInfo {
			if out.UndoInfo[i] != in.UndoInfo[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptCRCDetected(t *testing.T) {
	r := Record{LSN: 1, Kind: KindCommit}
	wire := r.marshal(nil)
	wire[9] ^= 0xFF // flip a body byte
	if _, _, err := unmarshal(wire); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	r := Record{LSN: 1, Kind: KindCommit}
	wire := r.marshal(nil)
	if _, _, err := unmarshal(wire[:5]); err == nil {
		t.Fatal("truncated record accepted")
	}
	if _, _, err := unmarshal(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestNewLogValidation(t *testing.T) {
	dev := flashsim.MustDevice(flashsim.P300())
	f, _ := ssdio.NewSpace(dev).Create("w2", 4096)
	if _, err := NewLog(f, 0); err == nil {
		t.Fatal("zero page size accepted")
	}
}

// TestForceAlignment is the regression test for the unaligned-durable-
// offset bug: every force must issue exactly one page-aligned device
// write (aligned offset AND size), carrying the partial last page
// forward, and the full record stream must still decode.
func TestForceAlignment(t *testing.T) {
	const pageSize = 512
	dev := flashsim.MustDevice(flashsim.P300())
	f, err := ssdio.NewSpace(dev).Create("wal", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	l.TraceForces = true
	total := 0
	var at vtime.Ticks
	for i := 0; i < 20; i++ {
		// Odd-sized records (growing undo payloads) so forces end
		// mid-page almost every time.
		undo := make([]byte, 37*i%300)
		l.Append(Record{Kind: KindFlushUndo, NodeID: int64(i), UndoInfo: undo})
		total++
		if i%3 == 0 {
			l.Append(Record{Kind: KindLogicalRedo, Key: uint64(i), Value: uint64(i)})
			total++
		}
		done, err := l.Force(at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	if len(l.ForceTrace) != 20 {
		t.Fatalf("traced %d forces, want 20", len(l.ForceTrace))
	}
	prevEnd := int64(0)
	for i, sp := range l.ForceTrace {
		if sp.Off%pageSize != 0 {
			t.Fatalf("force %d offset %d not page-aligned", i, sp.Off)
		}
		if sp.Len%pageSize != 0 || sp.Len == 0 {
			t.Fatalf("force %d length %d not a positive page multiple", i, sp.Len)
		}
		// A force may rewrite the carried partial page, but never a fully
		// durable one: its start is at most one page before the previous end.
		if i > 0 && sp.Off < prevEnd-pageSize {
			t.Fatalf("force %d offset %d rewrites fully durable pages (prev end %d)", i, sp.Off, prevEnd)
		}
		if sp.Off > prevEnd {
			t.Fatalf("force %d offset %d leaves a gap (prev end %d)", i, sp.Off, prevEnd)
		}
		prevEnd = sp.Off + sp.Len
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != total {
		t.Fatalf("decoded %d records, want %d", len(recs), total)
	}
}

// TestForcePartialPageCarried: two sub-page forces land in the same page;
// the second must rewrite it from the page boundary, not append at an
// unaligned offset, and both records must survive.
func TestForcePartialPageCarried(t *testing.T) {
	l := newLog(t)
	l.TraceForces = true
	l.Append(Record{Kind: KindLogicalRedo, Key: 1, Value: 10})
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindLogicalRedo, Key: 2, Value: 20})
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	if len(l.ForceTrace) != 2 {
		t.Fatalf("traced %d forces", len(l.ForceTrace))
	}
	if l.ForceTrace[0].Off != 0 || l.ForceTrace[1].Off != 0 {
		t.Fatalf("sub-page forces must both start at 0: %+v", l.ForceTrace)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != 1 || recs[1].Key != 2 {
		t.Fatalf("records after carried force: %+v", recs)
	}
}

// TestForceGroupGang: several logs on one device are forced durable by a
// single gang submission; duplicates and empty tails are skipped.
func TestForceGroupGang(t *testing.T) {
	dev := flashsim.MustDevice(flashsim.P300())
	space := ssdio.NewSpace(dev)
	logs := make([]*Log, 4)
	for i := range logs {
		f, err := space.Create(fmt.Sprintf("wal%d", i), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		logs[i], err = NewLog(f, 4096)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Logs 0..2 get records; log 3 stays empty. Log 0 passed twice.
	for i := 0; i < 3; i++ {
		logs[i].Append(Record{Kind: KindLogicalRedo, Relation: uint32(i), Key: uint64(i)})
	}
	done, n, err := ForceGroup(0, []*Log{logs[0], logs[1], logs[0], logs[2], nil, logs[3]})
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("gang force cost no time")
	}
	if n != 3 {
		t.Fatalf("gang forced %d logs, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if logs[i].DurableLSN() != 1 {
			t.Fatalf("log %d durable LSN %d, want 1", i, logs[i].DurableLSN())
		}
		if logs[i].GangForces != 1 || logs[i].ForceWrites != 0 {
			t.Fatalf("log %d gang=%d force=%d, want 1/0", i, logs[i].GangForces, logs[i].ForceWrites)
		}
		recs, err := logs[i].Records()
		if err != nil || len(recs) != 1 || recs[0].Relation != uint32(i) {
			t.Fatalf("log %d records: %v %v", i, recs, err)
		}
	}
	if logs[3].GangForces != 0 {
		t.Fatal("empty log charged a gang force")
	}
	// Empty gang is free and reports zero submissions.
	if d, n, err := ForceGroup(42, []*Log{logs[3], nil}); err != nil || d != 42 || n != 0 {
		t.Fatalf("empty gang: %v %v %v", d, n, err)
	}
}

// TestRecordsTornTail: a force interrupted by a crash leaves a truncated
// or corrupted tail; Records must return the intact prefix instead of
// failing the whole recovery.
func TestRecordsTornTail(t *testing.T) {
	build := func(t *testing.T) *Log {
		l := newLog(t)
		for i := 0; i < 5; i++ {
			l.Append(Record{Kind: KindLogicalRedo, Key: uint64(i), Value: uint64(i * 10)})
		}
		if _, err := l.Force(0); err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Byte offset where record i starts (records are identically sized).
	recOff := func(l *Log, i int) int64 {
		return int64(i) * (l.durable / 5)
	}
	cases := []struct {
		name string
		tear func(t *testing.T, l *Log)
		want int
	}{
		{
			name: "corrupt CRC of last record",
			tear: func(t *testing.T, l *Log) {
				corruptAt(t, l, recOff(l, 4)+12) // a body byte of record 4
			},
			want: 4,
		},
		{
			name: "corrupt CRC mid-log cuts there",
			tear: func(t *testing.T, l *Log) {
				corruptAt(t, l, recOff(l, 2)+12)
			},
			want: 2,
		},
		{
			name: "zeroed tail page (truncated force)",
			tear: func(t *testing.T, l *Log) {
				zeroFrom(t, l, recOff(l, 3))
			},
			want: 3,
		},
		{
			name: "garbage length header",
			tear: func(t *testing.T, l *Log) {
				garbageAt(t, l, recOff(l, 4)) // clobber record 4's length field
			},
			want: 4,
		},
		{
			name: "intact log unaffected",
			tear: func(t *testing.T, l *Log) {},
			want: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := build(t)
			tc.tear(t, l)
			recs, err := l.Records()
			if err != nil {
				t.Fatalf("torn tail errored the scan: %v", err)
			}
			if len(recs) != tc.want {
				t.Fatalf("got %d records, want %d", len(recs), tc.want)
			}
			for i, r := range recs {
				if r.Key != uint64(i) || r.Value != uint64(i*10) {
					t.Fatalf("intact prefix corrupted at %d: %+v", i, r)
				}
			}
		})
	}
}

func corruptAt(t *testing.T, l *Log, off int64) {
	t.Helper()
	b := []byte{0xFF}
	if err := l.f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if err := l.f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func zeroFrom(t *testing.T, l *Log, off int64) {
	t.Helper()
	if err := l.f.WriteAt(make([]byte, l.durable-off), off); err != nil {
		t.Fatal(err)
	}
}

func garbageAt(t *testing.T, l *Log, off int64) {
	t.Helper()
	if err := l.f.WriteAt([]byte{0xDE, 0xAD, 0xBE, 0xEF}, off); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateHead: head truncation drops exactly the records below the
// marked one, Records scans only the surviving suffix, and the log keeps
// appending and forcing correctly afterwards.
func TestTruncateHead(t *testing.T) {
	l := newLog(t)
	var marks []Mark
	for i := 0; i < 10; i++ {
		marks = append(marks, l.AppendMark(Record{Kind: KindLogicalRedo, Key: uint64(i), Value: uint64(i * 10)}))
	}
	if _, err := l.TruncateHead(marks[4]); err == nil {
		t.Fatal("truncation at an unforced record accepted")
	}
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.TruncateHead(Mark{LSN: marks[4].LSN, Off: l.durable + 1}); err == nil {
		t.Fatal("truncation past the durable end accepted")
	}
	pre := l.LiveBytes()
	cut, err := l.TruncateHead(marks[4])
	if err != nil {
		t.Fatal(err)
	}
	if cut != marks[4].Off || cut <= 0 {
		t.Fatalf("cut %d bytes, want the %d before record 4", cut, marks[4].Off)
	}
	if got := l.TruncatedBytes(); got != cut {
		t.Fatalf("TruncatedBytes %d, want %d", got, cut)
	}
	if got := l.LiveBytes(); got != pre-cut {
		t.Fatalf("LiveBytes %d, want %d", got, pre-cut)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || recs[0].LSN != marks[4].LSN || recs[0].Key != 4 {
		t.Fatalf("surviving records: %d, head %+v", len(recs), recs[0])
	}
	// Idempotent: re-truncating at the same mark, or an earlier one, drops
	// nothing more.
	for _, m := range []Mark{marks[4], marks[2]} {
		if cut2, err := l.TruncateHead(m); err != nil || cut2 != 0 {
			t.Fatalf("re-truncate at %+v: cut=%d err=%v", m, cut2, err)
		}
	}
	// The log keeps working: append, force, read back across the head.
	ck := l.AppendMark(Record{Kind: KindCheckpoint, Relation: 3})
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	recs, err = l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 || recs[6].Kind != KindCheckpoint {
		t.Fatalf("after post-truncation append: %d records, tail %v", len(recs), recs[len(recs)-1].Kind)
	}
	// Truncating at the last record leaves exactly that record.
	if _, err := l.TruncateHead(ck); err != nil {
		t.Fatal(err)
	}
	if recs, err = l.Records(); err != nil || len(recs) != 1 || recs[0].LSN != ck.LSN {
		t.Fatalf("truncation at the last record left %d records (err %v)", len(recs), err)
	}
	if got, want := l.LiveBytes(), l.durable-ck.Off; got != want {
		t.Fatalf("LiveBytes %d after truncation at the last record, want %d", got, want)
	}
}

// TestTruncateHeadCrashSurvives: records surviving truncation still
// recover after a crash (head and durable interplay).
func TestTruncateHeadCrashSurvives(t *testing.T) {
	l := newLog(t)
	for i := 0; i < 6; i++ {
		l.Append(Record{Kind: KindLogicalRedo, Key: uint64(i)})
	}
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	ck := l.AppendMark(Record{Kind: KindCheckpoint})
	if _, err := l.Force(0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.TruncateHead(ck); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindLogicalRedo, Key: 100}) // volatile tail
	l.Crash()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != KindCheckpoint {
		t.Fatalf("post-crash scan: %d records, head %v", len(recs), recs[0].Kind)
	}
}
