// Package wal implements write-ahead logging for the PIO B-tree's crash
// recovery scheme (Section 3.4 and Table 2 of the paper).
//
// The paper's OPQ keeps committed index records only in memory, so it
// extends ARIES-style logging with three PIO-specific record kinds:
//
//   - logical redo log  <Ti, Ri, op-type, index record>: one per OPQ
//     append; redone after a crash for entries that were never flushed;
//   - flush event log   <Ti, Ri, FlushStart/FlushEnd, key range>: brackets
//     every OPQ flush so recovery can tell completed flushes (whose redo
//     logs must be skipped — logical redo is not idempotent) from
//     incomplete ones (which must be undone);
//   - flush undo log    <Ri, node id, undo info>: one per node updated by a
//     flush, replayed backwards to roll an incomplete flush off the tree;
//     recovery then closes that flush with a flush abort record.
//
// Records are length-prefixed, CRC-checked, and appended to a simulated
// SSD file; Force writes the in-memory tail with sequential page writes
// and returns the new durable LSN.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"repro/internal/flashsim"
	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// Kind enumerates the log record types of Table 2 plus the records this
// log adds: the flush abort, the checkpoint, and the forest's migration,
// routing and heal records.
type Kind uint8

const (
	// KindLogicalRedo is a logical redo log for one OPQ entry.
	KindLogicalRedo Kind = iota + 1
	// KindFlushStart opens an OPQ flush (key range recorded).
	KindFlushStart
	// KindFlushEnd closes an OPQ flush (same key range as its start).
	KindFlushEnd
	// KindFlushUndo records physical undo info for one node updated during
	// a flush.
	KindFlushUndo
	// KindFlushAbort closes a flush that recovery undid (FlushID only):
	// pairing treats the flush as ended with an empty key range, so no
	// later replay applies its pre-images again or skips a redo record
	// for it, whatever FlushEnd of it the log also holds.
	KindFlushAbort
	// KindCheckpoint marks a checkpoint (OPQ fully flushed).
	KindCheckpoint
	// KindMigrationStart opens an online shard migration: keys in
	// [KeyLo, KeyHi) move from shard Key to shard Value (forest-level
	// record; FlushID carries the migration id). Op OpEvacuate marks a
	// quarantine evacuation, whose source cannot be written: its records
	// ride the destination's log only. A plain migration leaves Op zero
	// and logs on both shards.
	KindMigrationStart
	// KindKeyMoved commits one migration chunk: the keys in [KeyLo, KeyHi)
	// are durably copied to the destination and the routing frontier
	// advances to KeyHi. Appended only after the destination's copies were
	// forced: to the source shard's log, or to the destination's for an
	// evacuation.
	KindKeyMoved
	// KindMigrationEnd closes a migration over [KeyLo, KeyHi): Op
	// OpMigrationCommit commits the routing-table flip (an abort that kept
	// a prefix commits just that prefix), OpEvacuate commits an
	// evacuation's flip and retires its source, and OpMigrationAbort
	// records a rollback.
	KindMigrationEnd
	// KindRoutingSnapshot persists the forest routing table (UndoInfo holds
	// the encoded rule list), so log head truncation never strands the
	// routing state reconstruction.
	KindRoutingSnapshot
	// KindHealProbe is a no-op record a Heal appends before forcing the
	// tail, so re-admitting a quarantined shard always exercises the log
	// device's WRITE path (a rolled-back tail may be empty, and forcing
	// an empty tail issues no I/O — a read-only device would "pass").
	// Every replay scan ignores it.
	KindHealProbe
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLogicalRedo:
		return "logical-redo"
	case KindFlushStart:
		return "flush-start"
	case KindFlushEnd:
		return "flush-end"
	case KindFlushUndo:
		return "flush-undo"
	case KindFlushAbort:
		return "flush-abort"
	case KindCheckpoint:
		return "checkpoint"
	case KindMigrationStart:
		return "migration-start"
	case KindKeyMoved:
		return "key-moved"
	case KindMigrationEnd:
		return "migration-end"
	case KindRoutingSnapshot:
		return "routing-snapshot"
	case KindHealProbe:
		return "heal-probe"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OpType is the update-operation type carried by a logical redo record,
// matching the OPQ entry flags of Section 3.1.3 (i: insert, d: delete,
// u: update). Migration records reuse the field for their own codes.
type OpType uint8

const (
	// OpInsert is an index-insert.
	OpInsert OpType = 'i'
	// OpDelete is an index-delete.
	OpDelete OpType = 'd'
	// OpUpdate is an index-update.
	OpUpdate OpType = 'u'
	// OpMigrationCommit ends a migration that committed its range.
	OpMigrationCommit OpType = 'c'
	// OpMigrationAbort ends a migration that rolled back.
	OpMigrationAbort OpType = 'a'
	// OpEvacuate marks an evacuation's Start record, and ends an
	// evacuation that committed its range.
	OpEvacuate OpType = 'e'
)

// Record is one WAL record. Fields beyond Kind are used selectively per
// kind; unused fields are zero.
type Record struct {
	LSN      uint64
	Kind     Kind
	TxID     uint64
	Relation uint32 // index relation id (Ri)

	// Logical redo payload.
	Op    OpType
	Key   uint64
	Value uint64

	// Flush event payload: [KeyLo, KeyHi] is the flushed key range;
	// FlushID pairs start/end records.
	FlushID      uint64
	KeyLo, KeyHi uint64

	// Flush undo payload: the pre-image of one updated node.
	NodeID   int64
	UndoInfo []byte

	// off is the file offset the record was decoded from (Records and
	// RecordsTimed set it; it is not part of the wire form).
	off int64
}

// Mark returns where a record returned by Records or RecordsTimed lies in
// its log, the cut TruncateHead takes to keep it.
func (r *Record) Mark() Mark { return Mark{LSN: r.LSN, Off: r.off} }

const recordHeaderSize = 1 + 8 + 8 + 4 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 4 // kind..nodeid + undolen

// marshal appends the record's wire form (length, crc, body) to dst. The
// body is written in place and the CRC filled in over it, so an append
// into spare capacity allocates nothing.
func (r *Record) marshal(dst []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(recordHeaderSize+len(r.UndoInfo)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC, over the body below
	dst = append(dst, byte(r.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = binary.LittleEndian.AppendUint64(dst, r.TxID)
	dst = binary.LittleEndian.AppendUint32(dst, r.Relation)
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	dst = binary.LittleEndian.AppendUint64(dst, r.Value)
	dst = binary.LittleEndian.AppendUint64(dst, r.FlushID)
	dst = binary.LittleEndian.AppendUint64(dst, r.KeyLo)
	dst = binary.LittleEndian.AppendUint64(dst, r.KeyHi)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.NodeID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.UndoInfo)))
	dst = append(dst, r.UndoInfo...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+8:]))
	return dst
}

// errTruncated reports the clean end of the log.
var errTruncated = errors.New("wal: truncated record")

// unmarshal decodes one record from b, returning the record and the number
// of bytes consumed. A zero length or short buffer yields errTruncated
// (normal end of log); a CRC mismatch is a hard error.
func unmarshal(b []byte) (Record, int, error) {
	if len(b) < 8 {
		return Record{}, 0, errTruncated
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n < recordHeaderSize {
		return Record{}, 0, errTruncated
	}
	crc := binary.LittleEndian.Uint32(b[4:])
	if len(b) < 8+int(n) {
		return Record{}, 0, errTruncated
	}
	body := b[8 : 8+n]
	if crc32.ChecksumIEEE(body) != crc {
		return Record{}, 0, fmt.Errorf("wal: CRC mismatch")
	}
	var r Record
	r.Kind = Kind(body[0])
	r.LSN = binary.LittleEndian.Uint64(body[1:])
	r.TxID = binary.LittleEndian.Uint64(body[9:])
	r.Relation = binary.LittleEndian.Uint32(body[17:])
	r.Op = OpType(body[21])
	r.Key = binary.LittleEndian.Uint64(body[22:])
	r.Value = binary.LittleEndian.Uint64(body[30:])
	r.FlushID = binary.LittleEndian.Uint64(body[38:])
	r.KeyLo = binary.LittleEndian.Uint64(body[46:])
	r.KeyHi = binary.LittleEndian.Uint64(body[54:])
	r.NodeID = int64(binary.LittleEndian.Uint64(body[62:]))
	ul := binary.LittleEndian.Uint32(body[70:])
	if int(ul) != len(body)-recordHeaderSize {
		return Record{}, 0, fmt.Errorf("wal: bad undo length %d", ul)
	}
	if ul > 0 {
		r.UndoInfo = append([]byte(nil), body[recordHeaderSize:]...)
	}
	return r, 8 + int(n), nil
}

// Log is a write-ahead log on a simulated SSD file. Appends accumulate in
// an in-memory tail; Force makes them durable with sequential writes.
//
// An internal mutex serializes every method — Force and ForceGroup hold
// it across the simulated device write — so appends may race forces from
// other goroutines (an append lands wholly before or wholly after any
// force), and a forest may force a shard's log without holding the
// shard's lock. Concurrent ForceGroup calls whose log sets overlap must
// acquire them in a consistent order (the forest coordinator always
// passes logs in ascending shard order).
type Log struct {
	f        *ssdio.File
	pageSize int

	mu      sync.Mutex
	nextLSN uint64 // guarded by mu
	head    int64  // byte offset of the live log head (record boundary); guarded by mu
	durable int64  // durable log-content bytes (end offset); guarded by mu
	forced  uint64 // LSN up to which records are durable (exclusive next); guarded by mu
	// buf holds the durable content of the trailing, partially filled page
	// (its first carried bytes), then the records appended but not yet
	// forced (the tail). A force writes it, padded to whole pages, from
	// here: nothing keeps a request's buffer past its submission.
	buf     []byte // guarded by mu
	carried int    // guarded by mu
	// gangReq is the write this log contributes to a ForceGroup gang, kept
	// here so the gang's batch can point at it without an allocation
	// (guarded by mu).
	gangReq [1]ssdio.Req

	// truncated accumulates the bytes dropped by TruncateHead (guarded by mu).
	truncated int64

	// ForceWrites counts blocking device submissions issued by Force (one
	// per non-empty call); participations in a ForceGroup gang count on
	// GangForces instead, since the gang is a single shared submission.
	ForceWrites int64
	// GangForces counts ForceGroup gangs this log contributed a write to.
	GangForces int64

	// TraceForces, when set, records every force's device-write extent in
	// ForceTrace (testing: alignment regression checks).
	TraceForces bool
	ForceTrace  []ForceSpan
}

// ForceSpan is the file extent of one force's device write.
type ForceSpan struct{ Off, Len int64 }

// NewLog creates a WAL on file f using the given force-write granularity
// (typically the index page size).
func NewLog(f *ssdio.File, pageSize int) (*Log, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("wal: page size must be positive, got %d", pageSize)
	}
	return &Log{f: f, pageSize: pageSize, nextLSN: 1}, nil
}

// Mark locates an appended record: its LSN, and the file offset its wire
// form starts at. TruncateHead cuts the log at a mark. The zero Mark
// locates no record (LSNs start at 1).
type Mark struct {
	LSN uint64
	Off int64
}

// Append adds a record to the in-memory tail and returns its LSN. The
// record is not durable until Force.
func (l *Log) Append(r Record) uint64 { return l.AppendMark(r).LSN }

// AppendMark is Append returning the record's Mark. A Crash that drops
// the record invalidates the mark.
func (l *Log) AppendMark(r Record) Mark {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := Mark{LSN: l.nextLSN, Off: l.durable + int64(len(l.buf)-l.carried)}
	r.LSN = l.nextLSN
	l.nextLSN++
	l.buf = r.marshal(l.buf)
	return m
}

// DurableLSN returns the highest LSN guaranteed durable.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forced
}

// ForceStats returns the submission counters under the log's mutex, for
// readers that may race in-flight forces (single-threaded code may read
// the ForceWrites/GangForces fields directly).
func (l *Log) ForceStats() (forceWrites, gangForces int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ForceWrites, l.GangForces
}

// pendingReq builds the page-aligned device write that would make the
// tail durable: it starts at the last page boundary at or below the
// durable length (carrying the already-durable bytes of a partially
// filled last page) and is rounded up to whole pages, so successive
// forces never issue unaligned or overlapping-with-padding writes and the
// cost accounting matches the paper's sequential page-write model.
// The request's buffer is the log's own, padded in its spare capacity.
// Returns ok=false when there is nothing to force. The caller holds l.mu
// (piolint infers and enforces this contract at every call site).
func (l *Log) pendingReq() (ssdio.Req, bool) {
	content := len(l.buf)
	if content == l.carried {
		return ssdio.Req{}, false
	}
	off := l.durable - int64(l.carried)
	n := (content + l.pageSize - 1) / l.pageSize * l.pageSize
	buf := slices.Grow(l.buf, n-content)[:n]
	clear(buf[content:])
	l.buf = buf[:content]
	l.f.EnsureSize(off + int64(n))
	return ssdio.Req{Op: flashsim.Write, Off: off, Buf: buf}, true
}

// commitForce advances the durable state after the device accepted the
// write previously built by pendingReq; the caller holds l.mu (inferred
// contract).
func (l *Log) commitForce(req ssdio.Req) {
	content := len(l.buf)
	l.durable += int64(content - l.carried)
	l.carried = int(l.durable % int64(l.pageSize))
	l.buf = l.buf[:copy(l.buf, l.buf[content-l.carried:content])]
	l.forced = l.nextLSN - 1
	if l.TraceForces {
		l.ForceTrace = append(l.ForceTrace, ForceSpan{Off: req.Off, Len: int64(len(req.Buf))})
	}
}

// Force writes the tail to the device (sequential, page-aligned) at
// virtual time at and returns the completion time. After Force returns,
// every appended record is durable: the WAL rule both of Section 3.4's
// conditions rely on. The log's mutex is held across the simulated
// device write, so records appended by racing goroutines land either wholly
// before or wholly after this force.
func (l *Log) Force(at vtime.Ticks) (vtime.Ticks, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	req, ok := l.pendingReq()
	if !ok {
		return at, nil
	}
	done, err := l.f.Sync(at, req)
	if err != nil {
		return at, err
	}
	l.ForceWrites++
	l.commitForce(req)
	return done, nil
}

// Unforced reports whether the log's tail holds appended-but-unforced
// bytes (a not-yet-issued or failed force). Group-flush error handling
// uses it to attribute a partial gang failure to exactly the members
// whose records did not land — ForceGroup commits every member whose
// write reached the device, so a surviving unforced tail marks a member
// that failed.
func (l *Log) Unforced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf) > l.carried
}

// gangStack is how many logs a ForceGroup keeps its bookkeeping for on the
// stack; a larger gang spills to the heap.
const gangStack = 8

// ForceGroup makes the tails of several logs durable in ONE blocking
// device submission, via ssdio.PsyncGang: the group-commit primitive.
// Where N per-shard Force calls cost N serial blocking writes, the gang
// costs one submission whose member writes overlap on the device's
// channels — the paper's eq.-(10) batching applied to the log plane.
// Nil logs, duplicates, and logs with empty tails are skipped; all log
// files must live on one ssdio.Space (one device). The int result is the
// number of logs actually forced: 0 means no device submission was
// issued at all.
//
//lint:lockorder-multi wal.Log.mu gang members are acquired in the caller-supplied ascending shard order
func ForceGroup(at vtime.Ticks, logs []*Log) (vtime.Ticks, int, error) {
	// Hold every member's mutex across the whole gang so racing appends
	// land wholly before or after it (callers already serialize gangs that
	// share logs, so the acquisition order cannot deadlock).
	// Each member's request sits in its own gangReq.
	var memberBuf [gangStack]*Log
	var batchBuf [gangStack]ssdio.GangBatch
	members, batches := memberBuf[:0], batchBuf[:0]
	unlock := func() {
		for _, l := range members {
			l.mu.Unlock()
		}
	}
	for i, l := range logs {
		// A log listed twice is handled once, at its first index.
		if l == nil || slices.Contains(logs[:i], l) {
			continue
		}
		l.mu.Lock()
		req, ok := l.pendingReq()
		if !ok {
			l.mu.Unlock()
			continue
		}
		l.gangReq[0] = req
		members = append(members, l)
		batches = append(batches, ssdio.GangBatch{F: l.f, Reqs: l.gangReq[:]})
	}
	if len(members) == 0 {
		return at, 0, nil
	}
	defer unlock()
	done, err := ssdio.PsyncGang(at, batches)
	if err != nil {
		// A partial gang (injected faults) landed some member writes:
		// commit those members' durable state — their bytes ARE on the
		// device — so a retried ForceGroup naturally skips them (their
		// tails are empty) and resubmits only the failed logs.
		var pge *ssdio.PartialGangError
		if errors.As(err, &pge) {
			failed := make(map[int]bool, len(pge.Faults))
			for _, f := range pge.Faults {
				failed[f.Batch] = true
			}
			n := 0
			for i, l := range members {
				if failed[i] {
					continue
				}
				n++
				l.GangForces++
				//lint:ignore guardedby every member's mu was acquired in the collection loop and is released by the deferred unlock
				l.commitForce(l.gangReq[0])
			}
			return done, n, err
		}
		return at, 0, err
	}
	for _, l := range members {
		l.GangForces++
		//lint:ignore guardedby every member's mu was acquired in the collection loop and is released by the deferred unlock
		l.commitForce(l.gangReq[0])
	}
	return done, len(members), nil
}

// TruncateHead drops every record before the marked one from the log
// head: the head moves to m.Off, with nothing read or decoded, and
// Records() and recovery then scan only the surviving suffix. The marked
// record must be durable. The mark is a low-water mark the caller
// guarantees: no recovery of this log needs a record below it — no redo
// record of an entry still queued, no undo image of a flush that has not
// ended, no migration or routing record recovery still reads. A mark at
// or below the head drops nothing. Returns the bytes reclaimed.
//
// The device is not rewritten and its address space is not reused; the
// host image below the new head is discarded (ssdio.File.Discard). Its
// whole extents go to the log file's spare list and take the log's later
// writes, so truncated log is not held twice: the log's host memory stays
// at the high-water mark of its live window, and a warm log allocates no
// new extent. Only [head, m.Off) is walked, from the start of the head's
// extent, whose leading bytes an earlier cut cleared without releasing it.
func (l *Log) TruncateHead(m Mark) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m.LSN > l.forced || m.Off > l.durable {
		return 0, fmt.Errorf("wal: truncate at LSN %d offset %d: past the durable log (LSN %d, offset %d)", m.LSN, m.Off, l.forced, l.durable)
	}
	if m.Off <= l.head {
		return 0, nil
	}
	from := l.head - l.head%ssdio.ExtentSize
	if err := l.f.Discard(from, m.Off-from); err != nil {
		return 0, err
	}
	cut := m.Off - l.head
	l.head = m.Off
	l.truncated += cut
	return cut, nil
}

// TruncatedBytes returns the total bytes reclaimed by TruncateHead.
func (l *Log) TruncatedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// LiveBytes returns the durable log bytes between the truncated head and
// the durable end (what recovery would scan).
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable - l.head
}

// Records decodes every durable record past the truncated head, in append
// order. Used by recovery (the in-memory tail is, by definition, lost in
// a crash).
//
// A torn tail — a truncated or CRC-corrupt record left by a force that
// was interrupted by the crash — ends the scan at the last intact record
// instead of failing the whole recovery: the WAL rule guarantees nothing
// at or past the tear was ever acknowledged as durable, so the intact
// prefix IS the recoverable log.
func (l *Log) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, l.durable-l.head)
	if len(buf) > 0 {
		if err := l.f.ReadAt(buf, l.head); err != nil {
			return nil, err
		}
	}
	var out []Record
	for off := l.head; len(buf) > 0; {
		r, n, err := unmarshal(buf)
		if err != nil {
			// errTruncated is the clean end of the log; any other decode
			// failure is a torn record, cutting the durable prefix here.
			break
		}
		r.off = off
		out = append(out, r)
		buf = buf[n:]
		off += int64(n)
	}
	return out, nil
}

// RecordsTimed decodes the durable records like Records, but charges the
// replay's read I/O on the vtime clock: the live byte range is read as
// one psync call of page-granular requests, the shape a batched recovery
// scan issues on a real device. Recovery and quarantine replay use it so
// recovery phases stop looking free at scale.
func (l *Log) RecordsTimed(at vtime.Ticks) ([]Record, vtime.Ticks, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.durable - l.head
	if n <= 0 {
		return nil, at, nil
	}
	buf := make([]byte, n)
	var reqs []ssdio.Req
	for off := int64(0); off < n; off += int64(l.pageSize) {
		end := off + int64(l.pageSize)
		if end > n {
			end = n
		}
		reqs = append(reqs, ssdio.Req{Op: flashsim.Read, Off: l.head + off, Buf: buf[off:end]})
	}
	at, err := l.f.Psync(at, reqs)
	if err != nil {
		return nil, at, err
	}
	var out []Record
	for off := l.head; len(buf) > 0; {
		r, rn, err := unmarshal(buf)
		if err != nil {
			// Torn tail: the intact prefix is the recoverable log (see
			// Records).
			break
		}
		r.off = off
		out = append(out, r)
		buf = buf[rn:]
		off += int64(rn)
	}
	return out, at, nil
}

// Crash discards the volatile tail, simulating the loss of unforced
// records at a system crash.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:l.carried]
	l.nextLSN = l.forced + 1
}
