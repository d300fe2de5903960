package wal

import (
	"bytes"
	"testing"

	"repro/internal/flashsim"
	"repro/internal/ssdio"
)

// fuzzSeedLog builds a small marshaled log covering every record family
// the crash matrix exercises.
func fuzzSeedLog() []byte {
	var buf []byte
	recs := []Record{
		{Kind: KindLogicalRedo, LSN: 1, TxID: 7, Relation: 1, Op: OpInsert, Key: 10, Value: 70},
		{Kind: KindFlushStart, LSN: 2, Relation: 1, FlushID: 3, KeyLo: 0, KeyHi: 100},
		{Kind: KindFlushUndo, LSN: 3, FlushID: 3, NodeID: 42, UndoInfo: []byte{1, 2, 3, 4}},
		{Kind: KindKeyMoved, LSN: 4, FlushID: 9, KeyLo: 5, KeyHi: 9},
		{Kind: KindFlushEnd, LSN: 5, Relation: 1, FlushID: 3, KeyLo: 0, KeyHi: 100},
		{Kind: KindFlushAbort, LSN: 6, FlushID: 3},
	}
	for i := range recs {
		buf = recs[i].marshal(buf)
	}
	return buf
}

// FuzzRecords feeds arbitrary bytes to the log scanner used by crash
// recovery. The invariants under test are the torn-tail contract:
// scanning never panics, stops cleanly at the first undecodable byte
// (whatever garbage follows), and every record it does return
// round-trips bit-exactly through marshal — i.e. the recovered prefix is
// exactly the data the WAL acknowledged.
func FuzzRecords(f *testing.F) {
	seed := fuzzSeedLog()
	f.Add(seed)
	// Crash-matrix cuts: a force can tear at any byte, so seed the corpus
	// with the log cut inside the length prefix, the CRC, the body, and at
	// record boundaries.
	for _, cut := range []int{0, 1, 4, 7, 8, 9, recordHeaderSize, len(seed) / 2, len(seed) - 1} {
		f.Add(append([]byte(nil), seed[:cut]...))
	}
	flip := append([]byte(nil), seed...)
	flip[12] ^= 0xff // corrupt the first body byte: CRC must reject it
	f.Add(flip)
	zero := append([]byte(nil), seed...)
	zero[0], zero[1], zero[2], zero[3] = 0, 0, 0, 0 // zero length = clean end
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direct scan of the raw bytes, mirroring Records' loop.
		var consumed int
		rest := data
		for len(rest) > 0 {
			r, n, err := unmarshal(rest)
			if err != nil {
				break
			}
			if n <= 8 || n > len(rest) {
				t.Fatalf("unmarshal consumed %d of %d bytes", n, len(rest))
			}
			if got := r.marshal(nil); !bytes.Equal(got, rest[:n]) {
				t.Fatalf("record does not round-trip: %d byte record remarshals to %d bytes", n, len(got))
			}
			consumed += n
			rest = rest[n:]
		}
		if consumed > len(data) {
			t.Fatalf("scanner consumed %d bytes of a %d byte log", consumed, len(data))
		}

		// End-to-end: the same bytes as the durable content of a Log on a
		// simulated device must yield the same record sequence.
		dev := flashsim.MustDevice(flashsim.P300())
		file, err := ssdio.NewSpace(dev).Create("wal", int64(len(data))+1)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := file.WriteAt(data, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		l := &Log{f: file, pageSize: 4096, nextLSN: 1, durable: int64(len(data))}
		recs, err := l.Records()
		if err != nil {
			t.Fatalf("Records: %v", err)
		}
		want := consumed
		var got int
		for i := range recs {
			got += len(recs[i].marshal(nil))
		}
		if got != want {
			t.Fatalf("Records decoded %d bytes, raw scan decoded %d", got, want)
		}
	})
}
