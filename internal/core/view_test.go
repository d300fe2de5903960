package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
)

// The search side reads encoded pages through internalView and leafView;
// the flush side decodes them. These tests hold the two together with the
// decode path as the reference: whatever a view answers, decode-then-scan
// must answer too, and a page the decoder rejects the view must reject
// with the same error.

const viewPS = 256 // segCap 14, maxInternalKeys 14: small enough to fill

// decodeRef is the decode-per-call path the views replaced: the segments
// read, copied into a full leaf whose unread segments are valid and empty,
// then decodeLeaf.
func decodeRef(id pagefile.PageID, buf []byte, pageSize, segs int) (*leafNode, error) {
	full := make([]byte, segs*pageSize)
	copy(full, buf)
	for s := len(buf) / pageSize; s < segs; s++ {
		full[s*pageSize] = kindLeafSeg
		full[s*pageSize+1] = byte(s)
	}
	return decodeLeaf(id, full, pageSize, segs)
}

// scanRef is the reference lookup: the newest entry for k is the last one
// in log order, wherever it sits.
func scanRef(l *leafNode, k kv.Key) (kv.Entry, bool) {
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].Rec.Key == k {
			return l.entries[i], true
		}
	}
	return kv.Entry{}, false
}

// probeKeys returns every key in the leaf, its two neighbours, and the
// ends of the key space: present, absent-between and absent-outside.
func probeKeys(l *leafNode) []kv.Key {
	keys := []kv.Key{0, 1, math.MaxUint64 - 1, math.MaxUint64}
	for _, e := range l.entries {
		keys = append(keys, e.Rec.Key-1, e.Rec.Key, e.Rec.Key+1)
	}
	return keys
}

// checkLeafView compares viewLeaf over buf (the first segments of a leaf)
// with the decode reference: same error or same contents, and — when the
// base region is sorted, which binary search needs — the same answer for
// every probe key and the same live records in each range [lo, hi).
func checkLeafView(t testing.TB, buf []byte, pageSize, segs int, ranges ...[2]kv.Key) {
	t.Helper()
	const id = pagefile.PageID(7)
	ref, refErr := decodeRef(id, buf, pageSize, segs)
	v, err := viewLeaf(id, buf, pageSize, segs)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("viewLeaf error %v, decodeLeaf error %v", err, refErr)
	}
	if err != nil {
		return
	}
	if v.id != ref.id || v.segs != ref.segs || v.next != ref.next || v.sorted != ref.sorted || v.total != len(ref.entries) {
		t.Fatalf("view %+v, decoder %+v", v, ref)
	}
	for i, e := range ref.entries {
		if got := kv.GetEntry(v.entryAt(i)); got != e {
			t.Fatalf("entry %d: view %+v, decoder %+v", i, got, e)
		}
	}
	for i := 1; i < ref.sorted; i++ {
		if ref.entries[i-1].Rec.Key > ref.entries[i].Rec.Key {
			return
		}
	}
	for _, k := range probeKeys(ref) {
		ge, gok := v.lookup(k)
		we, wok := scanRef(ref, k)
		if ge != we || gok != wok {
			t.Fatalf("lookup(%d): view %+v,%v, decode-then-scan %+v,%v", k, ge, gok, we, wok)
		}
	}
	live := ref.liveRecords()
	var tail []kv.Entry
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		var want []kv.Record
		for _, rec := range live {
			if rec.Key >= lo && rec.Key < hi {
				want = append(want, rec)
			}
		}
		got := v.appendLive(nil, lo, hi, &tail)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("appendLive(%d, %d) = %v, liveRecords in range %v", lo, hi, got, want)
		}
		if b := v.liveBound(lo, hi); b < len(got) {
			t.Fatalf("liveBound(%d, %d) = %d < %d records", lo, hi, b, len(got))
		}
	}
}

// leafRanges returns ranges over l's keys: the whole key space, an empty
// and a reversed one, and ones starting, ending and falling between the
// leaf's first, middle and last keys.
func leafRanges(l *leafNode) [][2]kv.Key {
	out := [][2]kv.Key{{0, math.MaxUint64}, {20, 20}, {30, 10}}
	if len(l.entries) == 0 {
		return out
	}
	for _, e := range []kv.Entry{l.entries[0], l.entries[len(l.entries)/2], l.entries[len(l.entries)-1]} {
		k := e.Rec.Key
		out = append(out, [2]kv.Key{k, k + 1}, [2]kv.Key{k - 1, k}, [2]kv.Key{0, k}, [2]kv.Key{k, k + 40}, [2]kv.Key{k + 1, math.MaxUint64})
	}
	return out
}

// genLeaf builds a leaf with a sorted base of baseN inserts followed by a
// tail of tailN arbitrary operations, over a key domain small enough that
// keys repeat within the base, within the tail and between the two.
func genLeaf(rng *rand.Rand, segs, baseN, tailN int) *leafNode {
	l := &leafNode{id: 7, segs: segs, next: pagefile.PageID(rng.Intn(1000))}
	k := kv.Key(10)
	for i := 0; i < baseN; i++ {
		if rng.Intn(8) > 0 {
			k += kv.Key(1 + rng.Intn(5))
		}
		l.entries = append(l.entries, kv.Entry{Rec: kv.Record{Key: k, Value: rng.Uint64()}, Op: kv.OpInsert})
	}
	l.sorted = baseN
	for i := 0; i < tailN; i++ {
		e := kv.Entry{Rec: kv.Record{Key: 8 + kv.Key(rng.Intn(int(k))), Value: rng.Uint64()}}
		e.Op = []kv.Op{kv.OpInsert, kv.OpUpdate, kv.OpDelete}[rng.Intn(3)]
		l.entries = append(l.entries, e)
	}
	return l
}

// encodeLeafT encodes a whole leaf and returns the buffer with the index of
// the last segment that holds an entry.
func encodeLeafT(t testing.TB, l *leafNode, pageSize int) ([]byte, int) {
	t.Helper()
	buf := make([]byte, l.segs*pageSize)
	if err := l.encodeAll(buf, pageSize); err != nil {
		t.Fatal(err)
	}
	return buf, l.lastSeg(pageSize)
}

func TestLeafViewMatchesDecode(t *testing.T) {
	c := segCap(viewPS)
	rng := rand.New(rand.NewSource(19))
	for _, segs := range []int{1, 4} {
		capacity := leafCap(viewPS, segs)
		// Totals on and around every segment boundary, split every way
		// between base and tail that includes all-base and all-tail.
		totals := []int{0, 1, c - 1, c, c + 1, 2 * c, 3*c - 1, 3 * c, capacity - 1, capacity}
		for _, total := range totals {
			if total > capacity {
				continue
			}
			for _, baseN := range []int{0, total / 3, total - 1, total} {
				if baseN < 0 {
					continue
				}
				l := genLeaf(rng, segs, baseN, total-baseN)
				buf, last := encodeLeafT(t, l, viewPS)
				for upto := last; upto < segs; upto++ {
					checkLeafView(t, buf[:(upto+1)*viewPS], viewPS, segs, leafRanges(l)...)
				}
			}
		}
	}
}

func TestInternalViewMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	max := maxInternalKeys(viewPS)
	for _, count := range []int{0, 1, 2, max / 2, max - 1, max} {
		n := &internalNode{id: 3, level: 1}
		k := kv.Key(5)
		for i := 0; i <= count; i++ {
			if i > 0 {
				k += kv.Key(2 + rng.Intn(9))
				n.keys = append(n.keys, k)
			}
			n.children = append(n.children, pagefile.PageID(rng.Int63()))
		}
		page := make([]byte, viewPS)
		if err := n.encode(page); err != nil {
			t.Fatal(err)
		}
		ref, err := decodeInternal(n.id, page)
		if err != nil {
			t.Fatal(err)
		}
		v, err := viewInternal(n.id, page)
		if err != nil {
			t.Fatal(err)
		}
		if v.count != len(ref.keys) {
			t.Fatalf("count %d, decoder %d", v.count, len(ref.keys))
		}
		for i, c := range ref.children {
			if v.child(i) != c {
				t.Fatalf("child(%d) = %d, decoder %d", i, v.child(i), c)
			}
		}
		probes := []kv.Key{0, math.MaxUint64}
		for _, s := range ref.keys {
			probes = append(probes, s-1, s, s+1)
		}
		for _, k := range probes {
			if got, want := v.childIndex(k), ref.childIndex(k); got != want {
				t.Fatalf("count %d: childIndex(%d) = %d, decoder %d", count, k, got, want)
			}
		}
	}
}

// TestViewsRejectWhatDecodersReject corrupts one header field at a time.
func TestViewsRejectWhatDecodersReject(t *testing.T) {
	c := segCap(viewPS)
	l := genLeaf(rand.New(rand.NewSource(19)), 4, c+3, 4) // seg 0 full, seg 1 half
	leaf, _ := encodeLeafT(t, l, viewPS)
	for name, corrupt := range map[string]func(b []byte){
		"seg 0 kind":     func(b []byte) { b[0] = kindInternal },
		"seg 1 kind":     func(b []byte) { b[viewPS] = 0 },
		"seg 0 count":    func(b []byte) { binary.LittleEndian.PutUint16(b[2:], uint16(c+1)) },
		"seg 1 count":    func(b []byte) { binary.LittleEndian.PutUint16(b[viewPS+2:], math.MaxUint16) },
		"sorted > total": func(b []byte) { binary.LittleEndian.PutUint32(b[4:], uint32(c+8)) },
	} {
		buf := append([]byte(nil), leaf...)
		corrupt(buf)
		for upto := 1; upto < 4; upto++ {
			if _, err := viewLeaf(7, buf[:(upto+1)*viewPS], viewPS, 4); err == nil {
				t.Fatalf("%s: view over %d segments accepted the page", name, upto+1)
			}
			checkLeafView(t, buf[:(upto+1)*viewPS], viewPS, 4)
		}
	}

	n := &internalNode{id: 3, level: 1, keys: []kv.Key{10}, children: []pagefile.PageID{1, 2}}
	page := make([]byte, viewPS)
	if err := n.encode(page); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(b []byte){
		"kind":  func(b []byte) { b[0] = kindLeafSeg },
		"count": func(b []byte) { binary.LittleEndian.PutUint16(b[2:], uint16(maxInternalKeys(viewPS)+1)) },
	} {
		buf := append([]byte(nil), page...)
		corrupt(buf)
		_, refErr := decodeInternal(3, buf)
		_, err := viewInternal(3, buf)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("internal %s: view error %v, decoder error %v", name, err, refErr)
		}
	}
}

// FuzzLeafView runs checkLeafView over generated leaves — shape, read
// length, up to four header-byte corruptions and a key range [lo, hi)
// chosen by the fuzzer — so the view and the decoder are compared on pages
// no table lists.
func FuzzLeafView(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), true, uint8(0), []byte{}, uint16(0), uint16(100))
	f.Add(uint64(2), uint16(14), uint16(0), true, uint8(1), []byte{}, uint16(20), uint16(40))
	f.Add(uint64(3), uint16(20), uint16(9), true, uint8(0), []byte{0, 2, 15}, uint16(30), uint16(30))
	f.Add(uint64(4), uint16(5), uint16(5), false, uint8(0), []byte{0, 4, 200}, uint16(25), uint16(12))
	f.Fuzz(func(t *testing.T, seed uint64, baseN, tailN uint16, wide bool, extra uint8, mut []byte, lo, hi uint16) {
		segs := 1
		if wide {
			segs = 4
		}
		capacity := leafCap(viewPS, segs)
		base := int(baseN) % (capacity + 1)
		tail := int(tailN) % (capacity - base + 1)
		l := genLeaf(rand.New(rand.NewSource(int64(seed))), segs, base, tail)
		buf, last := encodeLeafT(t, l, viewPS)
		n := last + 1 + int(extra)%(segs-last)
		buf = buf[:n*viewPS]
		for i := 0; i+3 <= len(mut) && i < 12; i += 3 {
			buf[int(mut[i])%n*viewPS+int(mut[i+1])%segHeaderSize] = mut[i+2]
		}
		checkLeafView(t, buf, viewPS, segs, [2]kv.Key{kv.Key(lo), kv.Key(hi)})
	})
}

// TestSinglePageLeavesThroughTinyPool: with L = 1 the leaves share the
// pool with the internal nodes, so Search views a frame the next miss
// refills and the batch paths must own what they view. A pool too small
// for one root-to-leaf path makes every call recycle frames; the answers
// must still match the model on all three read paths.
func TestSinglePageLeavesThroughTinyPool(t *testing.T) {
	for _, frames := range []int{1, 2, 3} {
		cfg := allocCfg(frames)
		cfg.LeafSegs = 1
		tr := newTestTree(t, cfg)
		const n = 3000
		if err := tr.BulkLoad(allocRecs(n)); err != nil {
			t.Fatal(err)
		}
		if tr.Height() < 3 {
			t.Fatalf("height %d, want >= 3", tr.Height())
		}
		rng := rand.New(rand.NewSource(int64(frames)))
		var at vtime.Ticks
		for round := 0; round < 40; round++ {
			keys := make([]kv.Key, 32)
			for i := range keys {
				keys[i] = kv.Key(rng.Intn(n*8 + 8))
			}
			want := func(k kv.Key) (kv.Value, bool) { return kv.Value(k / 8), k%8 == 3 && k/8 < n }
			m, at2, err := tr.SearchMany(at, keys)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				wv, wok := want(k)
				if v, ok := m[k]; ok != wok || ok && v != wv {
					t.Fatalf("frames %d: SearchMany[%d] = %d,%v want %d,%v", frames, k, v, ok, wv, wok)
				}
				v, ok, at3, err := tr.Search(at2, k)
				if err != nil || ok != wok || ok && v != wv {
					t.Fatalf("frames %d: Search(%d) = %d,%v,%v want %d,%v", frames, k, v, ok, err, wv, wok)
				}
				at2 = at3
			}
			lo := keys[0]
			recs, at2, err := tr.RangeSearch(at2, lo, lo+400)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range recs {
				if wv, wok := want(r.Key); !wok || r.Value != wv || r.Key < lo || r.Key >= lo+400 ||
					i > 0 && recs[i-1].Key+8 != r.Key {
					t.Fatalf("frames %d: RangeSearch(%d,+400)[%d] = %+v", frames, lo, i, r)
				}
			}
			if wantN := countKeys(lo, lo+400, n); len(recs) != wantN {
				t.Fatalf("frames %d: RangeSearch(%d,+400) returned %d records, want %d", frames, lo, len(recs), wantN)
			}
			at = at2
		}
	}
}

// countKeys counts the allocRecs(n) keys (8i+3) in [lo, hi).
func countKeys(lo, hi kv.Key, n int) int {
	c := 0
	for k := lo; k < hi; k++ {
		if k%8 == 3 && k/8 < kv.Key(n) {
			c++
		}
	}
	return c
}
