// Package core implements the paper's primary contribution: the PIO B-tree
// (Parallel I/O B-tree, Section 3), a B+-tree variant whose algorithms are
// rebuilt around psync I/O so the index exploits the internal parallelism
// of flash SSDs:
//
//   - MPSearch descends the tree level by level, reading all needed nodes
//     of a level in one psync call bounded by PioMax (Algorithm 1);
//   - updates are buffered in the Operation Queue (OPQ) and batch-applied
//     by bupdate, which reads and writes leaf pages via psync (Algorithm 2);
//   - leaves are asymmetric: L Leaf Segments (LS) of one page each with an
//     append-only entry log, so an update touches a single page; the LSMap
//     caches each leaf's last-LS id; shrink cancels insert/delete pairs
//     before splits (Section 3.2.2, Algorithm 3);
//   - prange search reads the leaves of a key range in parallel instead of
//     chasing the leaf chain (Section 3.1.2);
//   - node sizes are chosen by the cost model of Section 3.2.1/3.6.
package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/kv"
	"repro/internal/pagefile"
)

// node kinds on disk.
const (
	kindInternal byte = 1
	kindLeafSeg  byte = 3
)

// internalHeaderSize is the header of an internal node page:
// kind(1) level(1) count(2) pad(12).
const internalHeaderSize = 16

// segHeaderSize is the header of every leaf segment page: kind(1)
// segIdx(1) count(2) sortedCount(4) next(8). sortedCount and next are
// meaningful only in segment 0.
const segHeaderSize = 16

// internalNode is the in-memory form of a PIO B-tree internal node
// (identical to a classic B+-tree internal node, Figure 5).
type internalNode struct {
	id       pagefile.PageID
	level    int
	keys     []kv.Key
	children []pagefile.PageID
}

// maxInternalKeys is the separator capacity of an internal node page.
func maxInternalKeys(pageSize int) int { return (pageSize - internalHeaderSize - 8) / 16 }

func (n *internalNode) encode(buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	if len(n.keys) > maxInternalKeys(len(buf)) {
		return fmt.Errorf("core: internal %d overflow: %d keys", n.id, len(n.keys))
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("core: internal %d: %d keys, %d children", n.id, len(n.keys), len(n.children))
	}
	buf[0] = kindInternal
	buf[1] = byte(n.level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.keys)))
	off := internalHeaderSize
	for _, k := range n.keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
	}
	for _, c := range n.children {
		binary.LittleEndian.PutUint64(buf[off:], uint64(c))
		off += 8
	}
	return nil
}

func decodeInternal(id pagefile.PageID, buf []byte) (*internalNode, error) {
	v, err := viewInternal(id, buf)
	if err != nil {
		return nil, err
	}
	n := new(internalNode)
	v.decodeInto(n, id)
	return n, nil
}

// childIndex is the paper's CheckSearchNeeded predicate: the child i such
// that K[i-1] <= k < K[i].
func (n *internalNode) childIndex(k kv.Key) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if k < n.keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// internalView reads an encoded internal node in place: the search side's
// counterpart of internalNode, which the flush side decodes because it
// mutates. A view aliases the page it was made from and is valid only as
// long as those bytes are — for a buffer-pool frame, until the next pool
// call (see bufferpool.Pool.Get).
type internalView struct {
	page  []byte
	count int // separator keys; count+1 children follow them
}

// viewInternal validates an internal node page; decodeInternal checks
// nothing more.
func viewInternal(id pagefile.PageID, page []byte) (internalView, error) {
	if page[0] != kindInternal {
		return internalView{}, fmt.Errorf("core: page %d is not an internal node (kind %d)", id, page[0])
	}
	count := int(binary.LittleEndian.Uint16(page[2:]))
	if count > maxInternalKeys(len(page)) {
		return internalView{}, fmt.Errorf("core: corrupt internal %d: count %d", id, count)
	}
	return internalView{page: page, count: count}, nil
}

func (v internalView) key(i int) kv.Key {
	return binary.LittleEndian.Uint64(v.page[internalHeaderSize+8*i:])
}

// child returns child pointer i, 0 <= i <= count.
func (v internalView) child(i int) pagefile.PageID {
	return pagefile.PageID(binary.LittleEndian.Uint64(v.page[internalHeaderSize+8*(v.count+i):]))
}

// decodeInto copies the node out of its page into n, reusing n's slices:
// the form the flush side mutates.
func (v internalView) decodeInto(n *internalNode, id pagefile.PageID) {
	n.id, n.level = id, int(v.page[1])
	n.keys = slices.Grow(n.keys[:0], v.count)[:v.count]
	n.children = slices.Grow(n.children[:0], v.count+1)[:v.count+1]
	for i := range n.keys {
		n.keys[i] = v.key(i)
	}
	for i := range n.children {
		n.children[i] = v.child(i)
	}
}

// childIndex is internalNode.childIndex over the encoded separators.
func (v internalView) childIndex(k kv.Key) int {
	lo, hi := 0, v.count
	for lo < hi {
		mid := (lo + hi) / 2
		if k < v.key(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafNode is the in-memory form of an asymmetric PIO B-tree leaf: L
// segments of one page each holding an append-only log of OPQ-style
// entries. entries[:sorted] is the key-sorted base region produced by the
// last shrink (all inserts); entries[sorted:] is the appended tail in
// arrival order (any op type).
//
// Only the paths that rebuild a leaf decode one: the shrink/split arm of a
// flush, bulk load, recovery and the invariant walks. A flush's append arm
// edits the encoded last segment in place (appendRun), and the readers
// search the encoded segments through leafView.
type leafNode struct {
	id      pagefile.PageID // first segment's page id; segments are consecutive
	segs    int             // L
	next    pagefile.PageID // right sibling (leaf chain)
	sorted  int
	entries []kv.Entry
}

// segCap is the entry capacity of one leaf segment page.
func segCap(pageSize int) int { return (pageSize - segHeaderSize) / kv.EntrySize }

// leafCap is the total entry capacity of a leaf with the given shape.
func leafCap(pageSize, segs int) int { return segs * segCap(pageSize) }

// segOf returns the segment index holding entry i.
func segOf(pageSize, i int) int { return i / segCap(pageSize) }

// encodeSeg serializes segment s of the leaf into buf (one page).
func (l *leafNode) encodeSeg(buf []byte, s int) error {
	if s < 0 || s >= l.segs {
		return fmt.Errorf("core: leaf %d: segment %d outside [0,%d)", l.id, s, l.segs)
	}
	clear(buf)
	cap1 := segCap(len(buf))
	lo := min(s*cap1, len(l.entries))
	hi := min(lo+cap1, len(l.entries))
	buf[0] = kindLeafSeg
	buf[1] = byte(s)
	binary.LittleEndian.PutUint16(buf[2:], uint16(hi-lo))
	if s == 0 {
		binary.LittleEndian.PutUint32(buf[4:], uint32(l.sorted))
		binary.LittleEndian.PutUint64(buf[8:], uint64(l.next))
	}
	off := segHeaderSize
	for _, e := range l.entries[lo:hi] {
		kv.PutEntry(buf[off:], e)
		off += kv.EntrySize
	}
	return nil
}

// encodeAll serializes the whole leaf into buf (segs pages).
func (l *leafNode) encodeAll(buf []byte, pageSize int) error {
	if len(buf) != l.segs*pageSize {
		return fmt.Errorf("core: leaf %d: buffer %d bytes, want %d", l.id, len(buf), l.segs*pageSize)
	}
	for s := 0; s < l.segs; s++ {
		if err := l.encodeSeg(buf[s*pageSize:(s+1)*pageSize], s); err != nil {
			return err
		}
	}
	return nil
}

// segCount validates the encoded segments in buf — segments first,
// first+1, … of leaf id — and returns the entries they hold. It checks each
// segment's kind and count up to the first one that is not full: the later
// ones are empty by the append invariant, whatever their bytes say.
func segCount(id pagefile.PageID, buf []byte, pageSize, first int) (int, error) {
	c, total := segCap(pageSize), 0
	for s := 0; s < len(buf)/pageSize; s++ {
		page := buf[s*pageSize:]
		if page[0] != kindLeafSeg {
			return 0, fmt.Errorf("core: leaf %d seg %d: bad kind %d", id, first+s, page[0])
		}
		cnt := int(binary.LittleEndian.Uint16(page[2:]))
		if cnt > c {
			return 0, fmt.Errorf("core: leaf %d seg %d: count %d", id, first+s, cnt)
		}
		total += cnt
		if cnt < c {
			break
		}
	}
	return total, nil
}

// appendSegEntries appends to dst the first n entries of the segments in
// buf, which segCount has counted: entry i sits in segment i/segCap.
func appendSegEntries(dst []kv.Entry, buf []byte, n, pageSize int) []kv.Entry {
	c := segCap(pageSize)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, kv.GetEntry(buf[(i/c)*pageSize+segHeaderSize+(i%c)*kv.EntrySize:]))
	}
	return dst
}

// appendRun appends entries to an encoded leaf in place, with the bytes
// decoding the leaf, appending to its log and re-encoding the touched
// segments with encodeSeg would give. run holds segments first, first+1,
// … of the leaf as read, then room for the segments the append opens;
// total is the leaf's entry count. Each entry goes after its segment's
// current count; a newly opened segment is encoded fresh. It returns the
// touched segments [lo, hi], which run holds from (lo-first)*pageSize on.
func appendRun(run []byte, pageSize, first, total int, entries []kv.Entry) (lo, hi int) {
	c := segCap(pageSize)
	lo, hi = total/c, (total+len(entries)-1)/c
	full := segHeaderSize + c*kv.EntrySize
	k := 0
	for s := lo; s <= hi; s++ {
		page := run[(s-first)*pageSize : (s-first+1)*pageSize]
		off := segHeaderSize + max(total-s*c, 0)*kv.EntrySize
		for ; k < len(entries) && off < full; k++ {
			kv.PutEntry(page[off:], entries[k])
			off += kv.EntrySize
		}
		clear(page[off:])
		page[0], page[1] = kindLeafSeg, byte(s)
		binary.LittleEndian.PutUint16(page[2:], uint16((off-segHeaderSize)/kv.EntrySize))
		if s > 0 {
			clear(page[4:segHeaderSize]) // sorted and next live in segment 0
		}
	}
	return lo, hi
}

// decodeLeaf parses a whole leaf from buf (segs consecutive pages).
func decodeLeaf(id pagefile.PageID, buf []byte, pageSize, segs int) (*leafNode, error) {
	if len(buf) != segs*pageSize {
		return nil, fmt.Errorf("core: leaf %d: buffer %d bytes, want %d", id, len(buf), segs*pageSize)
	}
	n, err := segCount(id, buf, pageSize, 0)
	if err != nil {
		return nil, err
	}
	l := &leafNode{
		id:      id,
		segs:    segs,
		sorted:  int(binary.LittleEndian.Uint32(buf[4:])),
		next:    pagefile.PageID(binary.LittleEndian.Uint64(buf[8:])),
		entries: appendSegEntries(nil, buf, n, pageSize),
	}
	if l.sorted > n {
		return nil, fmt.Errorf("core: leaf %d: sorted %d > entries %d", id, l.sorted, n)
	}
	return l, nil
}

// lastSeg returns the segment index holding the newest entry (0 for an
// empty leaf): the last LS cached in the LSMap.
func (l *leafNode) lastSeg(pageSize int) int {
	if len(l.entries) == 0 {
		return 0
	}
	return segOf(pageSize, len(l.entries)-1)
}

// leafView reads an encoded leaf in place from its first segments — the
// run [0, upto] a search reads, upto being the LSMap's last LS. The unread
// segments are treated as empty, which is safe because appends fill
// segments in order. Like internalView it aliases its buffer.
type leafView struct {
	id       pagefile.PageID
	buf      []byte // the viewed segments, one page each
	pageSize int
	segs     int // L, for decode
	total    int // entries in the viewed segments
	sorted   int
	next     pagefile.PageID
}

// viewLeaf validates the segments in buf exactly as decodeLeaf validates a
// whole leaf whose remaining segments are empty: each segment's kind and
// count up to the first non-full one, then sorted against the total.
func viewLeaf(id pagefile.PageID, buf []byte, pageSize, segs int) (leafView, error) {
	n := len(buf) / pageSize
	if n < 1 || n > segs || len(buf) != n*pageSize {
		return leafView{}, fmt.Errorf("core: leaf %d: buffer %d bytes, want 1..%d pages of %d", id, len(buf), segs, pageSize)
	}
	total, err := segCount(id, buf, pageSize, 0)
	if err != nil {
		return leafView{}, err
	}
	v := leafView{
		id:       id,
		buf:      buf,
		pageSize: pageSize,
		segs:     segs,
		total:    total,
		sorted:   int(binary.LittleEndian.Uint32(buf[4:])),
		next:     pagefile.PageID(binary.LittleEndian.Uint64(buf[8:])),
	}
	if v.sorted > v.total {
		return leafView{}, fmt.Errorf("core: leaf %d: sorted %d > entries %d", id, v.sorted, v.total)
	}
	return v, nil
}

// entryAt returns the encoded bytes of entry i: segments before the last
// non-empty one are full, so entry i sits in segment i/segCap.
func (v leafView) entryAt(i int) []byte {
	c := segCap(v.pageSize)
	return v.buf[(i/c)*v.pageSize+segHeaderSize+(i%c)*kv.EntrySize:]
}

func (v leafView) keyAt(i int) kv.Key { return binary.LittleEndian.Uint64(v.entryAt(i)) }

// lookup returns the newest entry for key k and whether any entry exists:
// the appended tail is scanned newest-first, then the sorted base region.
func (v leafView) lookup(k kv.Key) (kv.Entry, bool) {
	for i := v.total - 1; i >= v.sorted; i-- {
		if v.keyAt(i) == k {
			return kv.GetEntry(v.entryAt(i)), true
		}
	}
	// Binary search the base region; take the last of an equal-key run.
	lo, hi := 0, v.sorted
	for lo < hi {
		mid := (lo + hi) / 2
		if v.keyAt(mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && v.keyAt(lo-1) == k {
		return kv.GetEntry(v.entryAt(lo - 1)), true
	}
	return kv.Entry{}, false
}

// baseIndex returns the first base-region index whose key is >= k.
func (v leafView) baseIndex(k kv.Key) int {
	return sort.Search(v.sorted, func(i int) bool { return v.keyAt(i) >= k })
}

// liveBound bounds the number of records appendLive(lo, hi) appends: the
// base entries in range plus the whole tail.
func (v leafView) liveBound(lo, hi kv.Key) int {
	if hi <= lo {
		return 0
	}
	return v.baseIndex(hi) - v.baseIndex(lo) + v.total - v.sorted
}

// appendLive appends to dst, in key order, the leaf's live records with
// lo <= key < hi: liveRecords restricted to the range, resolved from the
// encoded entries. The base region is binary-searched. The in-range tail
// operations are stable-sorted by key in *tail, a scratch slice the caller
// owns, so the last one of a key is its newest, and merged with the base:
// the newest operation of a key wins, and within the base the last entry
// of a key. Nothing is appended for an empty range, so a nil dst stays nil.
func (v leafView) appendLive(dst []kv.Record, lo, hi kv.Key, tail *[]kv.Entry) []kv.Record {
	if hi <= lo {
		return dst
	}
	ops := (*tail)[:0]
	for i := v.sorted; i < v.total; i++ {
		if k := v.keyAt(i); k < lo || k >= hi {
			continue
		}
		// liveRecords skips an entry whose op is none of the three.
		if e := kv.GetEntry(v.entryAt(i)); e.Op == kv.OpInsert || e.Op == kv.OpUpdate || e.Op == kv.OpDelete {
			ops = append(ops, e)
		}
	}
	*tail = ops
	kv.SortEntries(ops)
	b, end := v.baseIndex(lo), v.baseIndex(hi)
	// base appends the base records below key k, the last of each key.
	base := func(k kv.Key) {
		for ; b < end && v.keyAt(b) < k; b++ {
			if b+1 == end || v.keyAt(b+1) != v.keyAt(b) {
				dst = append(dst, kv.GetRecord(v.entryAt(b)))
			}
		}
	}
	for i := 0; i < len(ops); {
		e := ops[i]
		for i++; i < len(ops) && ops[i].Rec.Key == e.Rec.Key; i++ {
			e = ops[i]
		}
		base(e.Rec.Key)
		for ; b < end && v.keyAt(b) == e.Rec.Key; b++ {
		}
		if e.Op != kv.OpDelete {
			dst = append(dst, e.Rec)
		}
	}
	base(hi)
	return dst
}

// liveRecords resolves the leaf's log into the current sorted set of live
// records (base region plus tail, deletes and updates applied). It is the
// read half of the shrink operation; range scans resolve the same set from
// the encoded leaf (leafView.appendLive).
func (l *leafNode) liveRecords() []kv.Record {
	if len(l.entries) == l.sorted {
		// Fast path: base region only, already sorted, all inserts; the
		// last entry of a key wins, as in the replay below.
		out := make([]kv.Record, 0, l.sorted)
		for _, e := range l.entries[:l.sorted] {
			if n := len(out); n > 0 && out[n-1].Key == e.Rec.Key {
				out[n-1] = e.Rec
				continue
			}
			out = append(out, e.Rec)
		}
		return out
	}
	// Replay the log in arrival order onto the base region. Order tracking
	// is separate from liveness: a delete followed by a re-insert of the
	// same key must not list the key twice.
	m := make(map[kv.Key]kv.Value, len(l.entries))
	inOrder := make(map[kv.Key]bool, len(l.entries))
	order := make([]kv.Key, 0, len(l.entries))
	note := func(k kv.Key) {
		if !inOrder[k] {
			inOrder[k] = true
			order = append(order, k)
		}
	}
	for _, e := range l.entries[:l.sorted] {
		note(e.Rec.Key)
		m[e.Rec.Key] = e.Rec.Value
	}
	for _, e := range l.entries[l.sorted:] {
		switch e.Op {
		case kv.OpInsert, kv.OpUpdate:
			note(e.Rec.Key)
			m[e.Rec.Key] = e.Rec.Value
		case kv.OpDelete:
			delete(m, e.Rec.Key)
		}
	}
	out := make([]kv.Record, 0, len(m))
	for _, k := range order {
		if v, ok := m[k]; ok {
			out = append(out, kv.Record{Key: k, Value: v})
		}
	}
	kv.SortRecords(out)
	return out
}

// shrink rebuilds the leaf from its live records: the paper's shrink
// operation (Section 3.2.2) — index-delete operations cancel index-insert
// operations with the same records, then the survivors are sorted into a
// fresh base region.
func (l *leafNode) shrink() {
	recs := l.liveRecords()
	l.entries = l.entries[:0]
	for _, r := range recs {
		l.entries = append(l.entries, kv.Entry{Rec: r, Op: kv.OpInsert})
	}
	l.sorted = len(l.entries)
}

// minKey returns the smallest live key (only valid for a shrunk leaf with
// at least one entry).
func (l *leafNode) minKey() kv.Key {
	if l.sorted == 0 {
		return 0
	}
	return l.entries[0].Rec.Key
}
