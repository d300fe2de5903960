package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bufferpool"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// Config parameterizes a PIO B-tree.
type Config struct {
	// PageSize is the internal-node and Leaf Segment size in bytes (the
	// pagefile page size).
	PageSize int
	// LeafSegs is L, the leaf node size in segments (Section 3.2.2).
	LeafSegs int
	// OPQPages is O, the Operation Queue size in pages; its entry capacity
	// is OPQPages*PageSize/EntrySize.
	OPQPages int
	// PioMax bounds the number of I/Os per psync call (Section 3.1.1);
	// defaults to 64 when zero, the paper's setting.
	PioMax int
	// SPeriod is the OPQ sort period (paper default 5000).
	SPeriod int
	// BCnt bounds the entries processed by one batch update (paper default
	// 5000); <= 0 flushes the whole OPQ.
	BCnt int
	// BufferBytes is the internal-node buffer pool budget in bytes.
	BufferBytes int
	// CPUPerNode is CPU time charged per node examined.
	CPUPerNode vtime.Ticks
	// FillFactor is the bulk-load utilization (paper's U); default 0.7.
	FillFactor float64

	// DisableLSMap turns the last-LS cache off (ablation): every leaf read
	// then covers the whole leaf, segments [0, L-1], as an LSMap miss does.
	DisableLSMap bool
	// DisablePsync makes every batched read/write a sequence of sync I/Os
	// (ablation isolating the psync contribution). Single trees only:
	// NewForest rejects it, since a group flush gangs psync writes.
	DisablePsync bool
	// SortedLeaves disables the append-only leaf optimization (ablation):
	// every leaf update reads the whole leaf, applies the operations into
	// the sorted base region, and rewrites the whole leaf — the classic
	// B+-tree behavior the paper's Section 3.2.2 replaces ("This
	// constraint makes on average a half of the entire leaf node updated
	// for every index-insert operation").
	SortedLeaves bool

	// Relation is the index relation id recorded in WAL records.
	Relation uint32

	// Retry bounds the transient-fault retry loop of every timed I/O
	// (see RetryPolicy; the zero value enables the defaults).
	Retry RetryPolicy
}

func (c *Config) fill() float64 {
	if c.FillFactor <= 0 || c.FillFactor > 1 {
		return 0.7
	}
	return c.FillFactor
}

func (c *Config) pioMax() int {
	if c.PioMax <= 0 {
		return 64
	}
	return c.PioMax
}

// LeafEntryEstimate returns the expected entries per leaf at the default
// fill factor, for sizing auxiliary structures (e.g. the LSMap budget).
func (c Config) LeafEntryEstimate() int {
	n := int(float64(leafCap(c.PageSize, c.LeafSegs)) * c.fill())
	if n < 1 {
		return 1
	}
	return n
}

// Tree is a PIO B-tree. Not safe for concurrent use; a one-shard Forest
// is the multi-thread scheme of Section 4.2 over one tree.
type Tree struct {
	cfg   Config
	pf    *pagefile.PageFile
	pool  *bufferpool.Pool // internal nodes only (clean frames)
	opq   *OPQ
	lsmap *LSMap

	root   pagefile.PageID
	height int // levels including the leaf level; 1 = root is a leaf
	count  int64

	// durableMeta is the structural state as of the last durable commit
	// point (creation, bulk load, inline flush commit, group-commit
	// phase 2, recovery). Quarantine rollback restores it before
	// replaying the durable log.
	durableMeta Meta

	log     *wal.Log // optional
	flushID uint64
	// lowWater is where the log head may move (lowwater.go).
	lowWater lowWater

	stats Stats
	buf   []byte // page scratch: bulk load's encodes, a flush's pre-images
	// arena and scratch are the read side's buffers, flush the write
	// side's (see scan.go). One of each per tree is enough only because a
	// tree is never entered concurrently — callers hold forestShard.mu;
	// reads under a shared lock would each need their own.
	arena   arena
	scratch readScratch
	flush   flushScratch
	// pendingInternal holds split internal siblings, encoded in the flush
	// arena, until the next internal-node write.
	pendingInternal []pagefile.RunReq
}

// Stats counts PIO B-tree activity.
type Stats struct {
	Flushes      int64 // batch-update passes
	Shrinks      int64
	LeafSplits   int64
	LeafAppends  int64
	PsyncReads   int64 // psync read calls
	PsyncWrites  int64
	GangedWrites int64 // write batches deferred into a forest gang
	SearchOps    int64
	UpdateOps    int64
	RangeOps     int64
	OPQShortcuts int64 // searches answered from the OPQ

	// Retry activity (IORetries, IORetryBackoff, IORetriesExhausted).
	retryStats
}

// New creates an empty PIO B-tree on pf.
func New(pf *pagefile.PageFile, cfg Config) (*Tree, error) {
	if pf.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("core: pagefile page size %d != config %d", pf.PageSize(), cfg.PageSize)
	}
	if cfg.LeafSegs < 1 || cfg.LeafSegs > 128 {
		return nil, fmt.Errorf("core: LeafSegs must be in [1,128], got %d", cfg.LeafSegs)
	}
	if maxInternalKeys(cfg.PageSize) < 4 || segCap(cfg.PageSize) < 4 {
		return nil, fmt.Errorf("core: page size %d too small", cfg.PageSize)
	}
	if cfg.OPQPages < 1 {
		return nil, fmt.Errorf("core: OPQPages must be >= 1, got %d", cfg.OPQPages)
	}
	frames := cfg.BufferBytes / cfg.PageSize
	if frames < 1 {
		frames = 1
	}
	pool, err := bufferpool.New(pf, frames, bufferpool.WriteThrough)
	if err != nil {
		return nil, err
	}
	opqCap := cfg.OPQPages * cfg.PageSize / kv.EntrySize
	opq, err := newOPQ(opqCap, cfg.SPeriod)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:   cfg,
		pf:    pf,
		pool:  pool,
		opq:   opq,
		lsmap: newLSMap(cfg.LeafSegs),
		buf:   make([]byte, cfg.PageSize),
	}
	// Empty tree: one empty leaf as root.
	leaf := &leafNode{id: t.allocLeaf(), segs: cfg.LeafSegs, next: pagefile.InvalidPage}
	if err := t.writeLeafNoCost(leaf); err != nil {
		return nil, err
	}
	t.root = leaf.id
	t.height = 1
	t.lsmap.Set(int64(leaf.id), 0)
	t.commitDurableMeta()
	return t, nil
}

// commitDurableMeta records the structural state at a durable commit
// point; quarantine rollback restores it (see rollbackToDurable).
func (t *Tree) commitDurableMeta() { t.durableMeta = t.Snapshot() }

// retryIO re-attempts a timed I/O op through the tree's retry policy,
// charging backoff on the vtime clock and counting into the tree stats.
func (t *Tree) retryIO(at vtime.Ticks, op func(vtime.Ticks) (vtime.Ticks, error)) (vtime.Ticks, error) {
	return retryTimedIO(t.cfg.Retry, &t.stats.retryStats, at, op)
}

// poolGet reads one page through the buffer pool, retrying transient
// device faults on miss fills (pool hits never fail).
func (t *Tree) poolGet(at vtime.Ticks, id pagefile.PageID) ([]byte, vtime.Ticks, error) {
	var data []byte
	at, err := t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		var err error
		data, at, err = t.pool.Get(at, id)
		return at, err
	})
	return data, at, err
}

// attachWAL enables write-ahead logging (Section 3.4) on the tree.
func (t *Tree) attachWAL(l *wal.Log) { t.log = l }

// forceWAL makes the tree's appended log records durable. During a forest
// group flush (g non-nil) the force is left to the coordinator, which
// issues one ganged force for every member before any data write reaches
// the device. Inline forces retry transient faults; a retried force
// resubmits the whole unforced tail (pendingReq takes it wholesale),
// preserving WAL protocol order.
func (t *Tree) forceWAL(at vtime.Ticks, g *groupIO) (vtime.Ticks, error) {
	if g != nil {
		return at, nil
	}
	return t.retryIO(at, t.log.Force)
}

// Count returns the number of live records (OPQ included).
func (t *Tree) Count() int64 { return t.count }

// Height returns the number of levels (the paper's H).
func (t *Tree) Height() int { return t.height }

// Stats returns a snapshot of the tree counters.
func (t *Tree) Stats() Stats { return t.stats }

// Pool exposes the internal-node buffer pool.
func (t *Tree) Pool() *bufferpool.Pool { return t.pool }

// OPQLen returns the number of queued update operations.
func (t *Tree) OPQLen() int { return t.opq.Len() }

// leafCapacity returns the entry capacity of one leaf.
func (t *Tree) leafCapacity() int { return leafCap(t.cfg.PageSize, t.cfg.LeafSegs) }

// approxRank estimates the share of the tree's keys below k from the
// root alone: the children of the root left of k's child, plus half of
// that one, or the live records of a root leaf below k. AutoRebalance
// uses it to pick the cheaper end of a hot shard to move; the read has
// no simulated cost.
func (t *Tree) approxRank(k kv.Key) (float64, bool) {
	if t.height == 1 {
		l, err := t.readWholeLeafNoCost(t.root)
		if err != nil {
			return 0, false
		}
		recs := l.liveRecords()
		if len(recs) == 0 {
			return 0, false
		}
		below, _ := slices.BinarySearchFunc(recs, k, func(r kv.Record, k kv.Key) int { return cmp.Compare(r.Key, k) })
		return float64(below) / float64(len(recs)), true
	}
	buf := make([]byte, t.cfg.PageSize)
	if err := t.pf.ReadPageNoCost(t.root, buf); err != nil {
		return 0, false
	}
	n, err := decodeInternal(t.root, buf)
	if err != nil || len(n.keys) == 0 {
		return 0, false
	}
	return (float64(n.childIndex(k)) + 0.5) / float64(len(n.keys)+1), true
}

// allocLeaf allocates LeafSegs consecutive pages and returns the first id.
func (t *Tree) allocLeaf() pagefile.PageID { return t.pf.AllocRun(t.cfg.LeafSegs) }

// writeLeafNoCost serializes a whole leaf without simulated cost.
func (t *Tree) writeLeafNoCost(l *leafNode) error {
	buf := make([]byte, l.segs*t.cfg.PageSize)
	if err := l.encodeAll(buf, t.cfg.PageSize); err != nil {
		return err
	}
	for s := 0; s < l.segs; s++ {
		if err := t.pf.WritePageNoCost(l.id+pagefile.PageID(s), buf[s*t.cfg.PageSize:(s+1)*t.cfg.PageSize]); err != nil {
			return err
		}
	}
	return nil
}

// searchLeaf reads segments [0, upto] of a leaf as one device request into
// the tree's arena and views them in place. The partial view is safe
// because appends fill segments in order and upto comes from the LSMap (or
// the full leaf size). The view is valid until the tree's next read.
//
// Single-segment leaves (L=1, the paper's Section 4.2 configuration) are
// exactly one page and flow through the buffer pool like internal nodes —
// the pool simply holds whatever nodes fit, as the paper's "the rest of
// main memory space was allocated to the buffer pool" implies — so their
// view is over a pool frame and valid only until the next pool call.
// Multi-segment leaves bypass the pool (their read cost is the Pr(L) term
// of the cost model).
func (t *Tree) searchLeaf(at vtime.Ticks, id pagefile.PageID, upto int) (leafView, vtime.Ticks, error) {
	if t.cfg.LeafSegs == 1 {
		page, at, err := t.poolGet(at, id)
		if err != nil {
			return leafView{}, at, err
		}
		v, err := viewLeaf(id, page, t.cfg.PageSize, 1)
		return v, at + t.cfg.CPUPerNode, err
	}
	n := upto + 1
	t.arena.reset(n * t.cfg.PageSize)
	buf := t.arena.take(n * t.cfg.PageSize)
	at, err := t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.ReadRun(at, id, n, buf)
	})
	if err != nil {
		return leafView{}, at, err
	}
	v, err := viewLeaf(id, buf, t.cfg.PageSize, t.cfg.LeafSegs)
	return v, at + t.cfg.CPUPerNode, err
}

// readWholeLeafNoCost reads a full leaf without timing (setup/validation).
func (t *Tree) readWholeLeafNoCost(id pagefile.PageID) (*leafNode, error) {
	buf := make([]byte, t.cfg.LeafSegs*t.cfg.PageSize)
	for s := 0; s < t.cfg.LeafSegs; s++ {
		if err := t.pf.ReadPageNoCost(id+pagefile.PageID(s), buf[s*t.cfg.PageSize:(s+1)*t.cfg.PageSize]); err != nil {
			return nil, err
		}
	}
	return decodeLeaf(id, buf, t.cfg.PageSize, t.cfg.LeafSegs)
}

// lastLSOf returns the last segment to read of leaf id: the LSMap hit
// gives the exact last LS; a miss (or disabled map) gives L-1, the whole
// leaf.
func (t *Tree) lastLSOf(id pagefile.PageID) (int, bool) {
	if t.cfg.DisableLSMap {
		return t.cfg.LeafSegs - 1, false
	}
	return t.lsmap.Get(int64(id))
}

// Search looks up key k. The OPQ is inspected first (Section 3.3: "the
// search procedures inspect if there are update operations with the key
// values they are looking for"), then the tree is descended, internal
// nodes through the buffer pool and the leaf with one multi-page read. The
// encoded pages are searched in place: nothing is decoded or allocated.
func (t *Tree) Search(at vtime.Ticks, k kv.Key) (kv.Value, bool, vtime.Ticks, error) {
	t.stats.SearchOps++
	if e, ok := t.opq.Lookup(k); ok {
		t.stats.OPQShortcuts++
		at += t.cfg.CPUPerNode
		switch e.Op {
		case kv.OpDelete:
			return 0, false, at, nil
		default:
			return e.Rec.Value, true, at, nil
		}
	}
	id := t.root
	for lvl := t.height - 1; lvl > 0; lvl-- {
		// The view is over a pool frame the next poolGet may refill; it is
		// done with by then.
		page, at2, err := t.poolGet(at, id)
		if err != nil {
			return 0, false, at2, err
		}
		at = at2
		n, err := viewInternal(id, page)
		if err != nil {
			return 0, false, at, err
		}
		at += t.cfg.CPUPerNode
		id = n.child(n.childIndex(k))
	}
	upto, _ := t.lastLSOf(id)
	leaf, at, err := t.searchLeaf(at, id, upto)
	if err != nil {
		return 0, false, at, err
	}
	e, ok := leaf.lookup(k)
	if !ok || e.Op == kv.OpDelete {
		return 0, false, at, nil
	}
	return e.Rec.Value, true, at, nil
}

// Insert buffers an index-insert in the OPQ; the operation completes
// immediately unless the queue is full, in which case it pays for one
// batch update (the paper's lengthened-latency compromise).
func (t *Tree) Insert(at vtime.Ticks, r kv.Record) (vtime.Ticks, error) {
	return t.enqueue(at, kv.Entry{Rec: r, Op: kv.OpInsert})
}

// Delete buffers an index-delete.
func (t *Tree) Delete(at vtime.Ticks, k kv.Key) (vtime.Ticks, error) {
	return t.enqueue(at, kv.Entry{Rec: kv.Record{Key: k}, Op: kv.OpDelete})
}

// Update buffers an index-update (replacing the data pointer of a key).
func (t *Tree) Update(at vtime.Ticks, r kv.Record) (vtime.Ticks, error) {
	return t.enqueue(at, kv.Entry{Rec: r, Op: kv.OpUpdate})
}

func (t *Tree) enqueue(at vtime.Ticks, e kv.Entry) (vtime.Ticks, error) {
	t.stats.UpdateOps++
	var err error
	if t.opq.Full() {
		at, err = t.FlushBatch(at, t.cfg.BCnt)
		if err != nil {
			return at, err
		}
	}
	if t.log != nil {
		t.log.Append(wal.Record{
			Kind:     wal.KindLogicalRedo,
			Relation: t.cfg.Relation,
			Op:       wal.OpType(e.Op),
			Key:      e.Rec.Key,
			Value:    e.Rec.Value,
		})
	}
	if err := t.opq.Append(e); err != nil {
		return at, err
	}
	switch e.Op {
	case kv.OpInsert:
		t.count++
	case kv.OpDelete:
		t.count--
	}
	// The OPQ append cost is one main-memory page access.
	return at + t.cfg.CPUPerNode, nil
}

// drain flushes the whole OPQ (Section 3.4: "PIO B-tree also flushes all
// the OPQ entries ... when the DBMS system needs to checkpoint"); the
// forest checkpoint drains every shard this way, then gang-forces one
// checkpoint record per shard log.
func (t *Tree) drain(at vtime.Ticks) (vtime.Ticks, error) {
	var err error
	for t.opq.Len() > 0 {
		at, err = t.FlushBatch(at, 0)
		if err != nil {
			return at, err
		}
	}
	return at, nil
}

// BulkLoad builds the tree from key-sorted records at the configured fill
// factor without simulated cost (experiment setup).
func (t *Tree) BulkLoad(recs []kv.Record) error {
	if t.count != 0 || t.opq.Len() != 0 {
		return fmt.Errorf("core: bulk load into non-empty tree")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Key >= recs[i].Key {
			return fmt.Errorf("core: bulk load input not strictly sorted at %d", i)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	perLeaf := int(float64(t.leafCapacity()) * t.cfg.fill())
	if perLeaf < 1 {
		perLeaf = 1
	}
	type built struct {
		id    pagefile.PageID
		first kv.Key
	}
	var level []built
	var prev *leafNode
	for i := 0; i < len(recs); i += perLeaf {
		end := i + perLeaf
		if end > len(recs) {
			end = len(recs)
		}
		l := &leafNode{id: t.allocLeaf(), segs: t.cfg.LeafSegs, next: pagefile.InvalidPage}
		for _, r := range recs[i:end] {
			l.entries = append(l.entries, kv.Entry{Rec: r, Op: kv.OpInsert})
		}
		l.sorted = len(l.entries)
		if prev != nil {
			prev.next = l.id
			if err := t.writeLeafNoCost(prev); err != nil {
				return err
			}
		}
		t.lsmap.Set(int64(l.id), l.lastSeg(t.cfg.PageSize))
		level = append(level, built{id: l.id, first: l.entries[0].Rec.Key})
		prev = l
	}
	if err := t.writeLeafNoCost(prev); err != nil {
		return err
	}

	keyCap := int(float64(maxInternalKeys(t.cfg.PageSize)) * t.cfg.fill())
	if keyCap < 2 {
		keyCap = 2
	}
	height := 1
	for len(level) > 1 {
		var next []built
		childCap := keyCap + 1
		for i := 0; i < len(level); {
			end := i + childCap
			if end >= len(level)-1 {
				end = len(level)
			}
			group := level[i:end]
			n := &internalNode{id: t.pf.Alloc(), level: height}
			for j, b := range group {
				n.children = append(n.children, b.id)
				if j > 0 {
					n.keys = append(n.keys, b.first)
				}
			}
			if err := n.encode(t.buf); err != nil {
				return err
			}
			if err := t.pf.WritePageNoCost(n.id, t.buf); err != nil {
				return err
			}
			next = append(next, built{id: n.id, first: group[0].first})
			i = end
		}
		level = next
		height++
	}
	t.root = level[0].id
	t.height = height
	t.count = int64(len(recs))
	t.commitDurableMeta()
	return nil
}

// CheckInvariants walks the whole tree without timing and verifies
// structural invariants: internal keys sorted, children in range, leaf
// base regions sorted, leaf chain ordered, live count consistent with the
// tracked count.
func (t *Tree) CheckInvariants() error {
	var liveTotal int64
	var walk func(id pagefile.PageID, level int, lo, hi kv.Key, hasLo, hasHi bool) error
	walk = func(id pagefile.PageID, level int, lo, hi kv.Key, hasLo, hasHi bool) error {
		if level == 0 {
			l, err := t.readWholeLeafNoCost(id)
			if err != nil {
				return err
			}
			for i := 1; i < l.sorted; i++ {
				if l.entries[i-1].Rec.Key > l.entries[i].Rec.Key {
					return fmt.Errorf("core: leaf %d base region unsorted at %d", id, i)
				}
			}
			for _, r := range l.liveRecords() {
				if hasLo && r.Key < lo {
					return fmt.Errorf("core: leaf %d key %d below bound %d", id, r.Key, lo)
				}
				if hasHi && r.Key >= hi {
					return fmt.Errorf("core: leaf %d key %d above bound %d", id, r.Key, hi)
				}
				liveTotal++
			}
			return nil
		}
		buf := make([]byte, t.cfg.PageSize)
		if err := t.pf.ReadPageNoCost(id, buf); err != nil {
			return err
		}
		n, err := decodeInternal(id, buf)
		if err != nil {
			return err
		}
		if n.level != level {
			return fmt.Errorf("core: node %d level %d, want %d", id, n.level, level)
		}
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("core: internal %d unsorted at %d", id, i)
			}
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			cHasLo, cHasHi := hasLo, hasHi
			if i > 0 {
				clo, cHasLo = n.keys[i-1], true
			}
			if i < len(n.keys) {
				chi, cHasHi = n.keys[i], true
			}
			if err := walk(c, level-1, clo, chi, cHasLo, cHasHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height-1, 0, 0, false, false); err != nil {
		return err
	}
	// Overlay the OPQ to compute the logical count.
	logical := liveTotal
	for _, e := range t.opq.Entries() {
		switch e.Op {
		case kv.OpInsert:
			logical++
		case kv.OpDelete:
			logical--
		}
	}
	if logical != t.count {
		return fmt.Errorf("core: count mismatch: logical %d, tracked %d", logical, t.count)
	}
	return nil
}
