package core

import (
	"fmt"
	"sort"

	"repro/internal/kv"
)

// OPQ is the paper's Operation Queue (Section 3.1.3): an array-based
// in-memory structure holding the index records of buffered update
// operations. The region before sortedOffset is key-sorted; appends go to
// the unsorted tail; every speriod appends the tail is sorted and merged
// into the sorted region (merge-sort style), so in-OPQ searches are a
// binary search of the sorted region plus a linear scan of the short tail.
type OPQ struct {
	entries      []kv.Entry
	sortedOffset int
	capacity     int
	speriod      int
	sinceSort    int

	// spare is the second buffer Sort and TakeBatch swap with entries.
	spare []kv.Entry

	// Sorts counts merge passes, Appends total appends (stats).
	Sorts   int64
	Appends int64
}

// NewOPQ creates a queue holding at most capacity entries, sorting every
// speriod appends. speriod <= 0 disables periodic sorting (always linear
// tail).
func NewOPQ(capacity, speriod int) (*OPQ, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("core: OPQ capacity must be >= 1, got %d", capacity)
	}
	return &OPQ{
		entries:  make([]kv.Entry, 0, capacity),
		capacity: capacity,
		speriod:  speriod,
	}, nil
}

// Len returns the number of queued entries.
func (q *OPQ) Len() int { return len(q.entries) }

// Cap returns the queue capacity.
func (q *OPQ) Cap() int { return q.capacity }

// Full reports whether the next append would exceed capacity.
func (q *OPQ) Full() bool { return len(q.entries) >= q.capacity }

// Append adds an update operation to the tail ("merely appends it into the
// next slot ... without considering the orders between key values"). The
// caller must flush before appending to a full queue.
func (q *OPQ) Append(e kv.Entry) error {
	if q.Full() {
		return fmt.Errorf("core: OPQ full (%d entries)", len(q.entries))
	}
	q.entries = append(q.entries, e)
	q.Appends++
	q.sinceSort++
	if q.speriod > 0 && q.sinceSort >= q.speriod {
		q.Sort()
	}
	return nil
}

// Sort merges the unsorted tail into the sorted region, preserving arrival
// order between entries with equal keys (stability keeps the conflicting
// order of operations on the same key).
func (q *OPQ) Sort() {
	if q.sortedOffset == len(q.entries) {
		q.sinceSort = 0
		return
	}
	kv.SortEntries(q.entries[q.sortedOffset:])
	merged := kv.MergeEntries(q.spare[:0], q.entries[:q.sortedOffset], q.entries[q.sortedOffset:])
	q.entries, q.spare = merged, q.entries
	q.sortedOffset = len(q.entries)
	q.sinceSort = 0
	q.Sorts++
}

// Lookup returns the newest queued entry for key k: the unsorted tail is
// scanned newest-first (later appends win), then the sorted region is
// binary searched taking the last entry of the equal-key run.
func (q *OPQ) Lookup(k kv.Key) (kv.Entry, bool) {
	for i := len(q.entries) - 1; i >= q.sortedOffset; i-- {
		if q.entries[i].Rec.Key == k {
			return q.entries[i], true
		}
	}
	lo, hi := 0, q.sortedOffset
	for lo < hi {
		mid := (lo + hi) / 2
		if q.entries[mid].Rec.Key <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && q.entries[lo-1].Rec.Key == k {
		return q.entries[lo-1], true
	}
	return kv.Entry{}, false
}

// Range appends the queued entries with lo <= key < hi to dst, sorted by
// key (the overlay of a range search). The order is arrival order only
// among entries with the same key: the sorted region holds the older
// entries, in arrival order per key, and the stable sort keeps them ahead
// of the tail's. So the last entry of a key is its newest operation.
func (q *OPQ) Range(dst []kv.Entry, lo, hi kv.Key) []kv.Entry {
	start := len(dst)
	i := sort.Search(q.sortedOffset, func(i int) bool { return q.entries[i].Rec.Key >= lo })
	for ; i < q.sortedOffset && q.entries[i].Rec.Key < hi; i++ {
		dst = append(dst, q.entries[i])
	}
	for _, e := range q.entries[q.sortedOffset:] {
		if e.Rec.Key >= lo && e.Rec.Key < hi {
			dst = append(dst, e)
		}
	}
	kv.SortEntries(dst[start:])
	return dst
}

// TakeBatch removes and returns up to bcnt entries, key-sorted, for one
// batch-update pass (the paper's bcnt latency bound). bcnt <= 0 takes
// everything. The removed entries preserve per-key arrival order. The
// batch stays in the queue's buffer the remaining entries move out of:
// it is valid until the queue's next Append or TakeBatch.
func (q *OPQ) TakeBatch(bcnt int) []kv.Entry {
	q.Sort()
	n := len(q.entries)
	if bcnt > 0 && bcnt < n {
		n = bcnt
	}
	batch := q.entries[:n]
	q.entries, q.spare = append(q.spare[:0], q.entries[n:]...), q.entries
	q.sortedOffset = len(q.entries)
	return batch
}

// Entries returns the queued entries in arrival-consistent order (sorted
// region first, then tail). The slice is a copy.
func (q *OPQ) Entries() []kv.Entry {
	out := make([]kv.Entry, len(q.entries))
	copy(out, q.entries)
	return out
}

// SetCapacity changes the queue's capacity. Shrinking below the current
// entry count is rejected — flush first. Growth takes effect lazily (the
// backing array grows on demand).
func (q *OPQ) SetCapacity(capacity int) error {
	if capacity < 1 {
		return fmt.Errorf("core: OPQ capacity must be >= 1, got %d", capacity)
	}
	if len(q.entries) > capacity {
		return fmt.Errorf("core: OPQ holds %d entries, cannot shrink to %d (flush first)", len(q.entries), capacity)
	}
	q.capacity = capacity
	return nil
}

// Reset discards all queued entries (used after crash recovery rebuilds
// the queue from the log).
func (q *OPQ) Reset() {
	q.entries = q.entries[:0]
	q.sortedOffset = 0
	q.sinceSort = 0
}

// LSMap is the paper's in-memory structure caching the last-LS id of
// every leaf (Section 3.2.2). The paper stores the id biased by -⌊L/2⌋
// because B+-tree leaves are at least half full; this implementation
// keeps the same one-byte-per-leaf footprint but stores the exact id,
// because PIO leaves here can transiently hold fewer entries (the empty
// initial root, lazily deleted leaves). On a miss the caller falls back
// to reading the whole leaf.
type LSMap struct {
	segs   int // L
	m      map[int64]uint8
	hits   int64
	misses int64
}

// NewLSMap creates an LSMap for leaves of L segments.
func NewLSMap(segs int) *LSMap {
	return &LSMap{segs: segs, m: make(map[int64]uint8)}
}

// Set records the last LS id for a leaf.
func (ls *LSMap) Set(leaf int64, lastLS int) {
	if lastLS < 0 {
		lastLS = 0
	}
	if lastLS >= ls.segs {
		lastLS = ls.segs - 1
	}
	ls.m[leaf] = uint8(lastLS)
}

// Get returns the cached last LS id for a leaf; ok is false on a miss
// (the caller then reads the whole leaf, segments [0, L-1]).
func (ls *LSMap) Get(leaf int64) (int, bool) {
	v, ok := ls.m[leaf]
	if ok {
		ls.hits++
		return int(v), true
	}
	ls.misses++
	return ls.segs - 1, false
}

// Delete forgets a leaf (after merges/frees).
func (ls *LSMap) Delete(leaf int64) { delete(ls.m, leaf) }

// Len returns the number of tracked leaves.
func (ls *LSMap) Len() int { return len(ls.m) }

// SizeBytes estimates the in-memory footprint charged against the buffer
// budget (1 byte per leaf in this representation).
func (ls *LSMap) SizeBytes() int { return len(ls.m) }

// Stats returns (hits, misses).
func (ls *LSMap) Stats() (int64, int64) { return ls.hits, ls.misses }
