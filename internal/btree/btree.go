package btree

import (
	"fmt"

	"repro/internal/bufferpool"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
)

// Config parameterizes a B+-tree.
type Config struct {
	// NodeSize is the node size in bytes (power of two, >= 512). It is
	// also the pagefile page size, so a node is always one device request.
	NodeSize int
	// BufferBytes is the buffer pool size in bytes; the pool holds
	// BufferBytes/NodeSize node frames (>= 1).
	BufferBytes int
	// CPUPerNode is the CPU time charged per node visited (binary search,
	// pointer chasing); calibrated so CPU is a minor but non-zero cost.
	CPUPerNode vtime.Ticks
	// FillFactor is the bulk-load node utilization (the paper's U);
	// defaults to 0.7 when zero.
	FillFactor float64
}

func (c *Config) fill() float64 {
	if c.FillFactor <= 0 || c.FillFactor > 1 {
		return 0.7
	}
	return c.FillFactor
}

// Tree is a disk B+-tree over a pagefile. Not safe for concurrent use.
type Tree struct {
	cfg    Config
	pf     *pagefile.PageFile
	pool   *bufferpool.Pool
	root   pagefile.PageID
	height int // number of levels; 1 = root is a leaf
	count  int64
	buf    []byte // scratch for encode
}

// New creates an empty B+-tree (a single empty leaf as root).
func New(pf *pagefile.PageFile, cfg Config) (*Tree, error) {
	if pf.PageSize() != cfg.NodeSize {
		return nil, fmt.Errorf("btree: pagefile page size %d != node size %d", pf.PageSize(), cfg.NodeSize)
	}
	if maxLeafRecs(cfg.NodeSize) < 4 || maxInternalKeys(cfg.NodeSize) < 4 {
		return nil, fmt.Errorf("btree: node size %d too small", cfg.NodeSize)
	}
	frames := cfg.BufferBytes / cfg.NodeSize
	if frames < 1 {
		frames = 1
	}
	pool, err := bufferpool.New(pf, frames, bufferpool.WriteBack)
	if err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, pf: pf, pool: pool, buf: make([]byte, cfg.NodeSize)}
	rootID := pf.Alloc()
	root := &node{id: rootID, leaf: true, next: pagefile.InvalidPage}
	if err := t.writeNodeNoCost(root); err != nil {
		return nil, err
	}
	t.root = rootID
	t.height = 1
	return t, nil
}

// Count returns the number of records in the tree.
func (t *Tree) Count() int64 { return t.count }

// Height returns the number of levels (the paper's H).
func (t *Tree) Height() int { return t.height }

// Fanout returns the maximum number of child pointers per internal node
// (the paper's F).
func (t *Tree) Fanout() int { return maxInternalKeys(t.cfg.NodeSize) + 1 }

// readNode fetches and decodes a node through the buffer pool, charging
// per-node CPU time.
func (t *Tree) readNode(at vtime.Ticks, id pagefile.PageID) (*node, vtime.Ticks, error) {
	data, at, err := t.pool.Get(at, id)
	if err != nil {
		return nil, at, err
	}
	n, err := decode(id, data)
	if err != nil {
		return nil, at, err
	}
	return n, at + t.cfg.CPUPerNode, nil
}

// writeNode stores a node through the buffer pool (write-back).
func (t *Tree) writeNode(at vtime.Ticks, n *node) (vtime.Ticks, error) {
	if err := n.encode(t.buf); err != nil {
		return at, err
	}
	return t.pool.Put(at, n.id, t.buf)
}

// writeNodeNoCost stores a node bypassing timing, for construction.
func (t *Tree) writeNodeNoCost(n *node) error {
	if err := n.encode(t.buf); err != nil {
		return err
	}
	t.pool.Invalidate(n.id)
	return t.pf.WritePageNoCost(n.id, t.buf)
}

// Search looks up key k, returning its value and whether it was found.
func (t *Tree) Search(at vtime.Ticks, k kv.Key) (kv.Value, bool, vtime.Ticks, error) {
	n, at, err := t.readNode(at, t.root)
	if err != nil {
		return 0, false, at, err
	}
	for !n.leaf {
		n, at, err = t.readNode(at, n.children[n.childIndex(k)])
		if err != nil {
			return 0, false, at, err
		}
	}
	i := kv.SearchRecords(n.recs, k)
	if i < len(n.recs) && n.recs[i].Key == k {
		return n.recs[i].Value, true, at, nil
	}
	return 0, false, at, nil
}

// RangeSearch returns all records with lo <= key < hi in key order,
// walking the leaf chain one node at a time (the "traditional method" of
// Section 3.1.2).
func (t *Tree) RangeSearch(at vtime.Ticks, lo, hi kv.Key) ([]kv.Record, vtime.Ticks, error) {
	if hi <= lo {
		return nil, at, nil
	}
	n, at, err := t.readNode(at, t.root)
	if err != nil {
		return nil, at, err
	}
	for !n.leaf {
		n, at, err = t.readNode(at, n.children[n.childIndex(lo)])
		if err != nil {
			return nil, at, err
		}
	}
	var out []kv.Record
	for {
		for i := kv.SearchRecords(n.recs, lo); i < len(n.recs); i++ {
			if n.recs[i].Key >= hi {
				return out, at, nil
			}
			out = append(out, n.recs[i])
		}
		if n.next == pagefile.InvalidPage {
			return out, at, nil
		}
		n, at, err = t.readNode(at, n.next)
		if err != nil {
			return nil, at, err
		}
	}
}

// pathEntry remembers one step of a root-to-leaf descent.
type pathEntry struct {
	n   *node
	idx int // child index taken
}

// descend walks from the root to the leaf covering k, recording the path.
func (t *Tree) descend(at vtime.Ticks, k kv.Key) ([]pathEntry, *node, vtime.Ticks, error) {
	var path []pathEntry
	n, at, err := t.readNode(at, t.root)
	if err != nil {
		return nil, nil, at, err
	}
	for !n.leaf {
		i := n.childIndex(k)
		path = append(path, pathEntry{n: n, idx: i})
		n, at, err = t.readNode(at, n.children[i])
		if err != nil {
			return nil, nil, at, err
		}
	}
	return path, n, at, nil
}

// Insert adds (or overwrites) record r.
func (t *Tree) Insert(at vtime.Ticks, r kv.Record) (vtime.Ticks, error) {
	path, leaf, at, err := t.descend(at, r.Key)
	if err != nil {
		return at, err
	}
	i := kv.SearchRecords(leaf.recs, r.Key)
	if i < len(leaf.recs) && leaf.recs[i].Key == r.Key {
		leaf.recs[i] = r
		return t.writeNode(at, leaf)
	}
	leaf.recs = append(leaf.recs, kv.Record{})
	copy(leaf.recs[i+1:], leaf.recs[i:])
	leaf.recs[i] = r
	t.count++
	if len(leaf.recs) <= maxLeafRecs(t.cfg.NodeSize) {
		return t.writeNode(at, leaf)
	}
	return t.splitLeaf(at, path, leaf)
}

// splitLeaf splits an overfull leaf and propagates the fence key upward.
func (t *Tree) splitLeaf(at vtime.Ticks, path []pathEntry, leaf *node) (vtime.Ticks, error) {
	mid := len(leaf.recs) / 2
	right := &node{id: t.pf.Alloc(), leaf: true, next: leaf.next}
	right.recs = append(right.recs, leaf.recs[mid:]...)
	leaf.recs = leaf.recs[:mid]
	leaf.next = right.id
	fence := right.recs[0].Key
	var err error
	if at, err = t.writeNode(at, leaf); err != nil {
		return at, err
	}
	if at, err = t.writeNode(at, right); err != nil {
		return at, err
	}
	return t.insertFence(at, path, fence, right.id)
}

// insertFence inserts a (fence key, right child) pair into the parent,
// splitting internal nodes as needed up to the root.
func (t *Tree) insertFence(at vtime.Ticks, path []pathEntry, fence kv.Key, rightID pagefile.PageID) (vtime.Ticks, error) {
	var err error
	for len(path) > 0 {
		pe := path[len(path)-1]
		path = path[:len(path)-1]
		p, idx := pe.n, pe.idx
		p.keys = append(p.keys, 0)
		copy(p.keys[idx+1:], p.keys[idx:])
		p.keys[idx] = fence
		p.children = append(p.children, pagefile.InvalidPage)
		copy(p.children[idx+2:], p.children[idx+1:])
		p.children[idx+1] = rightID
		if len(p.keys) <= maxInternalKeys(t.cfg.NodeSize) {
			return t.writeNode(at, p)
		}
		// Split the internal node: middle key moves up.
		mid := len(p.keys) / 2
		upKey := p.keys[mid]
		right := &node{id: t.pf.Alloc(), level: p.level}
		right.keys = append(right.keys, p.keys[mid+1:]...)
		right.children = append(right.children, p.children[mid+1:]...)
		p.keys = p.keys[:mid]
		p.children = p.children[:mid+1]
		if at, err = t.writeNode(at, p); err != nil {
			return at, err
		}
		if at, err = t.writeNode(at, right); err != nil {
			return at, err
		}
		fence, rightID = upKey, right.id
	}
	// Root split: grow the tree.
	newRoot := &node{id: t.pf.Alloc(), level: t.height}
	newRoot.keys = []kv.Key{fence}
	newRoot.children = []pagefile.PageID{t.root, rightID}
	t.root = newRoot.id
	t.height++
	return t.writeNode(at, newRoot)
}

// Update replaces the value of an existing key; it reports whether the key
// was present.
func (t *Tree) Update(at vtime.Ticks, r kv.Record) (bool, vtime.Ticks, error) {
	_, leaf, at, err := t.descend(at, r.Key)
	if err != nil {
		return false, at, err
	}
	i := kv.SearchRecords(leaf.recs, r.Key)
	if i >= len(leaf.recs) || leaf.recs[i].Key != r.Key {
		return false, at, nil
	}
	leaf.recs[i] = r
	at, err = t.writeNode(at, leaf)
	return true, at, err
}

// Delete removes key k; it reports whether the key was present.
func (t *Tree) Delete(at vtime.Ticks, k kv.Key) (bool, vtime.Ticks, error) {
	path, leaf, at, err := t.descend(at, k)
	if err != nil {
		return false, at, err
	}
	i := kv.SearchRecords(leaf.recs, k)
	if i >= len(leaf.recs) || leaf.recs[i].Key != k {
		return false, at, nil
	}
	leaf.recs = append(leaf.recs[:i], leaf.recs[i+1:]...)
	t.count--
	min := maxLeafRecs(t.cfg.NodeSize) / 2
	if len(leaf.recs) >= min || len(path) == 0 {
		at, err = t.writeNode(at, leaf)
		return true, at, err
	}
	at, err = t.fixLeafUnderflow(at, path, leaf)
	return true, at, err
}

// fixLeafUnderflow redistributes from or merges with a sibling leaf.
func (t *Tree) fixLeafUnderflow(at vtime.Ticks, path []pathEntry, leaf *node) (vtime.Ticks, error) {
	pe := path[len(path)-1]
	p, idx := pe.n, pe.idx
	min := maxLeafRecs(t.cfg.NodeSize) / 2
	var err error

	// Try borrowing from the right sibling, then the left.
	if idx+1 < len(p.children) {
		var sib *node
		sib, at, err = t.readNode(at, p.children[idx+1])
		if err != nil {
			return at, err
		}
		if len(sib.recs) > min {
			leaf.recs = append(leaf.recs, sib.recs[0])
			sib.recs = sib.recs[1:]
			p.keys[idx] = sib.recs[0].Key
			return t.writeNodes(at, leaf, sib, p)
		}
		// Merge leaf <- sib.
		leaf.recs = append(leaf.recs, sib.recs...)
		leaf.next = sib.next
		t.pf.Free(sib.id)
		t.pool.Invalidate(sib.id)
		if at, err = t.writeNode(at, leaf); err != nil {
			return at, err
		}
		return t.removeFence(at, path, idx)
	}
	// leaf is the rightmost child: use the left sibling.
	var sib *node
	sib, at, err = t.readNode(at, p.children[idx-1])
	if err != nil {
		return at, err
	}
	if len(sib.recs) > min {
		last := sib.recs[len(sib.recs)-1]
		sib.recs = sib.recs[:len(sib.recs)-1]
		leaf.recs = append([]kv.Record{last}, leaf.recs...)
		p.keys[idx-1] = last.Key
		return t.writeNodes(at, leaf, sib, p)
	}
	// Merge sib <- leaf.
	sib.recs = append(sib.recs, leaf.recs...)
	sib.next = leaf.next
	t.pf.Free(leaf.id)
	t.pool.Invalidate(leaf.id)
	if at, err = t.writeNode(at, sib); err != nil {
		return at, err
	}
	return t.removeFence(at, path, idx-1)
}

// removeFence removes keys[keyIdx] and children[keyIdx+1] from the node at
// the top of path, fixing internal underflow recursively.
func (t *Tree) removeFence(at vtime.Ticks, path []pathEntry, keyIdx int) (vtime.Ticks, error) {
	pe := path[len(path)-1]
	path = path[:len(path)-1]
	p := pe.n
	p.keys = append(p.keys[:keyIdx], p.keys[keyIdx+1:]...)
	p.children = append(p.children[:keyIdx+1], p.children[keyIdx+2:]...)

	if p.id == t.root {
		if len(p.keys) == 0 && t.height > 1 {
			// Shrink the tree.
			t.pf.Free(p.id)
			t.pool.Invalidate(p.id)
			t.root = p.children[0]
			t.height--
			return at, nil
		}
		return t.writeNode(at, p)
	}
	min := maxInternalKeys(t.cfg.NodeSize) / 2
	if len(p.keys) >= min {
		return t.writeNode(at, p)
	}
	return t.fixInternalUnderflow(at, path, p)
}

// fixInternalUnderflow redistributes or merges internal node p with a
// sibling through its parent (the next entry on path).
func (t *Tree) fixInternalUnderflow(at vtime.Ticks, path []pathEntry, p *node) (vtime.Ticks, error) {
	ppe := path[len(path)-1]
	gp, idx := ppe.n, ppe.idx
	min := maxInternalKeys(t.cfg.NodeSize) / 2
	var err error

	if idx+1 < len(gp.children) {
		var sib *node
		sib, at, err = t.readNode(at, gp.children[idx+1])
		if err != nil {
			return at, err
		}
		if len(sib.keys) > min {
			// Rotate left through the separator.
			p.keys = append(p.keys, gp.keys[idx])
			p.children = append(p.children, sib.children[0])
			gp.keys[idx] = sib.keys[0]
			sib.keys = sib.keys[1:]
			sib.children = sib.children[1:]
			return t.writeNodes(at, p, sib, gp)
		}
		// Merge p <- separator <- sib.
		p.keys = append(p.keys, gp.keys[idx])
		p.keys = append(p.keys, sib.keys...)
		p.children = append(p.children, sib.children...)
		t.pf.Free(sib.id)
		t.pool.Invalidate(sib.id)
		if at, err = t.writeNode(at, p); err != nil {
			return at, err
		}
		return t.removeFence(at, path, idx)
	}
	var sib *node
	sib, at, err = t.readNode(at, gp.children[idx-1])
	if err != nil {
		return at, err
	}
	if len(sib.keys) > min {
		// Rotate right through the separator.
		p.keys = append([]kv.Key{gp.keys[idx-1]}, p.keys...)
		p.children = append([]pagefile.PageID{sib.children[len(sib.children)-1]}, p.children...)
		gp.keys[idx-1] = sib.keys[len(sib.keys)-1]
		sib.keys = sib.keys[:len(sib.keys)-1]
		sib.children = sib.children[:len(sib.children)-1]
		return t.writeNodes(at, p, sib, gp)
	}
	// Merge sib <- separator <- p.
	sib.keys = append(sib.keys, gp.keys[idx-1])
	sib.keys = append(sib.keys, p.keys...)
	sib.children = append(sib.children, p.children...)
	t.pf.Free(p.id)
	t.pool.Invalidate(p.id)
	if at, err = t.writeNode(at, sib); err != nil {
		return at, err
	}
	return t.removeFence(at, path, idx-1)
}

// writeNodes writes several nodes in sequence.
func (t *Tree) writeNodes(at vtime.Ticks, ns ...*node) (vtime.Ticks, error) {
	var err error
	for _, n := range ns {
		if at, err = t.writeNode(at, n); err != nil {
			return at, err
		}
	}
	return at, nil
}

// BulkLoad builds the tree from key-sorted records with the configured
// fill factor, bypassing simulated I/O cost (experiment setup, matching
// the paper's "initially built ... by using a bulk loader").
func (t *Tree) BulkLoad(recs []kv.Record) error {
	if t.count != 0 {
		return fmt.Errorf("btree: bulk load into non-empty tree")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Key >= recs[i].Key {
			return fmt.Errorf("btree: bulk load input not strictly sorted at %d", i)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	leafCap := int(float64(maxLeafRecs(t.cfg.NodeSize)) * t.cfg.fill())
	if leafCap < 1 {
		leafCap = 1
	}
	// Build leaf level.
	type built struct {
		id    pagefile.PageID
		first kv.Key
	}
	var level []built
	var prev *node
	for i := 0; i < len(recs); i += leafCap {
		end := i + leafCap
		if end > len(recs) {
			end = len(recs)
		}
		n := &node{id: t.pf.Alloc(), leaf: true, next: pagefile.InvalidPage}
		n.recs = append(n.recs, recs[i:end]...)
		if prev != nil {
			prev.next = n.id
			if err := t.writeNodeNoCost(prev); err != nil {
				return err
			}
		}
		level = append(level, built{id: n.id, first: n.recs[0].Key})
		prev = n
	}
	if err := t.writeNodeNoCost(prev); err != nil {
		return err
	}
	// Free the placeholder root leaf.
	t.pf.Free(t.root)
	t.pool.Invalidate(t.root)

	// Build internal levels.
	keyCap := int(float64(maxInternalKeys(t.cfg.NodeSize)) * t.cfg.fill())
	if keyCap < 2 {
		keyCap = 2
	}
	height := 1
	for len(level) > 1 {
		var next []built
		childCap := keyCap + 1
		for i := 0; i < len(level); i += childCap {
			end := i + childCap
			if end > len(level) {
				end = len(level)
			}
			// Avoid a dangling single-child node at the tail.
			if end == len(level)-1 {
				end = len(level)
			}
			group := level[i:end]
			n := &node{id: t.pf.Alloc(), level: height}
			n.children = make([]pagefile.PageID, 0, len(group))
			for j, b := range group {
				n.children = append(n.children, b.id)
				if j > 0 {
					n.keys = append(n.keys, b.first)
				}
			}
			if err := t.writeNodeNoCost(n); err != nil {
				return err
			}
			next = append(next, built{id: n.id, first: group[0].first})
			i = end - childCap // loop's i += childCap will land on end
		}
		level = next
		height++
	}
	t.root = level[0].id
	t.height = height
	t.count = int64(len(recs))
	return nil
}

// CheckInvariants verifies structural invariants (sorted keys, fence
// consistency, leaf chain order, counts) and returns the first violation.
// It bypasses timing and the buffer pool.
func (t *Tree) CheckInvariants() error {
	var total int64
	var walk func(id pagefile.PageID, level int, lo, hi kv.Key, hasLo, hasHi bool) error
	buf := make([]byte, t.cfg.NodeSize)
	readRaw := func(id pagefile.PageID) (*node, error) {
		// Prefer the buffered (possibly dirty) copy.
		if t.pool.Contains(id) {
			data, _, err := t.pool.Get(0, id)
			if err != nil {
				return nil, err
			}
			return decode(id, data)
		}
		if err := t.pf.ReadPageNoCost(id, buf); err != nil {
			return nil, err
		}
		return decode(id, buf)
	}
	walk = func(id pagefile.PageID, level int, lo, hi kv.Key, hasLo, hasHi bool) error {
		n, err := readRaw(id)
		if err != nil {
			return err
		}
		if n.leaf {
			if level != 0 {
				return fmt.Errorf("btree: leaf %d at level %d", id, level)
			}
			for i, r := range n.recs {
				if i > 0 && n.recs[i-1].Key >= r.Key {
					return fmt.Errorf("btree: leaf %d unsorted at %d", id, i)
				}
				if hasLo && r.Key < lo {
					return fmt.Errorf("btree: leaf %d key %d < lower bound %d", id, r.Key, lo)
				}
				if hasHi && r.Key >= hi {
					return fmt.Errorf("btree: leaf %d key %d >= upper bound %d", id, r.Key, hi)
				}
			}
			total += int64(len(n.recs))
			return nil
		}
		if n.level != level {
			return fmt.Errorf("btree: node %d level %d, want %d", id, n.level, level)
		}
		for i := range n.keys {
			if i > 0 && n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree: internal %d unsorted at %d", id, i)
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
	if total != t.count {
		return fmt.Errorf("btree: count mismatch: walked %d, tracked %d", total, t.count)
	}
	return nil
}
