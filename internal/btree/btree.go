package btree

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"vitri/internal/pager"
)

// Tree is a B+-tree over float64 keys with fixed-size values, stored in a
// pager. A Tree is safe for concurrent use: scans take a read lock,
// mutations a write lock (the paging layer itself is also thread-safe).
type Tree struct {
	mu      sync.RWMutex
	pg      pager.Pager
	valSize int
	root    pager.PageID
	height  int // 1 = root is a leaf
	count   int64
}

// Create initializes a new tree in pg (which must be empty) for values of
// valSize bytes.
func Create(pg pager.Pager, valSize int) (*Tree, error) {
	if valSize <= 0 || leafCapacity(valSize) < 2 {
		return nil, fmt.Errorf("btree: value size %d leaves capacity %d (< 2) per leaf",
			valSize, leafCapacity(valSize))
	}
	if pg.NumPages() != 0 {
		return nil, errors.New("btree: Create requires an empty pager")
	}
	t := &Tree{pg: pg, valSize: valSize, height: 1}
	rootID, err := t.allocNode(nodeLeaf)
	if err != nil {
		return nil, err
	}
	t.root = rootID
	return t, nil
}

// Len returns the number of stored entries.
func (t *Tree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// allocNode allocates and seals an empty node of the given type.
func (t *Tree) allocNode(typ byte) (pager.PageID, error) {
	id, err := t.pg.Alloc()
	if err != nil {
		return 0, err
	}
	n := &node{id: id}
	n.page[offType] = typ
	n.setLink(pager.InvalidPage)
	if err := t.writeNode(n); err != nil {
		return 0, err
	}
	return id, nil
}

// readNode fetches and verifies a node page.
func (t *Tree) readNode(id pager.PageID) (*node, error) {
	return t.readNodeTracked(id, nil)
}

// readNodeTracked fetches and verifies a node page, counting the page
// read in st (which may be nil).
func (t *Tree) readNodeTracked(id pager.PageID, st *pager.ScanStats) (*node, error) {
	n := &node{id: id}
	if err := t.pg.Read(id, &n.page); err != nil {
		return nil, err
	}
	if st != nil {
		st.Reads++
	}
	if err := n.verify(); err != nil {
		return nil, err
	}
	return n, nil
}

// writeNode seals and writes a node page.
func (t *Tree) writeNode(n *node) error {
	n.seal()
	return t.pg.Write(n.id, &n.page)
}

// Insert adds (key, value). Duplicate keys are allowed; within equal keys,
// later inserts land after earlier ones.
func (t *Tree) Insert(key float64, val []byte) error {
	if len(val) != t.valSize {
		return fmt.Errorf("btree: value size %d, tree expects %d", len(val), t.valSize)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sepKey, newChild, split, err := t.insertRec(t.root, key, val)
	if err != nil {
		return err
	}
	if split {
		newRootID, err := t.allocNode(nodeInternal)
		if err != nil {
			return err
		}
		nr, err := t.readNode(newRootID)
		if err != nil {
			return err
		}
		nr.setLink(t.root) // leftmost child: the old root
		nr.internalInsertAt(0, sepKey, newChild)
		if err := t.writeNode(nr); err != nil {
			return err
		}
		t.root = newRootID
		t.height++
	}
	t.count++
	return nil
}

// insertRec descends to the leaf, inserting and propagating splits upward.
func (t *Tree) insertRec(id pager.PageID, key float64, val []byte) (sepKey float64, newChild pager.PageID, split bool, err error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, 0, false, err
	}
	if n.isLeaf() {
		return t.leafInsert(n, key, val)
	}
	slot := n.childSlotFor(key)
	sep, nc, childSplit, err := t.insertRec(n.childAt(slot), key, val)
	if err != nil || !childSplit {
		return 0, 0, false, err
	}
	// Insert the new separator positionally, directly after the child that
	// split. A key-based search would misplace the new node within a run
	// of equal separators and desynchronize the leaf sibling chain from
	// the tree order.
	pos := slot
	if n.count() < internalCapacity() {
		n.internalInsertAt(pos, sep, nc)
		return 0, 0, false, t.writeNode(n)
	}
	return t.internalSplitInsert(n, pos, sep, nc)
}

// leafInsert places (key, val) into leaf n, splitting if full.
func (t *Tree) leafInsert(n *node, key float64, val []byte) (float64, pager.PageID, bool, error) {
	pos := n.leafUpperBound(t.valSize, key)
	if n.count() < leafCapacity(t.valSize) {
		n.leafInsertAt(pos, t.valSize, key, val)
		return 0, 0, false, t.writeNode(n)
	}
	// Split: right sibling takes the upper half.
	rightID, err := t.allocNode(nodeLeaf)
	if err != nil {
		return 0, 0, false, err
	}
	right, err := t.readNode(rightID)
	if err != nil {
		return 0, 0, false, err
	}
	cnt := n.count()
	mid := cnt / 2
	for i := mid; i < cnt; i++ {
		right.setLeafEntry(i-mid, t.valSize, n.leafKey(i, t.valSize), n.leafVal(i, t.valSize))
	}
	right.setCount(cnt - mid)
	n.setCount(mid)
	right.setLink(n.link())
	n.setLink(rightID)
	// Insert the new entry into the proper side.
	if pos <= mid {
		n.leafInsertAt(pos, t.valSize, key, val)
	} else {
		right.leafInsertAt(pos-mid, t.valSize, key, val)
	}
	if err := t.writeNode(n); err != nil {
		return 0, 0, false, err
	}
	if err := t.writeNode(right); err != nil {
		return 0, 0, false, err
	}
	return right.leafKey(0, t.valSize), rightID, true, nil
}

// internalSplitInsert splits full internal node n while inserting
// (sep, child) at position pos, and returns the promoted separator.
func (t *Tree) internalSplitInsert(n *node, pos int, sep float64, child pager.PageID) (float64, pager.PageID, bool, error) {
	cnt := n.count()
	// Materialize the would-be entry list of cnt+1 entries.
	keys := make([]float64, 0, cnt+1)
	kids := make([]pager.PageID, 0, cnt+1)
	for i := 0; i < cnt; i++ {
		if i == pos {
			keys = append(keys, sep)
			kids = append(kids, child)
		}
		keys = append(keys, n.internalKey(i))
		kids = append(kids, n.internalChild(i))
	}
	if pos == cnt {
		keys = append(keys, sep)
		kids = append(kids, child)
	}
	mid := len(keys) / 2
	promoted := keys[mid]

	rightID, err := t.allocNode(nodeInternal)
	if err != nil {
		return 0, 0, false, err
	}
	right, err := t.readNode(rightID)
	if err != nil {
		return 0, 0, false, err
	}
	// Left keeps entries [0, mid); the promoted entry's child becomes the
	// right node's leftmost child; right takes (mid, end).
	n.setCount(0)
	for i := 0; i < mid; i++ {
		n.internalInsertAt(i, keys[i], kids[i])
	}
	right.setLink(kids[mid])
	for i := mid + 1; i < len(keys); i++ {
		right.internalInsertAt(i-mid-1, keys[i], kids[i])
	}
	if err := t.writeNode(n); err != nil {
		return 0, 0, false, err
	}
	if err := t.writeNode(right); err != nil {
		return 0, 0, false, err
	}
	return promoted, rightID, true, nil
}

// descendToLeaf returns the leaf that would contain key, attributing page
// reads along the descent to st (which may be nil).
func (t *Tree) descendToLeaf(key float64, st *pager.ScanStats) (*node, error) {
	id := t.root
	for {
		n, err := t.readNodeTracked(id, st)
		if err != nil {
			return nil, err
		}
		if n.isLeaf() {
			return n, nil
		}
		id = n.childFor(key)
	}
}

// RangeScanStats visits every entry with lo <= key <= hi in key order,
// calling fn for each. The val slice aliases an internal buffer and is
// only valid during the call. fn returning false stops the scan early.
//
// Every page read this scan performs — the root-to-leaf descent and the
// leaf sibling chain — is added to st (which may be nil). Because st is
// owned by the caller rather than shared pager-wide, the count is exact
// even with any number of concurrent scans in flight.
func (t *Tree) RangeScanStats(lo, hi float64, st *pager.ScanStats, fn func(key float64, val []byte) bool) error {
	if lo > hi {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.descendToLeaf(lo, st)
	if err != nil {
		return err
	}
	i := n.leafLowerBound(t.valSize, lo)
	for {
		for ; i < n.count(); i++ {
			k := n.leafKey(i, t.valSize)
			if k > hi {
				return nil
			}
			if !fn(k, n.leafVal(i, t.valSize)) {
				return nil
			}
		}
		next := n.link()
		if next == pager.InvalidPage {
			return nil
		}
		if n, err = t.readNodeTracked(next, st); err != nil {
			return err
		}
		i = 0
	}
}

// Scan visits every entry in key order.
func (t *Tree) Scan(fn func(key float64, val []byte) bool) error {
	return t.ScanStats(nil, fn)
}

// ScanStats is Scan with per-scan I/O attribution (see RangeScanStats).
func (t *Tree) ScanStats(st *pager.ScanStats, fn func(key float64, val []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.leftmostLeaf(st)
	if err != nil {
		return err
	}
	for {
		for i := 0; i < n.count(); i++ {
			if !fn(n.leafKey(i, t.valSize), n.leafVal(i, t.valSize)) {
				return nil
			}
		}
		next := n.link()
		if next == pager.InvalidPage {
			return nil
		}
		if n, err = t.readNodeTracked(next, st); err != nil {
			return err
		}
	}
}

func (t *Tree) leftmostLeaf(st *pager.ScanStats) (*node, error) {
	id := t.root
	for {
		n, err := t.readNodeTracked(id, st)
		if err != nil {
			return nil, err
		}
		if n.isLeaf() {
			return n, nil
		}
		id = n.link()
	}
}

// Delete removes the first entry with the given key for which match
// returns true (match == nil removes the first entry with the key).
// It reports whether an entry was removed. Leaves are allowed to underflow
// (no rebalancing): ViTri workloads are read- and insert-heavy, and
// underflow only costs space, never correctness.
func (t *Tree) Delete(key float64, match func(val []byte) bool) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := t.descendToLeaf(key, nil)
	if err != nil {
		return false, err
	}
	for {
		for i := n.leafLowerBound(t.valSize, key); i < n.count(); i++ {
			if n.leafKey(i, t.valSize) != key {
				return false, nil
			}
			if match == nil || match(n.leafVal(i, t.valSize)) {
				n.leafRemoveAt(i, t.valSize)
				if err := t.writeNode(n); err != nil {
					return false, err
				}
				t.count--
				return true, nil
			}
		}
		// Duplicates may continue on the next leaf.
		next := n.link()
		if next == pager.InvalidPage {
			return false, nil
		}
		if n, err = t.readNode(next); err != nil {
			return false, err
		}
		if n.count() == 0 || n.leafKey(0, t.valSize) != key {
			return false, nil
		}
	}
}

// TreeStats describes the tree's physical shape.
type TreeStats struct {
	Height        int
	InternalNodes int
	LeafNodes     int
	Entries       int64
	// LeafFill is the average leaf occupancy in [0, 1].
	LeafFill float64
}

// Stats walks the tree and returns its shape.
func (t *Tree) Stats() (TreeStats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TreeStats{Height: t.height, Entries: t.count}
	cap := leafCapacity(t.valSize)
	var walk func(id pager.PageID) error
	walk = func(id pager.PageID) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.isLeaf() {
			st.LeafNodes++
			st.LeafFill += float64(n.count()) / float64(cap)
			return nil
		}
		st.InternalNodes++
		if err := walk(n.link()); err != nil {
			return err
		}
		for i := 0; i < n.count(); i++ {
			if err := walk(n.internalChild(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return TreeStats{}, err
	}
	if st.LeafNodes > 0 {
		st.LeafFill /= float64(st.LeafNodes)
	}
	return st, nil
}

// Check verifies the tree's structural invariants: per-node key ordering,
// separator consistency (every key under a child lies within its
// separator bounds), the leaf sibling chain visiting every leaf in order,
// and the entry count. It returns the first violation found.
func (t *Tree) Check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaves []pager.PageID
	var total int64
	var walk func(id pager.PageID, lo, hi float64) error
	walk = func(id pager.PageID, lo, hi float64) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.isLeaf() {
			for i := 0; i < n.count(); i++ {
				k := n.leafKey(i, t.valSize)
				if k < lo || k > hi {
					return fmt.Errorf("btree: leaf %d key %v outside [%v, %v]", id, k, lo, hi)
				}
				if i > 0 && k < n.leafKey(i-1, t.valSize) {
					return fmt.Errorf("btree: leaf %d keys out of order at %d", id, i)
				}
			}
			leaves = append(leaves, id)
			total += int64(n.count())
			return nil
		}
		prev := lo
		for i := 0; i < n.count(); i++ {
			k := n.internalKey(i)
			if k < prev {
				return fmt.Errorf("btree: internal %d separators out of order at %d", id, i)
			}
			prev = k
		}
		// Child i covers [sep[i-1], sep[i]] (inclusive both sides:
		// duplicates may sit on either side of an equal separator).
		bound := func(i int) (float64, float64) {
			l, h := lo, hi
			if i > 0 {
				l = n.internalKey(i - 1)
			}
			if i < n.count() {
				h = n.internalKey(i)
			}
			return l, h
		}
		for i := 0; i <= n.count(); i++ {
			l, h := bound(i)
			if err := walk(n.childAt(i), l, h); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, math.Inf(-1), math.Inf(1)); err != nil {
		return err
	}
	if total != t.count {
		return fmt.Errorf("btree: %d entries found, metadata says %d", total, t.count)
	}
	// The sibling chain must visit exactly the leaves, in the same order.
	n, err := t.leftmostLeaf(nil)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		if i >= len(leaves) {
			return fmt.Errorf("btree: sibling chain longer than tree (%d leaves)", len(leaves))
		}
		if n.id != leaves[i] {
			return fmt.Errorf("btree: sibling chain visits %d, tree order expects %d", n.id, leaves[i])
		}
		next := n.link()
		if next == pager.InvalidPage {
			if i != len(leaves)-1 {
				return fmt.Errorf("btree: sibling chain ends after %d of %d leaves", i+1, len(leaves))
			}
			return nil
		}
		if n, err = t.readNode(next); err != nil {
			return err
		}
	}
}
