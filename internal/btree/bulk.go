package btree

import (
	"errors"
	"fmt"

	"vitri/internal/pager"
)

// Entry is one (key, value) pair for bulk loading.
type Entry struct {
	Key float64
	Val []byte
}

// DefaultFillFactor leaves a little slack in bulk-loaded leaves so the
// first few subsequent inserts do not immediately split every leaf.
const DefaultFillFactor = 0.95

// BulkLoad builds a tree over pre-sorted entries, packing leaves to
// fillFactor (0 selects DefaultFillFactor) and constructing the internal
// levels bottom-up. It is the fast path for one-off index construction
// (paper §6.3.2's "one-off construction"); entries must be sorted by key
// ascending or an error is returned.
func BulkLoad(pg pager.Pager, valSize int, entries []Entry, fillFactor float64) (*Tree, error) {
	if fillFactor == 0 {
		fillFactor = DefaultFillFactor
	}
	if fillFactor <= 0 || fillFactor > 1 {
		return nil, fmt.Errorf("btree: fill factor %v out of (0, 1]", fillFactor)
	}
	t, err := Create(pg, valSize)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return t, nil
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key < entries[i-1].Key {
			return nil, errors.New("btree: BulkLoad entries not sorted")
		}
	}
	perLeaf := int(float64(leafCapacity(valSize)) * fillFactor)
	if perLeaf < 1 {
		perLeaf = 1
	}

	type childRef struct {
		firstKey float64
		id       pager.PageID
	}
	var level []childRef

	// The Create call made an empty root leaf; reuse it as the first leaf.
	leafID := t.root
	var prev *node
	for start := 0; start < len(entries); start += perLeaf {
		end := start + perLeaf
		if end > len(entries) {
			end = len(entries)
		}
		var n *node
		if start == 0 {
			if n, err = t.readNode(leafID); err != nil {
				return nil, err
			}
		} else {
			id, err := t.allocNode(nodeLeaf)
			if err != nil {
				return nil, err
			}
			if n, err = t.readNode(id); err != nil {
				return nil, err
			}
			prev.setLink(n.id)
			if err := t.writeNode(prev); err != nil {
				return nil, err
			}
		}
		for i := start; i < end; i++ {
			e := entries[i]
			if len(e.Val) != valSize {
				return nil, fmt.Errorf("btree: entry %d value size %d, want %d", i, len(e.Val), valSize)
			}
			n.setLeafEntry(i-start, valSize, e.Key, e.Val)
		}
		n.setCount(end - start)
		n.setLink(pager.InvalidPage)
		if err := t.writeNode(n); err != nil {
			return nil, err
		}
		level = append(level, childRef{firstKey: entries[start].Key, id: n.id})
		prev = n
	}

	// Build internal levels until a single node remains.
	height := 1
	for len(level) > 1 {
		perNode := internalCapacity() + 1 // link child + capacity separators
		var next []childRef
		for start := 0; start < len(level); start += perNode {
			end := start + perNode
			if end > len(level) {
				end = len(level)
			}
			id, err := t.allocNode(nodeInternal)
			if err != nil {
				return nil, err
			}
			n, err := t.readNode(id)
			if err != nil {
				return nil, err
			}
			n.setLink(level[start].id)
			for i := start + 1; i < end; i++ {
				n.internalInsertAt(i-start-1, level[i].firstKey, level[i].id)
			}
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			next = append(next, childRef{firstKey: level[start].firstKey, id: id})
		}
		level = next
		height++
	}
	t.root = level[0].id
	t.height = height
	t.count = int64(len(entries))
	return t, nil
}
