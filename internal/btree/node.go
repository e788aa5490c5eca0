// Package btree implements a disk-paged B+-tree over float64 keys with
// fixed-size opaque values, the index structure the ViTri one-dimensional
// transformation is built on (paper §5).
//
// Layout. Every node occupies one pager.Page. A 16-byte header holds the
// node type, entry count, a link field (next-leaf pointer for leaves, the
// leftmost child for internal nodes) and a CRC-32 checksum of the page
// contents. Leaves store (key, value) pairs; internal nodes store
// (separator key, child) pairs where the separator is the smallest key
// reachable under that child. Duplicate keys are allowed and preserved in
// insertion order within a key run.
//
// The tree is derived state: the index builds it from video summaries and
// never reopens it, so every page is a node and the root, height and
// entry count live only in the Tree value.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"vitri/internal/pager"
)

const (
	headerSize = 16

	nodeLeaf     = byte(1)
	nodeInternal = byte(2)

	offType  = 0
	offCount = 1 // uint16
	offLink  = 4 // uint32: next leaf / leftmost child
	offCRC   = 8 // uint32
	// bytes 12..16 reserved

	internalEntrySize = 8 + 4 // key + child page id
)

// ErrCorrupt reports a checksum mismatch on a node page.
var ErrCorrupt = errors.New("btree: page checksum mismatch")

// node is the in-memory view of one page.
type node struct {
	id   pager.PageID
	page pager.Page
}

func (n *node) isLeaf() bool   { return n.page[offType] == nodeLeaf }
func (n *node) count() int     { return int(binary.LittleEndian.Uint16(n.page[offCount:])) }
func (n *node) setCount(c int) { binary.LittleEndian.PutUint16(n.page[offCount:], uint16(c)) }
func (n *node) link() pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(n.page[offLink:]))
}
func (n *node) setLink(id pager.PageID) {
	binary.LittleEndian.PutUint32(n.page[offLink:], uint32(id))
}

// checksum computes the CRC over the page with the CRC field zeroed.
func (n *node) checksum() uint32 {
	var save [4]byte
	copy(save[:], n.page[offCRC:offCRC+4])
	for i := 0; i < 4; i++ {
		n.page[offCRC+i] = 0
	}
	sum := crc32.ChecksumIEEE(n.page[:])
	copy(n.page[offCRC:], save[:])
	return sum
}

func (n *node) seal() {
	sum := n.checksum()
	binary.LittleEndian.PutUint32(n.page[offCRC:], sum)
}

func (n *node) verify() error {
	want := binary.LittleEndian.Uint32(n.page[offCRC:])
	if n.checksum() != want {
		return fmt.Errorf("%w: page %d", ErrCorrupt, n.id)
	}
	return nil
}

// --- leaf entries ------------------------------------------------------

// leafEntrySize returns the bytes per (key, value) pair.
func leafEntrySize(valSize int) int { return 8 + valSize }

// leafCapacity returns how many entries fit in a leaf.
func leafCapacity(valSize int) int {
	return (pager.PageSize - headerSize) / leafEntrySize(valSize)
}

// internalCapacity returns how many (key, child) pairs fit in an internal
// node (the leftmost child lives in the header link field).
func internalCapacity() int {
	return (pager.PageSize - headerSize) / internalEntrySize
}

func (n *node) leafKey(i, valSize int) float64 {
	off := headerSize + i*leafEntrySize(valSize)
	return math.Float64frombits(binary.LittleEndian.Uint64(n.page[off:]))
}

func (n *node) leafVal(i, valSize int) []byte {
	off := headerSize + i*leafEntrySize(valSize) + 8
	return n.page[off : off+valSize]
}

func (n *node) setLeafEntry(i, valSize int, key float64, val []byte) {
	off := headerSize + i*leafEntrySize(valSize)
	binary.LittleEndian.PutUint64(n.page[off:], math.Float64bits(key))
	copy(n.page[off+8:off+8+valSize], val)
}

// leafInsertAt shifts entries right and writes the new pair at position i.
func (n *node) leafInsertAt(i, valSize int, key float64, val []byte) {
	es := leafEntrySize(valSize)
	cnt := n.count()
	start := headerSize + i*es
	end := headerSize + cnt*es
	copy(n.page[start+es:end+es], n.page[start:end])
	n.setLeafEntry(i, valSize, key, val)
	n.setCount(cnt + 1)
}

// leafRemoveAt shifts entries left over position i.
func (n *node) leafRemoveAt(i, valSize int) {
	es := leafEntrySize(valSize)
	cnt := n.count()
	start := headerSize + i*es
	end := headerSize + cnt*es
	copy(n.page[start:end-es], n.page[start+es:end])
	n.setCount(cnt - 1)
}

// leafLowerBound returns the first index with key >= k.
func (n *node) leafLowerBound(valSize int, k float64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.leafKey(mid, valSize) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafUpperBound returns the first index with key > k.
func (n *node) leafUpperBound(valSize int, k float64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.leafKey(mid, valSize) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- internal entries ---------------------------------------------------

func (n *node) internalKey(i int) float64 {
	off := headerSize + i*internalEntrySize
	return math.Float64frombits(binary.LittleEndian.Uint64(n.page[off:]))
}

func (n *node) internalChild(i int) pager.PageID {
	off := headerSize + i*internalEntrySize + 8
	return pager.PageID(binary.LittleEndian.Uint32(n.page[off:]))
}

func (n *node) setInternalEntry(i int, key float64, child pager.PageID) {
	off := headerSize + i*internalEntrySize
	binary.LittleEndian.PutUint64(n.page[off:], math.Float64bits(key))
	binary.LittleEndian.PutUint32(n.page[off+8:], uint32(child))
}

func (n *node) internalInsertAt(i int, key float64, child pager.PageID) {
	cnt := n.count()
	start := headerSize + i*internalEntrySize
	end := headerSize + cnt*internalEntrySize
	copy(n.page[start+internalEntrySize:end+internalEntrySize], n.page[start:end])
	n.setInternalEntry(i, key, child)
	n.setCount(cnt + 1)
}

// childFor returns the child page to descend into for key k: the link
// (leftmost) child when every separator is >= k, otherwise the child of
// the last separator strictly below k. Descending on strict inequality
// means a key equal to a separator lands in the left subtree, which is
// required for duplicate runs that straddle a split: a range scan starting
// at the separator key then reaches the right-hand duplicates through the
// leaf sibling links instead of skipping the left-hand ones.
func (n *node) childFor(k float64) pager.PageID {
	return n.childAt(n.childSlotFor(k))
}

// childSlotFor returns the child slot index to descend into for key k.
// Slot 0 is the link (leftmost) child; slot i > 0 is the child of entry
// i-1.
func (n *node) childSlotFor(k float64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.internalKey(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childAt returns the page id of child slot i.
func (n *node) childAt(i int) pager.PageID {
	if i == 0 {
		return n.link()
	}
	return n.internalChild(i - 1)
}
