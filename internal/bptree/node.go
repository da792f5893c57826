// Package bptree implements the disk-resident B+-Tree baseline of the
// paper's evaluation: a classic tree with <key, pointer> internal nodes
// (package branch, Equation 2 fanout) and leaf nodes holding one entry
// per indexed tuple.
// It supports bulk loading, point search, range scans and inserts with
// node splits, and reports the size and height figures the paper compares
// BF-Trees against (Equations 3, 4 and 9).
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bftree/internal/branch"
	"bftree/internal/device"
)

// ErrCorrupt reports an invalid serialized node.
var ErrCorrupt = errors.New("bptree: corrupt node")

// TupleRef locates one tuple: its data page and slot within the page.
type TupleRef struct {
	Page device.PageID
	Slot uint16
}

// Entry is one leaf entry: an indexed key and the tuple it points to.
type Entry struct {
	Key uint64
	Ref TupleRef
}

// nodeLeaf is the kind byte of a leaf page. Internal pages are the
// nodes of package branch, of kind branch.Kind.
const nodeLeaf = byte(1)

// Leaf layout (little-endian):
//
//	byte 0      kind
//	bytes 1-2   count (uint16)
//	bytes 3-10  next-leaf pid
//	entries of 18 bytes (key 8, page 8, slot 2) follow
const (
	nodeHeaderSize = 3 // kind and count, as on an internal page
	leafHeaderSize = nodeHeaderSize + 8
	leafEntrySize  = 18
)

// LeafCapacity returns the number of entries a leaf page holds.
func LeafCapacity(pageSize int) int {
	return (pageSize - leafHeaderSize) / leafEntrySize
}

// leafNode is the in-memory form of a leaf page.
type leafNode struct {
	next    device.PageID
	entries []Entry
}

func encodeLeaf(buf []byte, n *leafNode) error {
	need := leafHeaderSize + len(n.entries)*leafEntrySize
	if need > len(buf) {
		return fmt.Errorf("%w: leaf with %d entries needs %d bytes > page %d",
			ErrCorrupt, len(n.entries), need, len(buf))
	}
	buf[0] = nodeLeaf
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
	binary.LittleEndian.PutUint64(buf[3:11], uint64(n.next))
	off := leafHeaderSize
	for _, e := range n.entries {
		binary.LittleEndian.PutUint64(buf[off:], e.Key)
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(e.Ref.Page))
		binary.LittleEndian.PutUint16(buf[off+16:], e.Ref.Slot)
		off += leafEntrySize
	}
	for i := off; i < len(buf); i++ {
		buf[i] = 0
	}
	return nil
}

func decodeLeaf(buf []byte) (*leafNode, error) {
	if len(buf) < leafHeaderSize || buf[0] != nodeLeaf {
		return nil, fmt.Errorf("%w: not a leaf", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	if leafHeaderSize+count*leafEntrySize > len(buf) {
		return nil, fmt.Errorf("%w: leaf count %d overflows page", ErrCorrupt, count)
	}
	n := &leafNode{
		next:    device.PageID(binary.LittleEndian.Uint64(buf[3:11])),
		entries: make([]Entry, count),
	}
	off := leafHeaderSize
	for i := 0; i < count; i++ {
		n.entries[i] = Entry{
			Key: binary.LittleEndian.Uint64(buf[off:]),
			Ref: TupleRef{
				Page: device.PageID(binary.LittleEndian.Uint64(buf[off+8:])),
				Slot: binary.LittleEndian.Uint16(buf[off+16:]),
			},
		}
		off += leafEntrySize
	}
	return n, nil
}

// nodeKind returns the kind byte of a serialized node: nodeLeaf or
// branch.Kind.
func nodeKind(buf []byte) (byte, error) {
	if len(buf) < nodeHeaderSize {
		return 0, fmt.Errorf("%w: short page", ErrCorrupt)
	}
	k := buf[0]
	if k != nodeLeaf && k != branch.Kind {
		return 0, fmt.Errorf("%w: unknown node kind %d", ErrCorrupt, k)
	}
	return k, nil
}
