package core

import (
	"encoding/binary"
	"fmt"

	"bftree/internal/device"
)

// Internal nodes reuse the B+-Tree layout (the paper builds the levels
// above the BF-leaves from its B+-Tree code base, Section 6):
//
//	byte 0     kind (2)
//	bytes 1-2  key count (uint16)
//	keys (8 bytes each), then count+1 children (8 bytes each)
const nodeHeaderSize = 3

// internalNode has len(keys)+1 children; child i covers keys < keys[i]
// (leftmost descent on equality).
type internalNode struct {
	keys     []uint64
	children []device.PageID
}

// internalCapacity is the fanout of Equation 2 for this page size.
func internalCapacity(pageSize int) int {
	return (pageSize-nodeHeaderSize-8)/16 + 1
}

func encodeInternal(buf []byte, n *internalNode) error {
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("%w: internal node with %d keys, %d children",
			ErrCorrupt, len(n.keys), len(n.children))
	}
	need := nodeHeaderSize + len(n.keys)*8 + len(n.children)*8
	if need > len(buf) {
		return fmt.Errorf("%w: internal node needs %d bytes > page %d", ErrCorrupt, need, len(buf))
	}
	buf[0] = nodeInternal
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
	off := nodeHeaderSize
	for _, k := range n.keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
	}
	for _, c := range n.children {
		binary.LittleEndian.PutUint64(buf[off:], uint64(c))
		off += 8
	}
	for i := off; i < len(buf); i++ {
		buf[i] = 0
	}
	return nil
}

// internalCount checks an encoded internal node's header and returns its
// key count; a count whose keys and children overflow the page is
// ErrCorrupt.
func internalCount(buf []byte) (int, error) {
	if len(buf) < nodeHeaderSize || buf[0] != nodeInternal {
		return 0, fmt.Errorf("%w: not an internal node", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	if nodeHeaderSize+count*8+(count+1)*8 > len(buf) {
		return 0, fmt.Errorf("%w: internal count %d overflows page", ErrCorrupt, count)
	}
	return count, nil
}

// internalChild returns child i of an encoded internal node of count
// keys; the caller has checked count with internalCount.
func internalChild(buf []byte, count, i int) device.PageID {
	return device.PageID(binary.LittleEndian.Uint64(buf[nodeHeaderSize+(count+i)*8:]))
}

// internalKey returns separator i of an encoded internal node; the
// caller has checked i against the count internalCount returned.
func internalKey(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[nodeHeaderSize+i*8:])
}

// route picks key's child in the encoded internal node buf, reading the
// separators in place, and returns the child and its slot. Searches
// route leftmost (key <= separator goes left); inserts route rightmost
// (key == separator goes right; see indexReader.descend). Every descent
// routes each internal node this way, so a probe never decodes one.
func route(buf []byte, key uint64, forInsert bool) (slot int, child device.PageID, err error) {
	count, err := internalCount(buf)
	if err != nil {
		return 0, 0, err
	}
	lo, hi := 0, count // slot is the first separator key routes left of
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		sep := internalKey(buf, mid)
		if key < sep || (key == sep && !forInsert) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, internalChild(buf, count, lo), nil
}

// decodeInternal copies an encoded internal node into a writer-private
// internalNode, which the structural write paths mutate and re-encode.
func decodeInternal(buf []byte) (*internalNode, error) {
	count, err := internalCount(buf)
	if err != nil {
		return nil, err
	}
	n := &internalNode{
		keys:     make([]uint64, count),
		children: make([]device.PageID, count+1),
	}
	off := nodeHeaderSize
	for i := 0; i < count; i++ {
		n.keys[i] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	for i := 0; i <= count; i++ {
		n.children[i] = device.PageID(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return n, nil
}

func nodeKind(buf []byte) (byte, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("%w: empty page", ErrCorrupt)
	}
	k := buf[0]
	if k != nodeInternal && k != nodeBFLeaf {
		return 0, fmt.Errorf("%w: unknown node kind %d", ErrCorrupt, k)
	}
	return k, nil
}
