// Package branch is the B+-Tree internal node that both trees of this
// module build their upper levels from: the BF-Tree above its BF-leaves
// (the paper builds those levels from its B+-Tree code base, Section 6)
// and the B+-Tree baseline above its leaves. It holds the page layout,
// the Equation 2 fanout, in-place routing, the writer-private copy a
// structural change mutates, the bottom-up build of the levels, the walk
// of every internal page and the one loop that inserts a separator up a
// descent path, splitting nodes and growing the root. A descent path
// keeps the page images it routed, and only that loop decodes them,
// for the nodes it rewrites.
//
// Every function that reads a page reports a corrupt one with an error
// wrapping corrupt, the ErrCorrupt sentinel of the tree that read it.
package branch

import (
	"encoding/binary"
	"fmt"
	"slices"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// Page layout (little-endian):
//
//	byte 0     Kind
//	bytes 1-2  key count (uint16)
//	keys (8 bytes each), then count+1 children (8 bytes each), then
//	zeros to the end of the page
const headerSize = 3

// Kind is the kind byte of an internal page. The trees' leaves carry
// kinds of their own.
const Kind = byte(2)

// Node is a writer-private copy of an internal page, free to mutate. It
// has len(Keys)+1 children; child i covers the keys below Keys[i], the
// last child the rest.
type Node struct {
	Keys     []uint64
	Children []device.PageID
}

// Capacity is the fanout of an internal page: the most children a page
// of pageSize bytes holds, from 3 + 8k + 8(k+1) <= pageSize. This is
// Equation 2 of the paper, fanout = pagesize/(keysize+ptrsize), up to
// the header.
func Capacity(pageSize int) int {
	return (pageSize-headerSize-8)/16 + 1
}

// Encode writes n into the page buf and zeroes the rest of buf.
func Encode(buf []byte, n *Node) error {
	if len(n.Children) != len(n.Keys)+1 {
		return fmt.Errorf("branch: node with %d keys, %d children", len(n.Keys), len(n.Children))
	}
	if need := headerSize + len(n.Keys)*8 + len(n.Children)*8; need > len(buf) {
		return fmt.Errorf("branch: node needs %d bytes > page %d", need, len(buf))
	}
	buf[0] = Kind
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.Keys)))
	off := headerSize
	for _, k := range n.Keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
	}
	for _, c := range n.Children {
		binary.LittleEndian.PutUint64(buf[off:], uint64(c))
		off += 8
	}
	clear(buf[off:])
	return nil
}

// Count checks the header of the internal page buf and returns its key
// count. A page of another kind, or a count whose keys and children
// overflow the page, is corrupt.
func Count(buf []byte, corrupt error) (int, error) {
	if len(buf) < headerSize || buf[0] != Kind {
		return 0, fmt.Errorf("%w: not an internal node", corrupt)
	}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	if headerSize+count*8+(count+1)*8 > len(buf) {
		return 0, fmt.Errorf("%w: internal count %d overflows page", corrupt, count)
	}
	return count, nil
}

// Key returns separator i of the internal page buf; the caller has
// checked i against the page's Count.
func Key(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[headerSize+i*8:])
}

// child returns child i of the internal page buf of count keys.
func child(buf []byte, count, i int) device.PageID {
	return device.PageID(binary.LittleEndian.Uint64(buf[headerSize+(count+i)*8:]))
}

// Route picks key's child in the internal page buf, reading the
// separators in place, and returns the child and its slot. Searches
// route leftmost: a key equal to a separator goes left, because its
// duplicates may trail in the left subtree. Inserts route rightmost: it
// goes right, because a separator is the least key of its right
// subtree. Every descent of either tree routes each internal page this
// way, so no descent decodes one.
func Route(buf []byte, key uint64, rightmost bool, corrupt error) (slot int, pid device.PageID, err error) {
	count, err := Count(buf, corrupt)
	if err != nil {
		return 0, 0, err
	}
	lo, hi := 0, count // slot is the first separator key routes left of
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		sep := Key(buf, mid)
		if key < sep || (key == sep && !rightmost) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, child(buf, count, lo), nil
}

// Decode copies the internal page buf into a Node.
func Decode(buf []byte, corrupt error) (*Node, error) {
	count, err := Count(buf, corrupt)
	if err != nil {
		return nil, err
	}
	return decode(buf, count), nil
}

// decode copies the internal page buf of count keys into a Node; the
// caller has checked count against the page.
func decode(buf []byte, count int) *Node {
	n := &Node{
		Keys:     make([]uint64, count),
		Children: make([]device.PageID, count+1),
	}
	for i := range n.Keys {
		n.Keys[i] = Key(buf, i)
	}
	for i := range n.Children {
		n.Children[i] = child(buf, count, i)
	}
	return n
}

// Child is one entry of a level: a page and the least key under it.
type Child struct {
	MinKey uint64
	Pid    device.PageID
}

// Build writes the internal levels over level, a tree's leaves in key
// order, bottom-up: each level packs full nodes into contiguous fresh
// pages, the separators being their children's least keys, until one
// node remains. It returns that root (the only leaf, when level holds
// one), the number of internal pages written and the number of levels
// added.
func Build(store *pagestore.Store, level []Child) (root device.PageID, nodes, levels int, err error) {
	fanout := Capacity(store.PageSize())
	buf := make([]byte, store.PageSize())
	for len(level) > 1 {
		numNodes := (len(level) + fanout - 1) / fanout
		first := store.Allocate(numNodes)
		next := make([]Child, 0, numNodes)
		for group := range slices.Chunk(level, fanout) {
			n := &Node{
				Keys:     make([]uint64, len(group)-1),
				Children: make([]device.PageID, len(group)),
			}
			for j, c := range group {
				n.Children[j] = c.Pid
				if j > 0 {
					n.Keys[j-1] = c.MinKey
				}
			}
			if err := Encode(buf, n); err != nil {
				return 0, 0, 0, err
			}
			pid := first + device.PageID(len(next))
			if err := store.WritePage(pid, buf); err != nil {
				return 0, 0, 0, err
			}
			next = append(next, Child{MinKey: group[0].MinKey, Pid: pid})
		}
		level = next
		nodes += numNodes
		levels++
	}
	return level[0].Pid, nodes, levels, nil
}

// Pages returns every internal page of the tree of the given height
// under root, in depth-first order, for warming a buffer cache.
func Pages(store *pagestore.Store, root device.PageID, height int, corrupt error) ([]device.PageID, error) {
	var out []device.PageID
	var walk func(pid device.PageID, depth int) error
	walk = func(pid device.PageID, depth int) error {
		if depth == height-1 {
			return nil // leaf level
		}
		out = append(out, pid)
		buf, err := store.ReadPage(pid)
		if err != nil {
			return err
		}
		count, err := Count(buf, corrupt)
		if err != nil {
			return err
		}
		for i := 0; i <= count; i++ {
			if err := walk(child(buf, count, i), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if height <= 1 {
		return nil, nil
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Frame is one internal node of a root-to-leaf descent: its page, the
// image the descent routed (one Route accepted, so its count is sound)
// and the slot the descent took. Images are immutable, so a frame is
// free to keep one; a writer gets a private copy of the node only where
// Insert rewrites it.
type Frame struct {
	Pid   device.PageID
	Image []byte
	Slot  int
}

// count returns the key count of the frame's image.
func (f Frame) count() int { return int(binary.LittleEndian.Uint16(f.Image[1:3])) }

// LeftSibling returns the child left of the one the descent took; the
// caller has checked that Slot is positive.
func (f Frame) LeftSibling() device.PageID { return child(f.Image, f.count(), f.Slot-1) }

// Write writes n, which replaces the page old (InvalidPage for a node
// that replaces none: a split's right half or a new root), and returns
// the page it wrote.
type Write func(old device.PageID, n *Node) (device.PageID, error)

// Insert applies a child split to the descent path, bottom-up: at the
// deepest frame, left replaces the child the descent took and right is
// inserted after it, its least key the new separator. Each node it
// reaches is decoded from its frame's image, which stays unchanged. A
// node that then holds more than capacity children splits, its middle
// key moving up with a fresh right half; a separator that passes the
// top frame grows a new root. Each node is written with write. A node
// that write leaves on its own page, and that passes no separator up,
// leaves its parent unchanged, and the loop stops there: that is how a
// tree that writes in place stops at the first node that needs no
// split, while one that writes copy-on-write rewrites the whole path.
// Insert returns the root, the number of pages added (split halves and
// a new root) and the number of levels the tree grew, 0 or 1.
func Insert(path []Frame, left device.PageID, right Child, capacity int, write Write) (root device.PageID, added, grew int, err error) {
	split := true
	for level := len(path) - 1; level >= 0; level-- {
		f := path[level]
		n := decode(f.Image, f.count())
		n.Children[f.Slot] = left
		if split {
			n.Keys = slices.Insert(n.Keys, f.Slot, right.MinKey)
			n.Children = slices.Insert(n.Children, f.Slot+1, right.Pid)
		}
		if len(n.Children) <= capacity {
			pid, err := write(f.Pid, n)
			if err != nil {
				return 0, 0, 0, err
			}
			if pid == f.Pid {
				return path[0].Pid, added, 0, nil
			}
			left, split = pid, false
			continue
		}
		mid := len(n.Keys) / 2
		half := &Node{
			Keys:     slices.Clone(n.Keys[mid+1:]),
			Children: slices.Clone(n.Children[mid+1:]),
		}
		up := n.Keys[mid]
		n.Keys, n.Children = n.Keys[:mid], n.Children[:mid+1]
		if left, err = write(f.Pid, n); err != nil {
			return 0, 0, 0, err
		}
		if right.Pid, err = write(device.InvalidPage, half); err != nil {
			return 0, 0, 0, err
		}
		right.MinKey = up
		added++
	}
	if !split {
		return left, added, 0, nil
	}
	root, err = write(device.InvalidPage, &Node{Keys: []uint64{right.MinKey}, Children: []device.PageID{left, right.Pid}})
	if err != nil {
		return 0, 0, 0, err
	}
	return root, added + 1, 1, nil
}
