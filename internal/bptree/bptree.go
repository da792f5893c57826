package bptree

import (
	"fmt"
	"sort"

	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// Tree is a disk-resident B+-Tree over a page store. Keys are uint64 and
// may repeat (non-unique secondary indexes hold one entry per tuple).
type Tree struct {
	store     *pagestore.Store
	root      device.PageID
	height    int // number of levels, leaves included
	numLeaves uint64
	numNodes  uint64
	numEntry  uint64
	leafCap   int
}

// BulkLoad builds a tree from entries sorted by key (ties in any order).
// It packs leaves to fillFactor (0 < fillFactor <= 1, e.g. 1.0 for the
// paper's read-only experiments) and builds the internal levels bottom-up,
// one pass over the leaves, exactly as Section 4.2 describes for trees in
// this family.
func BulkLoad(store *pagestore.Store, entries []Entry, fillFactor float64) (*Tree, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("bptree: bulk load of zero entries")
	}
	if fillFactor <= 0 || fillFactor > 1 {
		return nil, fmt.Errorf("bptree: fill factor %g out of (0,1]", fillFactor)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key < entries[i-1].Key {
			return nil, fmt.Errorf("bptree: entries not sorted at %d", i)
		}
	}
	t := &Tree{store: store, leafCap: LeafCapacity(store.PageSize())}
	perLeaf := int(float64(t.leafCap) * fillFactor)
	if perLeaf < 1 {
		perLeaf = 1
	}

	// Level 0: pack leaves into consecutive pages so the next pointers
	// can be assigned before writing.
	numLeaves := (len(entries) + perLeaf - 1) / perLeaf
	firstLeaf := store.Allocate(numLeaves)
	buf := make([]byte, store.PageSize())
	level := make([]branch.Child, 0, numLeaves)
	for i := 0; i < numLeaves; i++ {
		lo := i * perLeaf
		hi := lo + perLeaf
		if hi > len(entries) {
			hi = len(entries)
		}
		next := device.InvalidPage
		if i < numLeaves-1 {
			next = firstLeaf + device.PageID(i) + 1
		}
		n := &leafNode{next: next, entries: entries[lo:hi]}
		if err := encodeLeaf(buf, n); err != nil {
			return nil, err
		}
		pid := firstLeaf + device.PageID(i)
		if err := store.WritePage(pid, buf); err != nil {
			return nil, err
		}
		level = append(level, branch.Child{MinKey: entries[lo].Key, Pid: pid})
	}
	root, nodes, levels, err := branch.Build(store, level)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.numLeaves = uint64(numLeaves)
	t.numNodes = uint64(numLeaves + nodes)
	t.numEntry = uint64(len(entries))
	t.height = 1 + levels
	return t, nil
}

// Store returns the underlying page store.
func (t *Tree) Store() *pagestore.Store { return t.store }

// Height returns the number of levels including the leaf level
// (Equation 4 of the paper).
func (t *Tree) Height() int { return t.height }

// NumLeaves returns the leaf count (Equation 3).
func (t *Tree) NumLeaves() uint64 { return t.numLeaves }

// NumNodes returns the total node count; size in bytes is
// NumNodes × page size (Equation 9).
func (t *Tree) NumNodes() uint64 { return t.numNodes }

// NumEntries returns the number of indexed entries.
func (t *Tree) NumEntries() uint64 { return t.numEntry }

// SizeBytes returns the index footprint in bytes.
func (t *Tree) SizeBytes() uint64 { return t.numNodes * uint64(t.store.PageSize()) }

// InternalPages returns the ids of all non-leaf pages, for warming the
// buffer cache in warm-cache experiments.
func (t *Tree) InternalPages() ([]device.PageID, error) {
	return branch.Pages(t.store, t.root, t.height, ErrCorrupt)
}

// Insert adds an entry, splitting nodes as needed. The implementation
// reads the root-to-leaf path, inserts into the leaf and splits upwards,
// writing each node in place; the root splits by allocating a new root,
// growing the height.
func (t *Tree) Insert(e Entry) error {
	// Collect the descent path, routing rightmost: a new entry equal to a
	// separator belongs right of it.
	var path []branch.Frame
	pid := t.root
	var leaf *leafNode
	for {
		buf, err := t.store.ReadPage(pid)
		if err != nil {
			return err
		}
		kind, err := nodeKind(buf)
		if err != nil {
			return err
		}
		if kind == nodeLeaf {
			leaf, err = decodeLeaf(buf)
			if err != nil {
				return err
			}
			break
		}
		slot, child, err := branch.Route(buf, e.Key, true, ErrCorrupt)
		if err != nil {
			return err
		}
		path = append(path, branch.Frame{Pid: pid, Image: buf, Slot: slot})
		pid = child
	}

	// Insert into the leaf in key order.
	i := sort.Search(len(leaf.entries), func(i int) bool { return leaf.entries[i].Key > e.Key })
	leaf.entries = append(leaf.entries, Entry{})
	copy(leaf.entries[i+1:], leaf.entries[i:])
	leaf.entries[i] = e
	t.numEntry++

	buf := make([]byte, t.store.PageSize())
	if len(leaf.entries) <= t.leafCap {
		if err := encodeLeaf(buf, leaf); err != nil {
			return err
		}
		return t.store.WritePage(pid, buf)
	}

	// Leaf split: left keeps the low half, right gets the rest.
	mid := len(leaf.entries) / 2
	rightPid := t.store.Allocate(1)
	right := &leafNode{next: leaf.next, entries: append([]Entry(nil), leaf.entries[mid:]...)}
	left := &leafNode{next: rightPid, entries: leaf.entries[:mid]}
	if err := encodeLeaf(buf, left); err != nil {
		return err
	}
	if err := t.store.WritePage(pid, buf); err != nil {
		return err
	}
	if err := encodeLeaf(buf, right); err != nil {
		return err
	}
	if err := t.store.WritePage(rightPid, buf); err != nil {
		return err
	}
	t.numLeaves++
	t.numNodes++

	// Propagate the separator upward, each node written in place, so
	// propagation stops at the first node that needs no split.
	write := func(old device.PageID, n *branch.Node) (device.PageID, error) {
		at := old
		if at == device.InvalidPage {
			at = t.store.Allocate(1)
		}
		if err := branch.Encode(buf, n); err != nil {
			return 0, err
		}
		return at, t.store.WritePage(at, buf)
	}
	root, added, grew, err := branch.Insert(path, pid, branch.Child{MinKey: right.entries[0].Key, Pid: rightPid},
		branch.Capacity(t.store.PageSize()), write)
	if err != nil {
		return err
	}
	t.root = root
	t.numNodes += uint64(added)
	t.height += grew
	return nil
}
