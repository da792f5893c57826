package bptree

import (
	"fmt"
	"sort"

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
	branchCap int
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
	t := &Tree{
		store:     store,
		leafCap:   LeafCapacity(store.PageSize()),
		branchCap: InternalCapacity(store.PageSize()),
	}
	perLeaf := int(float64(t.leafCap) * fillFactor)
	if perLeaf < 1 {
		perLeaf = 1
	}

	// Level 0: pack leaves into consecutive pages so the next pointers
	// can be assigned before writing.
	numLeaves := (len(entries) + perLeaf - 1) / perLeaf
	firstLeaf := store.Allocate(numLeaves)
	buf := make([]byte, store.PageSize())
	type childRef struct {
		minKey uint64
		pid    device.PageID
	}
	level := make([]childRef, 0, numLeaves)
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
		level = append(level, childRef{minKey: entries[lo].Key, pid: pid})
	}
	t.numLeaves = uint64(numLeaves)
	t.numNodes = uint64(numLeaves)
	t.numEntry = uint64(len(entries))
	t.height = 1

	// Build internal levels until a single root remains.
	for len(level) > 1 {
		perNode := t.branchCap
		numNodes := (len(level) + perNode - 1) / perNode
		first := store.Allocate(numNodes)
		nextLevel := make([]childRef, 0, numNodes)
		for i := 0; i < numNodes; i++ {
			lo := i * perNode
			hi := lo + perNode
			if hi > len(level) {
				hi = len(level)
			}
			group := level[lo:hi]
			n := &internalNode{
				keys:     make([]uint64, len(group)-1),
				children: make([]device.PageID, len(group)),
			}
			for j, c := range group {
				n.children[j] = c.pid
				if j > 0 {
					n.keys[j-1] = c.minKey
				}
			}
			if err := encodeInternal(buf, n); err != nil {
				return nil, err
			}
			pid := first + device.PageID(i)
			if err := store.WritePage(pid, buf); err != nil {
				return nil, err
			}
			nextLevel = append(nextLevel, childRef{minKey: group[0].minKey, pid: pid})
		}
		level = nextLevel
		t.numNodes += uint64(numNodes)
		t.height++
	}
	t.root = level[0].pid
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
	var out []device.PageID
	var walk func(pid device.PageID, depth int) error
	walk = func(pid device.PageID, depth int) error {
		if depth == t.height-1 {
			return nil // leaf level
		}
		out = append(out, pid)
		buf, err := t.store.ReadPage(pid)
		if err != nil {
			return err
		}
		n, err := decodeInternal(buf)
		if err != nil {
			return err
		}
		for _, c := range n.children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if t.height == 1 {
		return nil, nil
	}
	if err := walk(t.root, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Insert adds an entry, splitting nodes as needed. The implementation
// reads the root-to-leaf path, inserts into the leaf and splits upwards;
// the root splits by allocating a new root, growing the height.
func (t *Tree) Insert(e Entry) error {
	type frame struct {
		pid  device.PageID
		node *internalNode
		slot int
	}
	// Collect the descent path.
	var path []frame
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
		n, err := decodeInternal(buf)
		if err != nil {
			return err
		}
		i := sort.Search(len(n.keys), func(i int) bool { return e.Key < n.keys[i] })
		path = append(path, frame{pid: pid, node: n, slot: i})
		pid = n.children[i]
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

	// Propagate the separator upward.
	sepKey := right.entries[0].Key
	newChild := rightPid
	for level := len(path) - 1; level >= 0; level-- {
		f := path[level]
		n := f.node
		// Insert sepKey/newChild after slot f.slot.
		n.keys = append(n.keys, 0)
		copy(n.keys[f.slot+1:], n.keys[f.slot:])
		n.keys[f.slot] = sepKey
		n.children = append(n.children, 0)
		copy(n.children[f.slot+2:], n.children[f.slot+1:])
		n.children[f.slot+1] = newChild
		if len(n.children) <= t.branchCap {
			if err := encodeInternal(buf, n); err != nil {
				return err
			}
			return t.store.WritePage(f.pid, buf)
		}
		// Split the internal node; the middle key moves up.
		midk := len(n.keys) / 2
		upKey := n.keys[midk]
		rightNode := &internalNode{
			keys:     append([]uint64(nil), n.keys[midk+1:]...),
			children: append([]device.PageID(nil), n.children[midk+1:]...),
		}
		n.keys = n.keys[:midk]
		n.children = n.children[:midk+1]
		rightPid := t.store.Allocate(1)
		if err := encodeInternal(buf, n); err != nil {
			return err
		}
		if err := t.store.WritePage(f.pid, buf); err != nil {
			return err
		}
		if err := encodeInternal(buf, rightNode); err != nil {
			return err
		}
		if err := t.store.WritePage(rightPid, buf); err != nil {
			return err
		}
		t.numNodes++
		sepKey = upKey
		newChild = rightPid
	}

	// The root itself split: grow the tree.
	newRoot := &internalNode{
		keys:     []uint64{sepKey},
		children: []device.PageID{t.root, newChild},
	}
	rootPid := t.store.Allocate(1)
	if err := encodeInternal(buf, newRoot); err != nil {
		return err
	}
	if err := t.store.WritePage(rootPid, buf); err != nil {
		return err
	}
	t.root = rootPid
	t.height++
	t.numNodes++
	return nil
}
