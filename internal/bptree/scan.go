package bptree

import (
	"fmt"
	"slices"
	"sort"

	"bftree/internal/branch"
	"bftree/internal/device"
)

// reader reads the pages of one tree operation and counts them. A batch
// reader (MultiSearch) memoizes the image of every page it reads and
// every leaf it decodes, so a page that several keys of the batch share
// is read and counted once — what a buffer pool would actually fetch.
// A scan's reader memoizes nothing and reads straight through.
type reader struct {
	t      *Tree
	images map[device.PageID][]byte // nil: no memo
	leaves map[device.PageID]*leafNode
	reads  int
}

// descend walks from the root to the leaf that may hold key, routing
// each internal page in place. It routes leftmost: when key equals a
// separator the left subtree may still hold equal keys (non-unique
// indexes), so it goes left and lets the leaf chain carry the search
// forward.
func (r *reader) descend(key uint64) (*leafNode, error) {
	pid := r.t.root
	for {
		if l, ok := r.leaves[pid]; ok {
			return l, nil
		}
		buf, err := r.read(pid)
		if err != nil {
			return nil, err
		}
		kind, err := nodeKind(buf)
		if err != nil {
			return nil, err
		}
		if kind == nodeLeaf {
			return r.decodeLeaf(pid, buf)
		}
		if _, pid, err = branch.Route(buf, key, false, ErrCorrupt); err != nil {
			return nil, err
		}
	}
}

// leaf returns the leaf at pid.
func (r *reader) leaf(pid device.PageID) (*leafNode, error) {
	if l, ok := r.leaves[pid]; ok {
		return l, nil
	}
	buf, err := r.read(pid)
	if err != nil {
		return nil, err
	}
	return r.decodeLeaf(pid, buf)
}

func (r *reader) read(pid device.PageID) ([]byte, error) {
	if buf, ok := r.images[pid]; ok {
		return buf, nil
	}
	buf, err := r.t.store.ReadPage(pid)
	if err != nil {
		return nil, err
	}
	r.reads++
	if r.images != nil {
		r.images[pid] = buf
	}
	return buf, nil
}

func (r *reader) decodeLeaf(pid device.PageID, buf []byte) (*leafNode, error) {
	l, err := decodeLeaf(buf)
	if err != nil {
		return nil, err
	}
	if r.leaves != nil {
		r.leaves[pid] = l
	}
	return l, nil
}

// search returns the tuple references of every entry with the given
// key. Duplicates may spill into following leaves, which are chased
// through the next pointers.
func (r *reader) search(key uint64) ([]TupleRef, error) {
	leaf, err := r.descend(key)
	if err != nil {
		return nil, err
	}
	var out []TupleRef
	for {
		i := sort.Search(len(leaf.entries), func(i int) bool { return leaf.entries[i].Key >= key })
		for ; i < len(leaf.entries) && leaf.entries[i].Key == key; i++ {
			out = append(out, leaf.entries[i].Ref)
		}
		// If the scan ran off the end of the leaf the key may continue.
		if i < len(leaf.entries) || leaf.next == device.InvalidPage {
			return out, nil
		}
		next, err := r.leaf(leaf.next)
		if err != nil {
			return nil, err
		}
		if len(next.entries) == 0 || next.entries[0].Key != key {
			return out, nil
		}
		leaf = next
	}
}

// Cursor streams the entries of a range scan in key order, one at a
// time: the leaf-sibling walk exposed pull-style, so a LIMIT-k consumer
// reads only the leaves it actually advances into. Leaves are fetched
// lazily on Next; Reads reports the index pages read so far (descent
// plus consumed leaf-chain links). A Cursor holds no locks or pins — the
// tree is read-only during scans — so Close only drops buffers and is
// optional.
type Cursor struct {
	r    *reader
	hi   uint64
	leaf *leafNode
	i    int // index of the current entry within leaf, -1 before first
	err  error
	done bool
}

// Scan opens a cursor over every entry with key in [lo, hi].
func (t *Tree) Scan(lo, hi uint64) (*Cursor, error) {
	if lo > hi {
		return nil, fmt.Errorf("bptree: range [%d,%d] inverted", lo, hi)
	}
	r := &reader{t: t}
	leaf, err := r.descend(lo)
	if err != nil {
		return nil, err
	}
	c := &Cursor{r: r, hi: hi, leaf: leaf}
	c.i = sort.Search(len(leaf.entries), func(i int) bool { return leaf.entries[i].Key >= lo }) - 1
	return c, nil
}

// Next advances to the next in-range entry, reporting whether one
// exists. It returns false at the end of the range or on error.
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	for {
		if c.i+1 < len(c.leaf.entries) {
			c.i++
			if c.leaf.entries[c.i].Key > c.hi {
				c.done = true
				return false
			}
			return true
		}
		if c.leaf.next == device.InvalidPage {
			c.done = true
			return false
		}
		leaf, err := c.r.leaf(c.leaf.next)
		if err != nil {
			c.err = err
			return false
		}
		c.leaf, c.i = leaf, -1
	}
}

// Ref returns the tuple reference of the current entry.
func (c *Cursor) Ref() TupleRef {
	if c.leaf == nil || c.i < 0 || c.i >= len(c.leaf.entries) {
		return TupleRef{}
	}
	return c.leaf.entries[c.i].Ref
}

// Reads returns the index pages read so far.
func (c *Cursor) Reads() int { return c.r.reads }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's buffers. Idempotent; never fails.
func (c *Cursor) Close() error {
	c.done = true
	c.leaf = nil
	c.i = -1
	return nil
}

// KeyRefs groups the tuple references of one batch key. The exact
// backends return batched-probe answers in this shape so callers can
// run per-key fetches (the deduplicated layout's ordered scans) without
// re-deriving which ref answers which key.
type KeyRefs struct {
	Key  uint64
	Refs []TupleRef
}

// MultiSearch answers a batch of point lookups in one pass — a point
// lookup is a batch of one: keys are sorted and deduped, then probed in
// order through one memoizing reader, so adjacent keys share their
// root-to-leaf path and a leaf holding several batch keys is decoded
// once. Groups come back in ascending key order, keys without matches
// omitted; reads counts distinct index pages read for the whole batch —
// the shared-descent savings the batched-probe experiment measures.
func (t *Tree) MultiSearch(keys []uint64) ([]KeyRefs, int, error) {
	batch := slices.Clone(keys)
	slices.Sort(batch)
	r := &reader{t: t, images: make(map[device.PageID][]byte), leaves: make(map[device.PageID]*leafNode)}
	var out []KeyRefs
	for _, key := range slices.Compact(batch) {
		refs, err := r.search(key)
		if err != nil {
			return nil, r.reads, err
		}
		if len(refs) > 0 {
			out = append(out, KeyRefs{Key: key, Refs: refs})
		}
	}
	return out, r.reads, nil
}
