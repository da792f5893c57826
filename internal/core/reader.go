package core

import (
	"bftree/internal/branch"
	"bftree/internal/device"
)

// indexReader reads the index pages of one operation. It owns the one
// root-to-leaf descent and the one covering-leaf walk of Algorithm 1;
// every probe, write and maintenance path reads index pages through it.
//
// A reader charges one IndexReads per page it reads to stats, when
// stats is set (writers leave it nil). MultiSearch sets images, a cache
// of the page images its batch has read: a cached page is answered
// without calling the store, so the batch neither re-reads nor
// re-charges a page that several of its keys share. Every other reader
// leaves images nil and reads straight through.
type indexReader struct {
	t      *Tree
	stats  *ProbeStats
	images map[device.PageID][]byte
}

// page returns the image of index page pid.
func (r indexReader) page(pid device.PageID) ([]byte, error) {
	if r.images != nil {
		if buf, ok := r.images[pid]; ok {
			return buf, nil
		}
	}
	buf, err := r.t.store.ReadPage(pid)
	if err != nil {
		return nil, err
	}
	if r.stats != nil {
		r.stats.IndexReads++
	}
	if r.images != nil {
		r.images[pid] = buf
	}
	return buf, nil
}

// leaf reads and decodes the BF-leaf at pid.
func (r indexReader) leaf(pid device.PageID) (*bfLeaf, error) {
	buf, err := r.page(pid)
	if err != nil {
		return nil, err
	}
	return decodeBFLeaf(buf)
}

// leafFrom reads the BF-leaf at pid, the next link of a covering-leaf
// walk for key, and decodes it only when key is not below its key
// range. Otherwise the walk has ended, which the header's minKey tells
// without a decode, and leafFrom returns nil.
func (r indexReader) leafFrom(pid device.PageID, key uint64) (*bfLeaf, error) {
	buf, err := r.page(pid)
	if err != nil {
		return nil, err
	}
	if minKey, ok := leafMinKey(buf); ok && key < minKey {
		return nil, nil
	}
	return decodeBFLeaf(buf)
}

// descend walks from root to the leaf that key routes to, routing each
// internal node in place, and returns the leaf's pid and its undecoded
// image. Searches route leftmost (key <= separator goes left, because
// duplicates may trail in the left leaf); inserts route rightmost (key
// == separator goes right, because a separator is the right leaf's min
// key, so new tuples for it live in the right leaf's page range).
//
// An insert descent also returns the leaf's route bound, the largest key
// that still routes to the leaf: one below the separator right of the
// taken slot at the deepest level that has one, or MaxUint64 on the
// rightmost spine. The separator itself routes right, so it is already
// outside the leaf. A search descent returns MaxUint64 and does no work
// for it. With path set, descend also records the image of every
// internal node on the way down, for split propagation (branch.Insert
// decodes the nodes it rewrites). The root comes from the caller's
// snapshot, so a whole operation sees one consistent tree.
func (r indexReader) descend(root device.PageID, key uint64, forInsert bool, path *[]branch.Frame) (pid device.PageID, image []byte, bound uint64, err error) {
	pid, bound = root, ^uint64(0)
	for {
		buf, err := r.page(pid)
		if err != nil {
			return 0, nil, 0, err
		}
		kind, err := nodeKind(buf)
		if err != nil {
			return 0, nil, 0, err
		}
		if kind == nodeBFLeaf {
			return pid, buf, bound, nil
		}
		slot, child, err := branch.Route(buf, key, forInsert, ErrCorrupt)
		if err != nil {
			return 0, nil, 0, err
		}
		if forInsert {
			// Route has already checked the count.
			if count, _ := branch.Count(buf, ErrCorrupt); slot < count {
				bound = branch.Key(buf, slot) - 1
			}
		}
		if path != nil {
			*path = append(*path, branch.Frame{Pid: pid, Image: buf, Slot: slot})
		}
		pid = child
	}
}

// coveringLeaves is the leaf walk of Algorithm 1. It descends leftmost
// to the first leaf that may hold key and skips forward while a leaf
// lies wholly below key: a leftmost descent lands one leaf early when
// key equals a separator whose duplicates do not trail left. Then it
// calls visit on each chained leaf whose [minKey, maxKey] covers key,
// because key's duplicates may continue into following leaves, until a
// leaf no longer covers key or visit reports done.
func (r indexReader) coveringLeaves(root device.PageID, key uint64, visit func(pid device.PageID, leaf *bfLeaf) (done bool, err error)) error {
	pid, buf, _, err := r.descend(root, key, false, nil)
	if err != nil {
		return err
	}
	leaf, err := decodeBFLeaf(buf)
	if err != nil {
		return err
	}
	for key > leaf.maxKey && leaf.next != device.InvalidPage {
		pid = leaf.next
		if leaf, err = r.leafFrom(pid, key); leaf == nil || err != nil {
			return err
		}
	}
	for key >= leaf.minKey && key <= leaf.maxKey {
		if done, err := visit(pid, leaf); done || err != nil {
			return err
		}
		if leaf.next == device.InvalidPage {
			return nil
		}
		pid = leaf.next
		if leaf, err = r.leafFrom(pid, key); leaf == nil || err != nil {
			return err
		}
	}
	return nil
}

// candidates appends to pages the data pages that key's covering leaves
// flag, clamped to the file's last page, charging the filter probes and
// candidate pages to stats, which must be set: the index part of
// Algorithm 1.
func (r indexReader) candidates(root device.PageID, key uint64, pages []device.PageID) ([]device.PageID, error) {
	last := r.t.lastDataPage()
	err := r.coveringLeaves(root, key, func(_ device.PageID, leaf *bfLeaf) (bool, error) {
		r.stats.BFProbes += leaf.numBFs()
		for _, bid := range leaf.probe(key) {
			lo, hi := leaf.pageRangeOf(bid)
			for p := lo; p <= min(hi, last); p++ {
				pages = append(pages, p)
				r.stats.CandidatePages++
			}
		}
		return false, nil
	})
	return pages, err
}
