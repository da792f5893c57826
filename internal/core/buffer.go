package core

import (
	"sort"

	"bftree/internal/device"
)

// BufferedInserter implements the update-intensive mode of Section 4.2:
// "each node can maintain a list of inserted/deleted/updated keys in
// order to accumulate enough number of such operations to amortize the
// cost of updating the BF". Inserts accumulate in memory and are applied
// in key order on Flush, one leaf read/write per touched leaf instead of
// one per insert. Searches through the inserter consult the buffer, so
// buffered keys are never invisible.
//
// A BufferedInserter is a single-writer handle: its own buffer state is
// not synchronized, so use it from one goroutine. Probes and writers
// directly on the Tree may run concurrently: Flush takes the locks a
// direct Insert takes.
type BufferedInserter struct {
	tree     *Tree
	capacity int
	pending  []pendingInsert
}

type pendingInsert struct {
	key uint64
	pid device.PageID
}

// NewBufferedInserter wraps the tree with an insert buffer of the given
// capacity (number of pending inserts that triggers an automatic flush).
func (t *Tree) NewBufferedInserter(capacity int) *BufferedInserter {
	if capacity < 1 {
		capacity = 1024
	}
	return &BufferedInserter{tree: t, capacity: capacity}
}

// Insert buffers one key→page insert, flushing when the buffer is full.
func (b *BufferedInserter) Insert(key uint64, pid device.PageID) error {
	b.pending = append(b.pending, pendingInsert{key: key, pid: pid})
	if len(b.pending) >= b.capacity {
		return b.Flush()
	}
	return nil
}

// Pending returns the number of buffered inserts.
func (b *BufferedInserter) Pending() int { return len(b.pending) }

// Search probes the tree and overlays any buffered inserts for the key:
// each buffered page for the key is fetched directly and its matches are
// merged into the result. Tuples the index probe already fetched (the
// key can be present on an indexed page and a buffered page at once) are
// not duplicated: the merge dedups against the probe's tuples, so a
// buffered page the probe also read contributes nothing twice. A
// buffered page is charged as the probe charges a flagged page — one
// candidate page, one data page read, and a false read when it holds no
// tuple for the key — so a search whose buffered page the probe does
// not flag yet reports the same counts before and after Flush.
func (b *BufferedInserter) Search(key uint64) (*Result, error) {
	res, err := b.tree.Search(key)
	if err != nil {
		return nil, err
	}
	var have map[string]int
	seen := make(map[device.PageID]bool)
	for _, p := range b.pending {
		if p.key != key || seen[p.pid] {
			continue
		}
		seen[p.pid] = true
		// The page may already have been fetched by the tree probe;
		// re-fetching keeps the code simple and only affects
		// buffered keys.
		tuples, err := b.tree.file.SearchPage(p.pid, b.tree.fieldIdx, key)
		if err != nil {
			return nil, err
		}
		res.Stats.CandidatePages++
		res.Stats.DataPagesRead++
		if len(tuples) == 0 {
			res.Stats.FalseReads++
			continue
		}
		if have == nil {
			have = make(map[string]int, len(res.Tuples))
			for _, tup := range res.Tuples {
				have[string(tup)]++
			}
		}
		for _, tup := range tuples {
			if have[string(tup)] > 0 {
				have[string(tup)]--
				continue
			}
			res.Tuples = append(res.Tuples, tup)
		}
	}
	return res, nil
}

// Flush applies all buffered inserts. Entries are sorted by key and
// applied through insertBatch, the path a direct Insert takes: each run
// of entries that routes to one leaf is absorbed in one latched leaf
// rewrite, under the shared writer lock — so a flush streams alongside
// latched writers and other flushes on disjoint leaves — and an entry
// that needs structural work (a split, an append past the tail)
// escalates alone to the exclusive lock. On error, every entry that was
// not durably applied stays in the buffer — a failed flush loses
// nothing, and a retry picks up exactly where it stopped.
func (b *BufferedInserter) Flush() error {
	batch := b.pending
	b.pending = nil
	sort.Slice(batch, func(i, j int) bool { return batch[i].key < batch[j].key })
	n, err := b.tree.insertBatch(batch)
	if err != nil {
		b.pending = batch[n:]
	}
	return err
}
