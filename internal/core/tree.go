package core

import (
	"fmt"

	"bftree/internal/bloom"
	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// ProbeStats accounts the work done by one index probe (or accumulates
// over many).
type ProbeStats struct {
	IndexReads     int // index pages read (internal nodes + BF-leaves)
	BFProbes       int // Bloom filter membership tests
	CandidatePages int // data pages the filters flagged
	DataPagesRead  int // data pages actually fetched
	FalseReads     int // fetched data pages containing no match
}

// Add accumulates s into p.
func (p *ProbeStats) Add(s ProbeStats) {
	p.IndexReads += s.IndexReads
	p.BFProbes += s.BFProbes
	p.CandidatePages += s.CandidatePages
	p.DataPagesRead += s.DataPagesRead
	p.FalseReads += s.FalseReads
}

// Result is the outcome of a probe: matching tuples and the probe's
// cost accounting. Each tuple is a read-only view of the shared image of
// the data page it was read from (see package pagestore). A view stays
// valid for as long as the caller holds it, and a later write to the
// page leaves it unchanged; a caller that wants to change a tuple copies
// it first. A retained view keeps its whole page image (4 KiB at the
// default page size) alive.
type Result struct {
	Tuples [][]byte
	Stats  ProbeStats
}

// Store returns the index page store.
func (t *Tree) Store() *pagestore.Store { return t.store }

// File returns the indexed heap file.
func (t *Tree) File() *heapfile.File { return t.file }

// FieldIndex returns the indexed field.
func (t *Tree) FieldIndex() int { return t.fieldIdx }

// Options returns the build options (with defaults applied).
func (t *Tree) Options() Options { return t.opts }

// Geometry returns the derived leaf geometry.
func (t *Tree) Geometry() Geometry { return t.geo }

// Height returns the number of levels, BF-leaves included (Equation 7).
func (t *Tree) Height() int { return t.loadMeta().height }

// NumLeaves returns the BF-leaf count (Equation 6).
func (t *Tree) NumLeaves() uint64 { return t.loadMeta().numLeaves }

// NumNodes returns the total live page count of the index; size in
// bytes is NumNodes × page size (Equation 10). Pages retired by
// copy-on-write structural changes are excluded (they return to the
// store's free list after a grace period).
func (t *Tree) NumNodes() uint64 { return t.loadMeta().numNodes }

// NumKeys returns the number of distinct keys indexed at build time.
func (t *Tree) NumKeys() uint64 { return t.loadMeta().numKeys }

// SizeBytes returns the index footprint in bytes.
func (t *Tree) SizeBytes() uint64 { return t.loadMeta().numNodes * uint64(t.store.PageSize()) }

// Root returns the root page id of the current snapshot.
func (t *Tree) Root() device.PageID { return t.loadMeta().root }

// EffectiveFPP estimates the current false positive probability after
// post-build inserts and deletes: Equation 14 for inserts, plus the
// additive delete term of Section 7.
func (t *Tree) EffectiveFPP() float64 {
	m := t.loadMeta()
	fpp := t.opts.FPP
	if m.numKeys > 0 && m.inserts > 0 {
		fpp = bloom.DriftedFPP(fpp, float64(m.inserts)/float64(m.numKeys))
	}
	if t.opts.Filter == StandardFilter && m.numKeys > 0 && m.deletes > 0 {
		fpp += float64(m.deletes) / float64(m.numKeys)
		if fpp > 1 {
			fpp = 1
		}
	}
	return fpp
}

// InternalPages returns the ids of all internal (non-leaf) pages, for
// pre-warming a buffer cache in warm-cache experiments.
func (t *Tree) InternalPages() ([]device.PageID, error) {
	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	return branch.Pages(t.store, m.root, m.height, ErrCorrupt)
}

// lastDataPage returns the final page id of the indexed file, for
// clamping candidate ranges of leaves that cover not-yet-written pages.
func (t *Tree) lastDataPage() device.PageID {
	return t.file.FirstPage() + device.PageID(t.file.NumPages()) - 1
}

// Search implements Algorithm 1: descend to the BF-leaf for key, probe
// every Bloom filter, fetch the candidate data pages in ascending page
// order (the sorted access list the paper hands to the device), and
// return every tuple whose indexed field equals key.
func (t *Tree) Search(key uint64) (*Result, error) {
	return t.search(key, false)
}

// SearchFirst is the primary-key variant of Algorithm 1: the scan stops
// as soon as one matching tuple is found, as the paper does for unique
// indexes.
func (t *Tree) SearchFirst(key uint64) (*Result, error) {
	return t.search(key, true)
}

func (t *Tree) search(key uint64, firstOnly bool) (*Result, error) {
	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	res := &Result{}
	err := indexReader{t: t, stats: &res.Stats}.coveringLeaves(m.root, key,
		func(_ device.PageID, leaf *bfLeaf) (bool, error) {
			return t.probeLeaf(leaf, key, firstOnly, res)
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// probeLeaf runs the filter probes and candidate page reads for one leaf.
// It reports true when firstOnly is set and a match was found.
func (t *Tree) probeLeaf(leaf *bfLeaf, key uint64, firstOnly bool, res *Result) (bool, error) {
	matches := leaf.probe(key)
	res.Stats.BFProbes += leaf.numBFs()
	last := t.lastDataPage()
	for _, bid := range matches {
		lo, hi := leaf.pageRangeOf(bid)
		if hi > last {
			hi = last
		}
		for pid := lo; pid <= hi; pid++ {
			res.Stats.CandidatePages++
			n := len(res.Tuples)
			var err error
			if res.Tuples, err = t.file.AppendMatches(res.Tuples, pid, t.fieldIdx, heapfile.Keys{Lo: key, Hi: key}); err != nil {
				return false, err
			}
			res.Stats.DataPagesRead++
			if len(res.Tuples) == n {
				res.Stats.FalseReads++
				continue
			}
			if firstOnly {
				return true, nil
			}
		}
	}
	return false, nil
}

// String summarizes the tree.
func (t *Tree) String() string {
	m := t.loadMeta()
	return fmt.Sprintf("bftree{fpp=%g height=%d leaves=%d nodes=%d keys=%d size=%dB}",
		t.opts.FPP, m.height, m.numLeaves, m.numNodes, m.numKeys,
		m.numNodes*uint64(t.store.PageSize()))
}
