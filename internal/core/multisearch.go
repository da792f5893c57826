package core

import (
	"slices"

	"bftree/internal/device"
	"bftree/internal/heapfile"
)

// MultiSearch answers a batch of point lookups in one pass:
//  1. it sorts the keys and drops duplicates;
//  2. it walks each key's covering leaves through one reader whose
//     per-batch cache holds every index page image the batch has read
//     (adjacent keys share their root-to-leaf path, so n descents cost
//     little more than one);
//  3. it appends every flagged data page to one list, then sorts it and
//     drops duplicates;
//  4. it reads each of those pages once, ascending, and scans it in
//     place for tuples whose indexed field is a batch key, by binary
//     search in the sorted batch.
//
// Accounting: IndexReads counts the distinct index pages the batch read
// (the shared-descent savings the batched-probe experiment measures);
// BFProbes and CandidatePages accumulate per key exactly as n
// individual Search calls would; DataPagesRead counts distinct data
// pages read; FalseReads counts read pages yielding no match for any
// batch key. Tuples are returned in page order (grouped by data page,
// not by probe key); every tuple whose indexed field equals any batch
// key appears exactly once. Bloom filters have no false negatives, so a
// batch key's tuples always lie on pages its own probe flagged, and
// matching against the whole batch equals per-key matching.
//
// The whole batch runs under one reader registration, so it observes a
// single consistent snapshot.
func (t *Tree) MultiSearch(keys []uint64) (*Result, error) {
	res := &Result{}
	if len(keys) == 0 {
		return res, nil
	}
	batch := slices.Clone(keys)
	slices.Sort(batch)
	batch = slices.Compact(batch)

	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	r := indexReader{t: t, stats: &res.Stats, images: make(map[device.PageID][]byte)}
	var pages []device.PageID
	for _, key := range batch {
		var err error
		if pages, err = r.candidates(m.root, key, pages); err != nil {
			return nil, err
		}
	}
	slices.Sort(pages)
	pages = slices.Compact(pages)

	match := heapfile.Keys{Lo: batch[0], Hi: batch[len(batch)-1], In: batch}
	for _, pid := range pages {
		n := len(res.Tuples)
		var err error
		if res.Tuples, err = t.file.AppendMatches(res.Tuples, pid, t.fieldIdx, match); err != nil {
			return nil, err
		}
		res.Stats.DataPagesRead++
		if len(res.Tuples) == n {
			res.Stats.FalseReads++
		}
	}
	return res, nil
}
