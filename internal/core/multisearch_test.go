package core

import (
	"fmt"
	"slices"
	"testing"

	"bftree/internal/device"
)

// TestMultiSearchMatchesPerKeyProbes pins MultiSearch to per-key probes
// on both filter kinds, over the relation whose separator key trails
// duplicates into the left leaf. For every batch, the tuples are the
// multiset union of the per-key Search results; BFProbes and
// CandidatePages are the per-key sums; DataPagesRead is the number of
// distinct candidate pages; and IndexReads is exactly what the
// uncached index device served during the call, never more than the
// per-key probes read in total. Each per-key Search must find every
// copy of its key, including the separator's, whose copies span two
// leaves.
func TestMultiSearchMatchesPerKeyProbes(t *testing.T) {
	// A standard leaf holds four times the keys of a counting leaf at
	// one fpp, so its fpp is lower to give the relation several leaves.
	for _, opts := range []Options{
		{FPP: 1e-6, Filter: StandardFilter},
		{FPP: 0.01, Filter: CountingFilter},
	} {
		t.Run(fmt.Sprintf("kind%d", opts.Filter), func(t *testing.T) {
			tr, sep, _, _ := separatorFixture(t, opts)
			batches := [][]uint64{
				nil,
				{sep},
				{sep, 7, sep, 7, sep + 1, 7},
				{1999, 2000, 5000, ^uint64(0)},
			}
			// The whole key domain in chunks of 50, each in descending
			// order so the batch sort is exercised too.
			for lo := uint64(0); lo < 2000; lo += 50 {
				var chunk []uint64
				for k := lo + 49; k+1 > lo; k-- {
					chunk = append(chunk, k)
				}
				batches = append(batches, chunk)
			}
			for _, keys := range batches {
				checkMultiSearch(t, tr, keys)
			}
		})
	}
}

// checkMultiSearch compares one MultiSearch call with per-key probes.
func checkMultiSearch(t *testing.T, tr *Tree, keys []uint64) {
	t.Helper()
	var want ProbeStats
	var wantTuples []string
	pages := map[device.PageID]bool{}
	distinct := slices.Compact(slices.Sorted(slices.Values(keys)))
	for _, k := range distinct {
		res, err := tr.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		// separatorFixture's relation holds 80 copies of each key
		// below 2000.
		copies := 0
		if k < 2000 {
			copies = 80
		}
		if len(res.Tuples) != copies {
			t.Errorf("Search(%d) found %d tuples, want %d", k, len(res.Tuples), copies)
		}
		want.Add(res.Stats)
		for _, tup := range res.Tuples {
			wantTuples = append(wantTuples, string(tup))
		}
		var cs ProbeStats
		cands, err := tr.candidatePages(k, &cs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cands {
			pages[p] = true
		}
	}

	dev := tr.Store().Device()
	before := dev.Stats().Reads()
	got, err := tr.MultiSearch(keys)
	if err != nil {
		t.Fatal(err)
	}
	deviceReads := int(dev.Stats().Reads() - before)

	var gotTuples []string
	for _, tup := range got.Tuples {
		gotTuples = append(gotTuples, string(tup))
	}
	slices.Sort(wantTuples)
	slices.Sort(gotTuples)
	if !slices.Equal(gotTuples, wantTuples) {
		t.Errorf("keys %v: %d tuples, per-key probes found %d", keys, len(gotTuples), len(wantTuples))
	}
	if got.Stats.BFProbes != want.BFProbes || got.Stats.CandidatePages != want.CandidatePages {
		t.Errorf("keys %v: BFProbes %d, CandidatePages %d; per-key sums %d, %d", keys,
			got.Stats.BFProbes, got.Stats.CandidatePages, want.BFProbes, want.CandidatePages)
	}
	if got.Stats.DataPagesRead != len(pages) {
		t.Errorf("keys %v: DataPagesRead %d, want %d distinct candidate pages",
			keys, got.Stats.DataPagesRead, len(pages))
	}
	if got.Stats.IndexReads != deviceReads {
		t.Errorf("keys %v: IndexReads %d, but the index device served %d reads",
			keys, got.Stats.IndexReads, deviceReads)
	}
	if got.Stats.IndexReads > want.IndexReads {
		t.Errorf("keys %v: IndexReads %d exceeds the per-key total %d",
			keys, got.Stats.IndexReads, want.IndexReads)
	}
}
