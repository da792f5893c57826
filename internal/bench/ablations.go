package bench

import (
	"fmt"

	"bftree/index"
	"bftree/internal/core"
)

// RunAblationGranularity sweeps the pages-per-filter granularity
// (DESIGN.md ablation 1): granularity 1 — the paper's best — directs
// probes to exactly the matching pages; coarser filters shrink probe CPU
// but read more candidate pages.
func RunAblationGranularity(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation: Bloom filters per data page (granularity)",
		Header: []string{"granularity", "avg-time", "false-reads/probe", "data-reads", "index-pages"},
	}
	for _, g := range []int{1, 2, 4, 8, 16} {
		m, err := measureCell(ssdSSD, 0, syntheticRel(scale, 0), "bftree", core.Options{FPP: 1e-3, Granularity: g})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(g), m.AvgTime.String(), fmtF(m.FalsePerProbe),
			fmt.Sprint(m.DataReads), fmt.Sprint(m.Index.Pages))
	}
	t.Notes = append(t.Notes, "granularity 1 (one BF per page) reads the fewest data pages — the paper's chosen configuration")
	return t, nil
}

// RunAblationHashCount sweeps the hash-function count (the paper fixes
// k=3, 'typically enough to have hashing close to ideal').
func RunAblationHashCount(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation: hash functions per Bloom filter",
		Header: []string{"k", "avg-time", "false-reads/probe"},
	}
	for _, k := range []int{1, 2, 3, 4, 6, 8} {
		m, err := measureCell(ssdSSD, 0, syntheticRel(scale, 0), "bftree", core.Options{FPP: 1e-2, Hashes: k})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(k), m.AvgTime.String(), fmtF(m.FalsePerProbe))
	}
	t.Notes = append(t.Notes, "k=3 is the paper's setting; very low k raises false reads, very high k saturates the filters")
	return t, nil
}

// RunAblationDeletes compares the two delete strategies of Section 7:
// fpp drift with standard filters vs physical deletes with counting
// filters (4x the leaf space) — deletes issued through the Deleter
// capability of the unified interface.
func RunAblationDeletes(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation: delete handling (Section 7)",
		Header: []string{"filter", "index-pages", "false-reads/probe before", "after deleting 10%", "effective-fpp"},
	}
	for _, kind := range []core.FilterKind{core.StandardFilter, core.CountingFilter} {
		env, rel, ix, err := buildCell(memMem, 0, syntheticRel(scale, 0), "bftree", core.Options{FPP: 1e-3, Filter: kind})
		if err != nil {
			return nil, err
		}
		keys := rel.probes
		before, err := MeasureIndex(env, ix, keys, true)
		if err != nil {
			return nil, err
		}
		del, ok := ix.(index.Deleter)
		if !ok {
			return nil, fmt.Errorf("bench: bftree backend lost the Deleter capability")
		}
		// Delete every 10th key.
		for k := uint64(0); k <= rel.maxKey; k += 10 {
			if err := del.Delete(k, index.Ref{Page: rel.file.PageOf(k)}); err != nil {
				return nil, err
			}
		}
		// Probe the surviving keys only.
		var survivors []uint64
		for _, k := range keys {
			if k%10 != 0 {
				survivors = append(survivors, k)
			}
		}
		after, err := MeasureIndex(env, ix, survivors, true)
		if err != nil {
			return nil, err
		}
		name := "standard(drift)"
		if kind == core.CountingFilter {
			name = "counting(4-bit)"
		}
		t.AddRow(name, fmt.Sprint(after.Index.Pages), fmtF(before.FalsePerProbe),
			fmtF(after.FalsePerProbe), fmtF(after.Index.EffectiveFPP))
	}
	t.Notes = append(t.Notes,
		"standard filters keep deleted bits (fpp drifts up per Section 7); counting filters delete physically at 4x space")
	return t, nil
}

// RunAblationBufferedInserts measures the write amortization of the
// Section 4.2 buffered-update mode: index page writes per insert for
// direct core.Tree inserts vs one core.BufferedInserter batch. Both go
// through the tree's one insert path; the buffer only sorts the batch
// so that each leaf is rewritten once.
func RunAblationBufferedInserts(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation: direct vs buffered inserts (Section 4.2)",
		Header: []string{"mode", "inserts", "index-page-writes", "writes/insert"},
	}
	n := scale.SyntheticTuples / 50
	if n < 100 {
		n = 100
	}
	for _, mode := range []string{"direct", "buffered"} {
		env, rel, err := newCell(ssdSSD, 0, syntheticRel(scale, 0))
		if err != nil {
			return nil, err
		}
		tr, err := core.BulkLoad(env.IdxStore, rel.file, 0, core.Options{FPP: 1e-3})
		if err != nil {
			return nil, err
		}
		insert := tr.Insert
		buf := tr.NewBufferedInserter(int(n) + 1)
		if mode == "buffered" {
			insert = buf.Insert
		}
		env.ResetIO()
		for k := uint64(0); k < n; k++ {
			if err := insert(k, rel.file.PageOf(k)); err != nil {
				return nil, err
			}
		}
		if err := buf.Flush(); err != nil {
			return nil, err
		}
		writes := env.IdxDev.Stats().Writes()
		if err := tr.Close(); err != nil {
			return nil, err
		}
		t.AddRow(mode, fmt.Sprint(n), fmt.Sprint(writes),
			fmtF(float64(writes)/float64(n)))
	}
	t.Notes = append(t.Notes,
		"buffering amortizes one leaf write over every buffered insert that lands in the same leaf")
	return t, nil
}
