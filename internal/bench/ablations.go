package bench

import (
	"fmt"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
)

// RunAblationGranularity sweeps the pages-per-filter granularity
// (DESIGN.md ablation 1): granularity 1 — the paper's best — directs
// probes to exactly the matching pages; coarser filters shrink probe CPU
// but read more candidate pages.
func RunAblationGranularity(scale Scale) (*Table, error) {
	cfg := StorageConfig{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD}
	t := &Table{
		Title:  "Ablation: Bloom filters per data page (granularity)",
		Header: []string{"granularity", "avg-time", "false-reads/probe", "data-reads", "index-pages"},
	}
	for _, g := range []int{1, 2, 4, 8, 16} {
		env, syn, err := syntheticEnv(cfg, scale, 0)
		if err != nil {
			return nil, err
		}
		ix, err := BuildIndex("bftree", env, syn.File, 0,
			index.Options{BFTree: core.Options{FPP: 1e-3, Granularity: g}})
		if err != nil {
			return nil, err
		}
		keys, err := pkProbes(syn, scale)
		if err != nil {
			return nil, err
		}
		m, err := MeasureIndex(env, ix, keys, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(g), m.AvgTime.String(), fmtF(m.FalsePerProbe),
			fmt.Sprint(m.DataReads), fmt.Sprint(ix.Stats().Pages))
	}
	t.Notes = append(t.Notes, "granularity 1 (one BF per page) reads the fewest data pages — the paper's chosen configuration")
	return t, nil
}

// RunAblationHashCount sweeps the hash-function count (the paper fixes
// k=3, 'typically enough to have hashing close to ideal').
func RunAblationHashCount(scale Scale) (*Table, error) {
	cfg := StorageConfig{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD}
	t := &Table{
		Title:  "Ablation: hash functions per Bloom filter",
		Header: []string{"k", "avg-time", "false-reads/probe"},
	}
	for _, k := range []int{1, 2, 3, 4, 6, 8} {
		env, syn, err := syntheticEnv(cfg, scale, 0)
		if err != nil {
			return nil, err
		}
		ix, err := BuildIndex("bftree", env, syn.File, 0,
			index.Options{BFTree: core.Options{FPP: 1e-2, Hashes: k}})
		if err != nil {
			return nil, err
		}
		keys, err := pkProbes(syn, scale)
		if err != nil {
			return nil, err
		}
		m, err := MeasureIndex(env, ix, keys, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(k), m.AvgTime.String(), fmtF(m.FalsePerProbe))
	}
	t.Notes = append(t.Notes, "k=3 is the paper's setting; very low k raises false reads, very high k saturates the filters")
	return t, nil
}

// RunAblationParallelProbe measures wall-clock probe CPU with and
// without the Section 8 parallel-probing optimization. Virtual I/O time
// is identical by construction; this ablation reports real CPU time.
func RunAblationParallelProbe(scale Scale) (*Table, error) {
	cfg := StorageConfig{Name: "mem/mem", Index: device.Memory, Data: device.Memory}
	t := &Table{
		Title:  "Ablation: sequential vs parallel BF probing (Section 8), wall clock",
		Header: []string{"mode", "wall-time/probe", "tuples"},
	}
	for _, parallel := range []bool{false, true} {
		env, syn, err := syntheticEnv(cfg, scale, 0)
		if err != nil {
			return nil, err
		}
		ix, err := BuildIndex("bftree", env, syn.File, 0,
			index.Options{BFTree: core.Options{FPP: 0.1, ParallelProbe: parallel}})
		if err != nil {
			return nil, err
		}
		keys, err := pkProbes(syn, scale)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tuples := 0
		for _, k := range keys {
			res, err := ix.SearchFirst(k)
			if err != nil {
				return nil, err
			}
			tuples += len(res.Tuples)
		}
		wall := time.Since(start) / time.Duration(len(keys))
		mode := "sequential"
		if parallel {
			mode = "parallel(8)"
		}
		t.AddRow(mode, wall.String(), fmt.Sprint(tuples))
	}
	t.Notes = append(t.Notes, "the paper saw no probe bottleneck in its experiments; parallelism pays off only for very wide leaves")
	return t, nil
}

// RunAblationDeletes compares the two delete strategies of Section 7:
// fpp drift with standard filters vs physical deletes with counting
// filters (4x the leaf space) — deletes issued through the Deleter
// capability of the unified interface.
func RunAblationDeletes(scale Scale) (*Table, error) {
	cfg := StorageConfig{Name: "mem/mem", Index: device.Memory, Data: device.Memory}
	t := &Table{
		Title:  "Ablation: delete handling (Section 7)",
		Header: []string{"filter", "index-pages", "false-reads/probe before", "after deleting 10%", "effective-fpp"},
	}
	for _, kind := range []core.FilterKind{core.StandardFilter, core.CountingFilter} {
		env, syn, err := syntheticEnv(cfg, scale, 0)
		if err != nil {
			return nil, err
		}
		ix, err := BuildIndex("bftree", env, syn.File, 0,
			index.Options{BFTree: core.Options{FPP: 1e-3, Filter: kind}})
		if err != nil {
			return nil, err
		}
		keys, err := pkProbes(syn, scale)
		if err != nil {
			return nil, err
		}
		before, err := MeasureIndex(env, ix, keys, true)
		if err != nil {
			return nil, err
		}
		del, ok := ix.(index.Deleter)
		if !ok {
			return nil, fmt.Errorf("bench: bftree backend lost the Deleter capability")
		}
		// Delete every 10th key.
		for k := uint64(0); k <= syn.MaxPK; k += 10 {
			if err := del.Delete(k, index.Ref{Page: syn.File.PageOf(k)}); err != nil {
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
		st := ix.Stats()
		t.AddRow(name, fmt.Sprint(st.Pages), fmtF(before.FalsePerProbe),
			fmtF(after.FalsePerProbe), fmtF(st.EffectiveFPP))
	}
	t.Notes = append(t.Notes,
		"standard filters keep deleted bits (fpp drifts up per Section 7); counting filters delete physically at 4x space")
	return t, nil
}

// RunAblationBufferedInserts measures the write amortization of the
// Section 4.2 buffered-update mode: index page writes per insert for
// direct inserts vs a buffered batch — both modes driven through the
// Inserter/Flusher capabilities.
func RunAblationBufferedInserts(scale Scale) (*Table, error) {
	cfg := StorageConfig{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD}
	t := &Table{
		Title:  "Ablation: direct vs buffered inserts (Section 4.2)",
		Header: []string{"mode", "inserts", "index-page-writes", "writes/insert"},
	}
	n := scale.SyntheticTuples / 50
	if n < 100 {
		n = 100
	}
	for _, buffered := range []bool{false, true} {
		env, syn, err := syntheticEnv(cfg, scale, 0)
		if err != nil {
			return nil, err
		}
		opts := index.Options{BFTree: core.Options{FPP: 1e-3}}
		if buffered {
			opts.BufferedInserts = int(n) + 1
		}
		ix, err := BuildIndex("bftree", env, syn.File, 0, opts)
		if err != nil {
			return nil, err
		}
		env.ResetIO()
		for k := uint64(0); k < n; k++ {
			if err := ix.Insert(k, index.Ref{Page: syn.File.PageOf(k)}); err != nil {
				return nil, err
			}
		}
		if fl, ok := ix.(index.Flusher); ok {
			if err := fl.Flush(); err != nil {
				return nil, err
			}
		}
		writes := env.IdxDev.Stats().Writes()
		mode := "direct"
		if buffered {
			mode = "buffered"
		}
		t.AddRow(mode, fmt.Sprint(n), fmt.Sprint(writes),
			fmtF(float64(writes)/float64(n)))
	}
	t.Notes = append(t.Notes,
		"buffering amortizes one leaf write over every buffered insert that lands in the same leaf")
	return t, nil
}
