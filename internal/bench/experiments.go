package bench

import (
	"fmt"
	"sort"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
)

// table2FPPs and table3FPPs are the sweeps of Tables 2 and 3.
var (
	table2FPPs = []float64{0.2, 0.1, 1.5e-7, 1e-15}
	table3FPPs = []float64{0.2, 0.1, 1.9e-2, 1.8e-3, 1.72e-4}
	// fig5FPPs spans the paper's x-axis (0.2 down to 1e-15).
	fig5FPPs = []float64{0.2, 0.1, 1.9e-2, 1.8e-3, 1.72e-4, 1.5e-7, 1e-10, 1e-15}
)

// warmCachePages sizes the pinned index cache of the warm-cache figures
// (7, 10, 12b): large enough to hold every internal page.
const warmCachePages = 65536

// sweepFPPs adapts an fpp sweep to a backend: approximate backends get
// the full sweep, exact ones a single don't-care point (their build
// ignores the fpp, so one row carries everything).
func sweepFPPs(backend string, fpps []float64) ([]float64, error) {
	b, ok := index.Lookup(backend)
	if !ok {
		return nil, fmt.Errorf("bench: unknown index backend %q (have %v)", backend, index.Backends())
	}
	if b.Approximate {
		return fpps, nil
	}
	return []float64{0}, nil
}

// fppLabel renders a sweep point; the exact backends' don't-care point
// shows as "-".
func fppLabel(fpp float64) string {
	if fpp == 0 {
		return "-"
	}
	return fmtF(fpp)
}

// RunTable2 reproduces Table 2: index size in pages for the B+-Tree and
// BF-Trees at four fpp settings, for both the PK and ATT1 indexes of the
// synthetic relation.
func RunTable2(scale Scale) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 2: index size in 4KB pages (%d-tuple relation, %d MB)",
			scale.SyntheticTuples, scale.SyntheticTuples*256/(1<<20)),
		Header: []string{"variation", "fpp", "pages(PK)", "pages(ATT1)", "gain(PK)", "gain(ATT1)"},
	}
	// sizes builds the B+-Tree, then a BF-Tree per fpp, over one field
	// and returns their page counts in that order.
	sizes := func(field int) ([]uint64, error) {
		env, rel, err := newCell(memMem, 0, syntheticRel(scale, field))
		if err != nil {
			return nil, err
		}
		var pages []uint64
		for i, fpp := range append([]float64{0}, table2FPPs...) {
			backend := "bftree"
			if i == 0 {
				backend = "bptree"
			}
			ix, err := index.New(backend, env.IdxStore, rel.file, rel.field, rel.opts(core.Options{FPP: fpp}))
			if err != nil {
				return nil, err
			}
			pages = append(pages, ix.Stats().Pages)
			if err := ix.Close(); err != nil {
				return nil, err
			}
		}
		return pages, nil
	}
	pk, err := sizes(0)
	if err != nil {
		return nil, err
	}
	att, err := sizes(1)
	if err != nil {
		return nil, err
	}
	t.AddRow("B+-Tree", "-", fmt.Sprint(pk[0]), fmt.Sprint(att[0]), "1x", "1x")
	for i, fpp := range table2FPPs {
		t.AddRow("BF-Tree", fmtF(fpp), fmt.Sprint(pk[i+1]), fmt.Sprint(att[i+1]),
			fmt.Sprintf("%.3gx", float64(pk[0])/float64(pk[i+1])),
			fmt.Sprintf("%.3gx", float64(att[0])/float64(att[i+1])))
	}
	t.Notes = append(t.Notes, "paper (1GB): PK gain 48x at fpp=0.2 down to 2.25x at 1e-15; ATT1 46x to 2.22x")
	return t, nil
}

// RunTable3 reproduces Table 3: falsely read data pages per search for
// the PK index (100 % hits) and the ATT1 index (14 % hits). The -index
// flag swaps in any registered backend (exact backends report 0).
func RunTable3(scale Scale) (*Table, error) {
	backend := scale.IndexBackend()
	fpps, err := sweepFPPs(backend, table3FPPs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table 3: false reads per search (%s)", backend),
		Header: []string{"fpp", "false-reads(PK)", "false-reads(ATT1)"},
	}
	for _, fpp := range fpps {
		pk, err := measureCell(memMem, 0, syntheticRel(scale, 0), backend, core.Options{FPP: fpp})
		if err != nil {
			return nil, err
		}
		att, err := measureCell(memMem, 0, syntheticRel(scale, 1), backend, core.Options{FPP: fpp})
		if err != nil {
			return nil, err
		}
		t.AddRow(fppLabel(fpp), fmtF(pk.FalsePerProbe), fmtF(att.FalsePerProbe))
	}
	t.Notes = append(t.Notes, "paper (1GB): PK 13.58 → 0.01; ATT1 701 → 0.04 over the same sweep")
	return t, nil
}

// RunFig5a reproduces Figure 5(a): PK response time across the fpp
// sweep for the five storage configurations, for the selected backend
// (BF-Tree by default; -index swaps in any registered one).
func RunFig5a(scale Scale) (*Table, error) {
	return runPerfSweep(scale, 0, "Figure 5(a): PK avg response time")
}

// RunFig8a reproduces Figure 8(a): the same sweep for the non-unique
// ATT1 index at 14 % hit rate.
func RunFig8a(scale Scale) (*Table, error) {
	return runPerfSweep(scale, 1, "Figure 8(a): ATT1 avg response time")
}

func runPerfSweep(scale Scale, fieldIdx int, title string) (*Table, error) {
	backend := scale.IndexBackend()
	fpps, err := sweepFPPs(backend, fig5FPPs)
	if err != nil {
		return nil, err
	}
	configs := FiveConfigs()
	header := []string{"fpp"}
	for _, c := range configs {
		header = append(header, c.Name)
	}
	t := &Table{Title: fmt.Sprintf("%s (%s)", title, backend), Header: header}
	for _, fpp := range fpps {
		row := []string{fppLabel(fpp)}
		for _, cfg := range configs {
			m, err := measureCell(cfg, 0, syntheticRel(scale, fieldIdx), backend, core.Options{FPP: fpp})
			if err != nil {
				return nil, err
			}
			row = append(row, m.AvgTime.String())
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "columns = index-device/data-device; virtual I/O time per probe")
	return t, nil
}

// RunFig5b reproduces Figure 5(b): the exact baselines across the
// storage configurations — a walk over every registered non-approximate
// backend (B+-Tree and FD-Tree on all five, the memory-resident hash on
// the two data-device cells).
func RunFig5b(scale Scale) (*Table, error) {
	return runBaselines(scale, 0, "Figure 5(b): PK baselines avg response time")
}

// RunFig8b reproduces Figure 8(b): ATT1 baselines.
func RunFig8b(scale Scale) (*Table, error) {
	return runBaselines(scale, 1, "Figure 8(b): ATT1 baselines avg response time")
}

// baselineConfigs returns the storage configurations applicable to a
// backend: all five for on-device indexes, the data-device axis only
// for memory-resident ones.
func baselineConfigs(b index.Backend) []StorageConfig {
	if !b.MemoryResident {
		return FiveConfigs()
	}
	return []StorageConfig{
		{Name: "mem/HDD", Index: device.Memory, Data: device.HDD},
		{Name: "mem/SSD", Index: device.Memory, Data: device.SSD},
	}
}

func runBaselines(scale Scale, fieldIdx int, title string) (*Table, error) {
	t := &Table{Title: title, Header: []string{"index", "config", "avg-time"}}
	for _, name := range index.Backends() {
		b, _ := index.Lookup(name)
		if b.Approximate {
			continue // the approximate side is Figures 5(a)/8(a)
		}
		for _, cfg := range baselineConfigs(b) {
			m, err := measureCell(cfg, 0, syntheticRel(scale, fieldIdx), name, core.Options{})
			if err != nil {
				return nil, err
			}
			t.AddRow(name, cfg.Name, m.AvgTime.String())
		}
	}
	return t, nil
}

// breakEvenRow is one point of Figures 6 and 9.
type breakEvenRow struct {
	config   string
	fpp      float64
	gain     float64 // B+-Tree size / BF-Tree size
	normPerf float64 // B+-Tree time / BF-Tree time (>1: BF faster)
}

// RunFig6 reproduces Figure 6: PK break-even points — normalized
// performance vs capacity gain per storage configuration.
func RunFig6(scale Scale) (*Table, error) {
	return runBreakEven(scale, 0, "Figure 6: PK break-even points (norm perf >1 means BF-Tree faster)")
}

// RunFig9 reproduces Figure 9: ATT1 break-even points.
func RunFig9(scale Scale) (*Table, error) {
	return runBreakEven(scale, 1, "Figure 9: ATT1 break-even points (norm perf >1 means BF-Tree faster)")
}

func runBreakEven(scale Scale, fieldIdx int, title string) (*Table, error) {
	var rows []breakEvenRow
	gen := syntheticRel(scale, fieldIdx)
	for _, cfg := range FiveConfigs() {
		bp, err := measureCell(cfg, 0, gen, "bptree", core.Options{})
		if err != nil {
			return nil, err
		}
		for _, fpp := range fig5FPPs {
			bf, err := measureCell(cfg, 0, gen, "bftree", core.Options{FPP: fpp})
			if err != nil {
				return nil, err
			}
			rows = append(rows, breakEvenRow{
				config:   cfg.Name,
				fpp:      fpp,
				gain:     float64(bp.Index.Pages) / float64(bf.Index.Pages),
				normPerf: float64(bp.AvgTime) / float64(bf.AvgTime),
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].config != rows[j].config {
			return rows[i].config < rows[j].config
		}
		return rows[i].gain < rows[j].gain
	})
	t := &Table{Title: title, Header: []string{"config", "fpp", "capacity-gain", "norm-perf"}}
	for _, r := range rows {
		t.AddRow(r.config, fmtF(r.fpp), fmtF(r.gain), fmtF(r.normPerf))
	}
	t.Notes = append(t.Notes,
		"break-even = largest capacity gain with norm-perf >= 1; paper: break-even shifts to larger gains as I/O gets slower")
	return t, nil
}

// RunFig7 reproduces Figure 7: PK response time with warm caches for
// SSD/SSD, SSD/HDD and HDD/HDD — the B+-Tree against the fastest
// BF-Tree.
func RunFig7(scale Scale) (*Table, error) {
	return runWarm(scale, 0, "Figure 7: PK with warm caches (internal index levels resident)")
}

// RunFig10 reproduces Figure 10: ATT1 with warm caches.
func RunFig10(scale Scale) (*Table, error) {
	return runWarm(scale, 1, "Figure 10: ATT1 with warm caches (internal index levels resident)")
}

func runWarm(scale Scale, fieldIdx int, title string) (*Table, error) {
	t := &Table{Title: title, Header: []string{"config", "B+-Tree", "best BF-Tree", "bf-fpp", "capacity-gain"}}
	gen := syntheticRel(scale, fieldIdx)
	for _, cfg := range WarmConfigs() {
		bp, err := measureCell(cfg, warmCachePages, gen, "bptree", core.Options{})
		if err != nil {
			return nil, err
		}
		best, bestFPP, gain, err := fastestBF(cfg, warmCachePages, gen, fig5FPPs, bp.Index.Pages)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.Name, bp.AvgTime.String(), best.String(), fmtF(bestFPP), fmtF(gain)+"x")
	}
	t.Notes = append(t.Notes,
		"paper: warm caches help the (taller) B+-Tree more, but BF-Tree stays competitive except ATT1 SSD/SSD")
	return t, nil
}
