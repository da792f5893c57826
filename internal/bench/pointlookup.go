package bench

import (
	"fmt"

	"bftree/index"
	"bftree/internal/core"
)

// RunPointLookup is the paper's headline comparison as a registry walk:
// the same relation, the same probe batches, every selected backend
// measured through the one cell path (measureCell). Scale.Index picks
// a single backend; "each" (the default here) walks the whole registry.
// Two rows per backend: the unique PK at 100 % hits and the non-unique
// ATT1 at 14 % hits, both on the SSD/SSD configuration.
func RunPointLookup(scale Scale) (*Table, error) {
	names := []string{scale.IndexBackend()}
	if scale.Index == "each" || scale.Index == "" {
		names = index.Backends()
	}
	t := &Table{
		Title:  "Point lookups across registered backends (SSD/SSD)",
		Header: []string{"index", "field", "avg-time", "p99", "idx-reads", "data-reads", "false/probe", "size-pages", "size-bytes", "tuples"},
	}
	var records []Record
	for _, name := range names {
		for _, fieldIdx := range []int{0, 1} {
			m, err := measureCell(ssdSSD, 0, syntheticRel(scale, fieldIdx), name, core.Options{FPP: 1e-3})
			if err != nil {
				return nil, err
			}
			field := "PK"
			if fieldIdx != 0 {
				field = "ATT1"
			}
			t.AddRow(name, field, m.AvgTime.String(), m.P99.String(),
				fmt.Sprint(m.IdxReads), fmt.Sprint(m.DataReads),
				fmtF(m.FalsePerProbe), fmt.Sprint(m.Index.Pages),
				fmt.Sprint(m.Index.SizeBytes), fmt.Sprint(m.Tuples))
			records = append(records, Record{
				Experiment:       "point-lookup",
				Backend:          name,
				Mode:             field,
				Throughput:       1 / m.AvgTime.Seconds(),
				P50:              m.P50.Seconds(),
				P99:              m.P99.Seconds(),
				IndexReadsPerKey: float64(m.IdxReads) / float64(scale.Probes),
			})
		}
	}
	if err := writeArtifact(scale, "point-lookup", records); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the paper's claim in one table: the BF-Tree probes within ~2x of the exact indexes at 1-2 orders of magnitude less space",
		"hash is memory-resident (idx-reads 0 by design); bfbench -index=<name|each> selects the backends")
	return t, nil
}
