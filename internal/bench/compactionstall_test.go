package bench

import (
	"testing"
)

// stallScaleForTest mirrors make bench-json's CI scale: a 65536-key
// tree (a few dozen leaves) under ~260k churn ops per variant.
func stallScaleForTest() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 30000
	return s
}

// TestCompactionStallIncrementalCutsMaxStall is the acceptance gate of
// the incremental-compaction PR: against the same churn mix, the
// incremental variant must cut the longest single writer stall (the
// maintainer's exclusive-lock hold) at least 3x versus the whole-tree
// Rebuild, while holding the effective-fpp ceiling at the same
// threshold line, converging through partial rebuilds alone, and
// keeping the page economy balanced.
func TestCompactionStallIncrementalCutsMaxStall(t *testing.T) {
	scale := stallScaleForTest()
	batch, err := stallBatch(scale)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CompactionStallRun(scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := CompactionStallRun(scale, batch)
	if err != nil {
		t.Fatal(err)
	}

	if full.Stats.Compactions == 0 {
		t.Fatalf("full variant never compacted; fixture too small to drift: %+v", full.Stats)
	}
	if incr.Stats.IncrementalPasses == 0 || incr.Stats.LeavesCompacted == 0 {
		t.Fatalf("incremental variant never compacted incrementally: %+v", incr.Stats)
	}
	if incr.Stats.Compactions != 0 {
		t.Errorf("incremental variant fell back to %d whole-tree rebuilds", incr.Stats.Compactions)
	}

	// The headline: the longest exclusive hold shrinks at least 3x.
	if incr.Stats.CompactionMaxStall <= 0 || full.Stats.CompactionMaxStall <= 0 {
		t.Fatalf("stall not recorded: full %v incr %v",
			full.Stats.CompactionMaxStall, incr.Stats.CompactionMaxStall)
	}
	ratio := float64(full.Stats.CompactionMaxStall) / float64(incr.Stats.CompactionMaxStall)
	if ratio < 3 {
		t.Errorf("max stall ratio %.2fx < 3x: full %v vs incremental %v",
			ratio, full.Stats.CompactionMaxStall, incr.Stats.CompactionMaxStall)
	}

	// Both variants hold the fpp line. The maintainer detects a
	// crossing up to one reclaim interval late and incremental
	// convergence spans several passes, so allow the same bounded
	// overshoot the churn test allows.
	for _, r := range []*CompactionStallResult{full, incr} {
		if r.MaxFPP >= r.Threshold+0.05 {
			t.Errorf("%s: max effective fpp %.4f overshot threshold %.3f by more than 0.05",
				r.Mode, r.MaxFPP, r.Threshold)
		}
		if !r.EconomyBalanced() {
			t.Errorf("%s: page economy leaks: live %d + free %d + limbo %d != device %d",
				r.Mode, r.LiveNodes, r.FreePages, r.LimboAtEnd, r.DevicePages)
		}
		if r.LimboAtEnd != 0 {
			t.Errorf("%s: %d pages stuck in limbo at quiescence", r.Mode, r.LimboAtEnd)
		}
	}
}
