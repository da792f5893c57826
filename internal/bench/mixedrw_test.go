package bench

import (
	"testing"
)

// mixedScale keeps the mixed-rw sweep fast in unit tests.
func mixedScale() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 20000
	s.Probes = 96
	return s
}

// TestMixedRWSweepLiveWriter runs the 1→8 reader sweep and asserts the
// property the experiment exists to demonstrate: readers make progress
// under a continuously structural-writing writer, and the writer really
// was live (it completed inserts, grew the leaf level) during every
// measured window.
func TestMixedRWSweepLiveWriter(t *testing.T) {
	results, err := MixedRWSweep(mixedScale(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Readers != 1 || results[1].Readers != 8 {
		t.Fatalf("unexpected sweep rows: %+v", results)
	}
	for _, r := range results {
		if r.Throughput <= 0 {
			t.Errorf("readers=%d: no reader throughput", r.Readers)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("readers=%d: implausible latencies p50=%v p99=%v", r.Readers, r.P50, r.P99)
		}
		if r.PagesAdded == 0 {
			t.Errorf("readers=%d: no structural changes raced the readers", r.Readers)
		}
	}
	// The writer must be live inside the measured window; the 1-reader
	// row has the longest window, so assert there (short windows at high
	// reader counts can legitimately catch the writer mid-batch).
	if results[0].WriterInserts == 0 {
		t.Error("the writer completed no inserts inside the 1-reader measurement window")
	}
	// Readers must scale despite the live writer: the read path takes no
	// locks, so 8 readers beat 1 clearly even while splits stream.
	speedup := results[1].Throughput / results[0].Throughput
	if speedup <= 2 {
		t.Errorf("8-reader speedup under a live writer = %.2fx, want > 2x", speedup)
	}
}
