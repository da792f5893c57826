package bench

import (
	"testing"
)

// sweepScale keeps the concurrent sweep fast in unit tests: few probes,
// small relation.
func sweepScale() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 20000
	s.Probes = 128
	return s
}

// TestConcurrentProbeSweepScales runs the 1→8 worker sweep and asserts
// the property the concurrent read path exists to provide: aggregate
// throughput grows by more than 2x from 1 to 8 workers, because probers
// overlap their per-access blocking time instead of serializing behind
// a store- or device-wide lock.
func TestConcurrentProbeSweepScales(t *testing.T) {
	results, err := ConcurrentProbeSweep(sweepScale(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	one, eight := results[0], results[1]
	if one.Workers != 1 || eight.Workers != 8 {
		t.Fatalf("unexpected sweep rows: %+v", results)
	}
	speedup := eight.Throughput / one.Throughput
	if speedup <= 2 {
		t.Errorf("8-worker speedup = %.2fx, want > 2x (read path still serializes?)", speedup)
	}
	for _, r := range results {
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("workers=%d: implausible latencies p50=%v p99=%v", r.Workers, r.P50, r.P99)
		}
		if r.Probes != 128 {
			t.Errorf("workers=%d ran %d probes, want 128", r.Workers, r.Probes)
		}
	}
}
