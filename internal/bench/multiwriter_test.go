package bench

import (
	"testing"
)

// multiWriterScale keeps the sweep fast in unit tests while leaving
// enough leaves for 8 disjoint writer regions.
func multiWriterScale() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 40000
	return s
}

// TestMultiWriterSweepScalesOnDisjointLeaves asserts the property the
// experiment exists to demonstrate — and the acceptance bar of the
// leaf-latching work: aggregate insert throughput over disjoint leaves
// grows by more than 1.5x from 1 to 4 writers, because latched writers
// only share the tree lock in read mode and overlap their page waits.
func TestMultiWriterSweepScalesOnDisjointLeaves(t *testing.T) {
	results, err := MultiWriterSweep(multiWriterScale(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Writers != 1 || results[1].Writers != 4 {
		t.Fatalf("unexpected sweep rows: %+v", results)
	}
	for _, r := range results {
		if r.DisjointThroughput <= 0 || r.ContendedThroughput <= 0 {
			t.Fatalf("writers=%d: no throughput measured: %+v", r.Writers, r)
		}
	}
	speedup := results[1].DisjointThroughput / results[0].DisjointThroughput
	if speedup <= 1.5 {
		t.Errorf("4-writer disjoint-leaf speedup = %.2fx, want > 1.5x", speedup)
	}
}
