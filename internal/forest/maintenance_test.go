package forest_test

import (
	"testing"
	"time"

	"bftree/internal/core"
	"bftree/internal/forest"
)

// TestForestSinglePolicyConfiguresAllShards pins the forest-level
// maintenance plumbing: the one MaintenancePolicy in the Tree options
// handed to forest.New reaches every shard's tree, with
// IncrementalBatch split as the forest-wide per-pass budget rather than
// multiplied per shard.
func TestForestSinglePolicyConfiguresAllShards(t *testing.T) {
	file, store := buildRelation(t, 4096, 3)
	policy := core.MaintenancePolicy{
		Mode:             core.MaintenanceManual,
		FPPThreshold:     0.2,
		ReclaimInterval:  3 * time.Millisecond,
		IncrementalBatch: 10,
	}
	f, err := forest.New(store, file, 0, forest.Options{
		Shards: 4,
		Tree:   core.Options{FPP: 0.01, Maintenance: policy},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	shards := f.NumShards()
	if shards < 2 {
		t.Fatalf("fixture built only %d shards; the split rule needs more", shards)
	}
	want := forest.ShardPolicy(policy, shards)
	if want.IncrementalBatch >= policy.IncrementalBatch {
		t.Fatalf("ShardPolicy(%d shards) kept batch %d; expected a split below %d",
			shards, want.IncrementalBatch, policy.IncrementalBatch)
	}
	budget := 0
	for i := 0; i < shards; i++ {
		got := f.Shard(i).Options().Maintenance
		if got != want {
			t.Errorf("shard %d policy = %+v, want %+v", i, got, want)
		}
		budget += got.IncrementalBatch
	}
	// The ceiling split over-allocates by at most shards-1 leaves.
	if budget < policy.IncrementalBatch || budget >= policy.IncrementalBatch+shards {
		t.Errorf("forest-wide per-pass budget = %d from batch %d over %d shards",
			budget, policy.IncrementalBatch, shards)
	}
}

// TestShardPolicySplit pins the ceiling-with-floor-1 split rule on its
// edges: a budget smaller than the shard count still leaves every
// shard incremental, and zero stays zero (legacy whole-tree rebuild).
func TestShardPolicySplit(t *testing.T) {
	cases := []struct {
		batch, shards, want int
	}{
		{0, 8, 0},   // 0 keeps whole-tree rebuilds on every shard
		{16, 4, 4},  // even split
		{10, 4, 3},  // ceiling
		{2, 8, 1},   // floor 1: a positive budget stays incremental
		{5, 1, 5},   // single shard keeps the budget verbatim
		{-3, 4, -3}, // non-positive budgets pass through untouched
	}
	for _, c := range cases {
		p := forest.ShardPolicy(core.MaintenancePolicy{IncrementalBatch: c.batch}, c.shards)
		if p.IncrementalBatch != c.want {
			t.Errorf("ShardPolicy(batch %d, %d shards) = %d, want %d",
				c.batch, c.shards, p.IncrementalBatch, c.want)
		}
	}
}

// TestAggregateMaintenanceMinNonzero pins the stall-aggregation rules
// across shards where some report zero: the minimum is the smallest
// non-zero shard value (a shard that never compacted must not pin the
// forest minimum at 0), the maximum the largest, the total the sum —
// and FPPThreshold aggregates min-nonzero the same way.
func TestAggregateMaintenanceMinNonzero(t *testing.T) {
	stats := []core.MaintenanceStats{
		{}, // shard that never compacted: all zero
		{
			CompactionMinStall:   4 * time.Millisecond,
			CompactionMaxStall:   9 * time.Millisecond,
			CompactionTotalStall: 13 * time.Millisecond,
			FPPThreshold:         0.12,
			Compactions:          2,
		},
		{
			CompactionMinStall:   2 * time.Millisecond,
			CompactionMaxStall:   5 * time.Millisecond,
			CompactionTotalStall: 7 * time.Millisecond,
			FPPThreshold:         0.10,
			Compactions:          2,
		},
	}
	agg := forest.AggregateMaintenance(stats)
	if agg.CompactionMinStall != 2*time.Millisecond {
		t.Errorf("min stall = %v, want the smallest non-zero (2ms)", agg.CompactionMinStall)
	}
	if agg.CompactionMaxStall != 9*time.Millisecond {
		t.Errorf("max stall = %v, want 9ms", agg.CompactionMaxStall)
	}
	if agg.CompactionTotalStall != 20*time.Millisecond {
		t.Errorf("total stall = %v, want 20ms", agg.CompactionTotalStall)
	}
	if agg.FPPThreshold != 0.10 {
		t.Errorf("threshold = %g, want the smallest non-zero (0.10)", agg.FPPThreshold)
	}
	if agg.Compactions != 4 {
		t.Errorf("compactions = %d, want summed 4", agg.Compactions)
	}

	// All-zero input stays zero rather than inventing a minimum.
	if z := forest.AggregateMaintenance(stats[:1]); z.CompactionMinStall != 0 || z.FPPThreshold != 0 {
		t.Errorf("all-zero aggregate = min %v threshold %g, want zeros",
			z.CompactionMinStall, z.FPPThreshold)
	}
}
