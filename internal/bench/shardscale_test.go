package bench

import (
	"testing"
)

// TestShardScaleSpeedup is the experiment's acceptance bar: 4 shards
// must deliver at least 2x the aggregate structural-insert throughput
// of 1 shard under the fixed 8-writer population. The append path holds
// a shard's writer lock exclusively across its page waits, so one shard
// serializes the whole population and four shards overlap up to four
// appends; 2x leaves headroom for scheduler noise on top of the ~4x
// ideal.
func TestShardScaleSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("real-latency measurement")
	}
	scale := DefaultScale()
	results, err := ShardScaleSweep(scale, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d rows, want 2", len(results))
	}
	one, four := results[0], results[1]
	if one.Shards != 1 || four.Shards != 4 {
		t.Fatalf("shard counts = %d, %d; want 1, 4", one.Shards, four.Shards)
	}
	if four.Throughput < 2*one.Throughput {
		t.Errorf("4-shard throughput %.0f/s < 2x 1-shard %.0f/s", four.Throughput, one.Throughput)
	}
	for _, r := range results {
		if r.Ops != shardScaleOps {
			t.Errorf("%d shards: ops = %d, want %d", r.Shards, r.Ops, shardScaleOps)
		}
		if r.P99 < r.P50 || r.P50 <= 0 {
			t.Errorf("%d shards: implausible stalls p50=%v p99=%v", r.Shards, r.P50, r.P99)
		}
	}
}

// TestShardScaleSkewErodesScaling pins the skew knob's effect: with all
// ops funnelled to one hot shard (extreme Zipf), a 4-shard forest loses
// most of its multiplier.
func TestShardScaleSkewErodesScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("real-latency measurement")
	}
	uniform := DefaultScale()
	skewed := uniform
	skewed.Skew = 8 // nearly all draws hit rank 0
	fast, err := ShardScaleSweep(uniform, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ShardScaleSweep(skewed, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if slow[0].Throughput > 0.75*fast[0].Throughput {
		t.Errorf("skewed throughput %.0f/s not below 0.75x uniform %.0f/s",
			slow[0].Throughput, fast[0].Throughput)
	}
}

// TestShardScalePlans sanity-checks the per-shard append plans: keys
// start above each shard's resident maximum and below the next
// separator, pids start past the relation in disjoint regions.
func TestShardScalePlans(t *testing.T) {
	f, file, _, err := shardScaleFixture(DefaultScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plans := shardAppendPlans(f, file)
	seps := f.Separators()
	for i, p := range plans {
		if i < len(seps) && p.nextKey >= seps[i] {
			t.Errorf("shard %d: next key %d not below separator %d", i, p.nextKey, seps[i])
		}
		if i > 0 && plans[i-1].nextPid >= p.nextPid {
			t.Errorf("shard %d: pid region %d not above shard %d's %d", i, p.nextPid, i-1, plans[i-1].nextPid)
		}
		if uint64(p.nextPid) <= uint64(file.FirstPage())+file.NumPages() && i > 0 {
			t.Errorf("shard %d: pid region %d overlaps the relation", i, p.nextPid)
		}
	}
	// A few appends per shard must route back to their shard and take
	// the structural path (node count grows).
	before := f.Shard(2).NumNodes()
	p := plans[2]
	for j := 0; j < 3; j++ {
		if err := f.Insert(p.nextKey, p.nextPid); err != nil {
			t.Fatal(err)
		}
		p.nextKey++
		p.nextPid += shardPidStride
	}
	if after := f.Shard(2).NumNodes(); after < before+3 {
		t.Errorf("3 appends grew shard 2 from %d to %d nodes; want ≥ +3", before, after)
	}
}
