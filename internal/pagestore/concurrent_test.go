package pagestore

import (
	"sync"
	"testing"

	"bftree/internal/device"
)

// TestShardCount pins the sizing policy: tiny caches stay single-shard
// (exact global LRU, which the deterministic experiments rely on), big
// caches split while keeping every shard at least minShardCapacity,
// capped by the GOMAXPROCS-derived shard bound.
func TestShardCount(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1},
		{8, 1},
		{127, 1},
		{128, 2},
		{256, 4},
		{1 << 20, maxCacheShards},
	}
	for _, c := range cases {
		want := c.want
		if want > maxCacheShards {
			want = maxCacheShards
		}
		if got := shardCount(c.capacity); got != want {
			t.Errorf("shardCount(%d) = %d, want %d", c.capacity, got, want)
		}
	}
	sc := newShardedCache(1024)
	if len(sc.shards) != shardCount(1024) {
		t.Error("shard slice does not match shardCount")
	}
}

// TestParallelStripes pins the GOMAXPROCS derivation of the cache-shard
// bound: a power of two, floored at 8, capped at the given limit.
func TestParallelStripes(t *testing.T) {
	for _, limit := range []int{8, 64, 256, 1024} {
		s := parallelStripes(limit)
		if s < 8 {
			t.Errorf("parallelStripes(%d) = %d, below the floor of 8", limit, s)
		}
		if s&(s-1) != 0 {
			t.Errorf("parallelStripes(%d) = %d, not a power of two", limit, s)
		}
		if s > limit {
			t.Errorf("parallelStripes(%d) = %d, runs past the cap", limit, s)
		}
	}
	if maxCacheShards != parallelStripes(256) {
		t.Errorf("maxCacheShards = %d, want parallelStripes(256) = %d",
			maxCacheShards, parallelStripes(256))
	}
}

// TestShardedCacheCapacity checks the per-shard budgets sum to at least
// the requested capacity, so sharding never shrinks the cache.
func TestShardedCacheCapacity(t *testing.T) {
	for _, capacity := range []int{1, 64, 100, 129, 1000, 4096} {
		sc := newShardedCache(capacity)
		total := 0
		for i := range sc.shards {
			total += sc.shards[i].lru.capacity
		}
		if total < capacity {
			t.Errorf("capacity %d: shards hold only %d pages", capacity, total)
		}
	}
}

// TestConcurrentCachedReads hammers a cached store from many goroutines.
// Every read must return the page's content, and the lock-free counters
// must account every access: hits+misses equals the exact number of
// ReadPage calls.
func TestConcurrentCachedReads(t *testing.T) {
	const (
		pages   = 64
		workers = 8
		perW    = 400
	)
	dev := device.New(device.Memory, 256)
	dev.Allocate(pages)
	s := New(dev, WithCache(pages))
	// Stamp each page with its id for content verification.
	payload := make([]byte, 256)
	for id := 0; id < pages; id++ {
		payload[0] = byte(id)
		if err := s.WritePage(device.PageID(id), payload); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := device.PageID((w + i) % pages)
				got, err := s.ReadPage(id)
				if err != nil {
					t.Error(err)
					return
				}
				if got[0] != byte(id) {
					t.Errorf("page %d returned content %d", id, got[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := s.CacheStats()
	if hits+misses != uint64(workers*perW) {
		t.Errorf("hits %d + misses %d != %d accesses", hits, misses, workers*perW)
	}
	if misses != 0 {
		t.Errorf("write-through warmed every page; got %d misses", misses)
	}
}

// TestConcurrentUncachedReads verifies an uncached store under
// concurrency: every access reaches the device, exactly once per call.
func TestConcurrentUncachedReads(t *testing.T) {
	const (
		pages   = 32
		workers = 8
		perW    = 250
	)
	s := newMemStore(pages)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := s.ReadPage(device.PageID(i % pages)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.Device().Stats().Reads(), uint64(workers*perW); got != want {
		t.Errorf("device reads = %d, want %d", got, want)
	}
}

// TestConcurrentReadersAndWriter runs one writer against many readers of
// a cached store: after the writer finishes, a fresh read must observe
// the final image (write-through + admission guard keep the cache from
// regressing to a stale pre-write copy).
func TestConcurrentReadersAndWriter(t *testing.T) {
	const pages = 16
	dev := device.New(device.Memory, 128)
	dev.Allocate(pages)
	s := New(dev, WithCache(pages))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.ReadPage(device.PageID(i % pages)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	payload := make([]byte, 128)
	for round := byte(1); round <= 50; round++ {
		for id := 0; id < pages; id++ {
			payload[0] = round
			if err := s.WritePage(device.PageID(id), payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	for id := 0; id < pages; id++ {
		got, err := s.ReadPage(device.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 50 {
			t.Fatalf("page %d shows round %d after all writes finished, want 50", id, got[0])
		}
	}
}

// TestShardedWarmAndDrop exercises Warm and DropCache on a capacity big
// enough to shard, ensuring per-shard bookkeeping stays coherent.
func TestShardedWarmAndDrop(t *testing.T) {
	const pages = 256
	dev := device.New(device.Memory, 64)
	dev.Allocate(pages)
	s := New(dev, WithCache(pages))
	if len(s.cache.shards) < 2 {
		t.Fatalf("capacity %d should shard, got %d shard(s)", pages, len(s.cache.shards))
	}
	ids := make([]device.PageID, pages)
	for i := range ids {
		ids[i] = device.PageID(i)
	}
	if err := s.Warm(ids); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := s.ReadPage(id); err != nil {
			t.Fatal(err)
		}
	}
	if reads := s.Device().Stats().Reads(); reads != 0 {
		t.Errorf("warmed pages charged %d device reads", reads)
	}
	s.DropCache()
	s.ReadPage(0)
	if reads := s.Device().Stats().Reads(); reads != 1 {
		t.Error("dropped sharded cache should re-read from device")
	}
}
