package pagestore

import (
	"sync"
	"testing"
	"testing/quick"

	"bftree/internal/device"
)

func newMemStore(pages int, opts ...Option) *Store {
	dev := device.New(device.Memory, 256)
	dev.Allocate(pages)
	return New(dev, opts...)
}

func TestUncachedReadWrite(t *testing.T) {
	s := newMemStore(4)
	payload := make([]byte, 256)
	payload[0] = 42
	if err := s.WritePage(1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadPage(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("read back %d, want 42", got[0])
	}
	if s.Cached() {
		t.Error("store without options must be uncached")
	}
	// Every read hits the device.
	s.ReadPage(1)
	s.ReadPage(1)
	if reads := s.Device().Stats().Reads(); reads != 3 {
		t.Errorf("uncached store did %d device reads, want 3", reads)
	}
}

func TestCacheHits(t *testing.T) {
	s := newMemStore(4, WithCache(4))
	payload := make([]byte, 256)
	payload[5] = 7
	if err := s.WritePage(2, payload); err != nil {
		t.Fatal(err)
	}
	before := s.Device().Stats().Reads()
	for i := 0; i < 10; i++ {
		got, err := s.ReadPage(2)
		if err != nil {
			t.Fatal(err)
		}
		if got[5] != 7 {
			t.Fatal("cache returned wrong data")
		}
	}
	if after := s.Device().Stats().Reads(); after != before {
		t.Errorf("cached reads reached the device: %d -> %d", before, after)
	}
	hits, misses := s.CacheStats()
	if hits != 10 || misses != 0 {
		t.Errorf("hits=%d misses=%d, want 10/0 (write-through warms the cache)", hits, misses)
	}
}

func TestCacheEviction(t *testing.T) {
	s := newMemStore(10, WithCache(2))
	// Touch pages 0,1,2: capacity 2 means page 0 is evicted.
	for _, id := range []device.PageID{0, 1, 2} {
		if _, err := s.ReadPage(id); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Device().Stats().Reads()
	s.ReadPage(2) // hit
	s.ReadPage(1) // hit
	if got := s.Device().Stats().Reads(); got != before {
		t.Error("recently used pages should be cached")
	}
	s.ReadPage(0) // miss: evicted
	if got := s.Device().Stats().Reads(); got != before+1 {
		t.Error("evicted page should cause a device read")
	}
}

func TestLRUOrderOnGet(t *testing.T) {
	s := newMemStore(10, WithCache(2))
	s.ReadPage(0)
	s.ReadPage(1)
	s.ReadPage(0) // refresh 0; LRU victim is now 1
	s.ReadPage(2) // evicts 1
	before := s.Device().Stats().Reads()
	s.ReadPage(0)
	if got := s.Device().Stats().Reads(); got != before {
		t.Error("page 0 should have been refreshed by the get")
	}
	s.ReadPage(1)
	if got := s.Device().Stats().Reads(); got != before+1 {
		t.Error("page 1 should have been the eviction victim")
	}
}

// TestReadSharesImmutableImage pins the read contract: ReadPage hands
// out the page's shared image, on a miss the device's own and on a hit
// the cached one, with no copy and no allocation; a later WritePage
// installs a new image and leaves every image read before it unchanged.
func TestReadSharesImmutableImage(t *testing.T) {
	s := newMemStore(2, WithCache(2))
	payload := make([]byte, 256)
	payload[0] = 1
	if err := s.WritePage(0, payload); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	miss, err := s.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	dev, _, _ := s.Device().ReadPage(0)
	hit, _ := s.ReadPage(0)
	if &miss[0] != &dev[0] || &hit[0] != &dev[0] {
		t.Fatal("ReadPage copied the page instead of sharing the device's image")
	}
	payload[0] = 2
	if err := s.WritePage(0, payload); err != nil {
		t.Fatal(err)
	}
	if miss[0] != 1 {
		t.Errorf("a later WritePage changed an image ReadPage returned: byte 0 = %d, want 1", miss[0])
	}
	if now, _ := s.ReadPage(0); now[0] != 2 {
		t.Errorf("read after write = %d, want 2", now[0])
	}
	if n := testing.AllocsPerRun(100, func() { s.ReadPage(0) }); n != 0 {
		t.Errorf("a cached ReadPage allocates %v times, want 0", n)
	}
	// Three pages cycling through a full two-page cache: every read
	// misses, admits the device's image and evicts, allocating nothing.
	cycling := newMemStore(3, WithCache(2))
	i := 0
	if n := testing.AllocsPerRun(100, func() { cycling.ReadPage(device.PageID(i % 3)); i++ }); n != 0 {
		t.Errorf("a missing ReadPage on a full cache allocates %v times, want 0", n)
	}
	if hits, _ := cycling.CacheStats(); hits != 0 {
		t.Fatalf("%d reads hit; the cycle must miss every time", hits)
	}
}

func TestWarm(t *testing.T) {
	s := newMemStore(8, WithCache(8))
	payload := make([]byte, 256)
	payload[0] = 9
	s.WritePage(3, payload)
	s.DropCache()
	s.Device().ResetStats()
	if err := s.Warm([]device.PageID{3}); err != nil {
		t.Fatal(err)
	}
	if reads := s.Device().Stats().Reads(); reads != 0 {
		t.Errorf("warming must be free, charged %d reads", reads)
	}
	got, err := s.ReadPage(3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Error("warmed page content wrong")
	}
	if reads := s.Device().Stats().Reads(); reads != 0 {
		t.Error("read of a warmed page should not touch the device")
	}
}

func TestWarmUncachedFails(t *testing.T) {
	s := newMemStore(2)
	if err := s.Warm([]device.PageID{0}); err == nil {
		t.Error("Warm on an uncached store should fail")
	}
}

func TestWarmBadPage(t *testing.T) {
	s := newMemStore(2, WithCache(2))
	if err := s.Warm([]device.PageID{100}); err == nil {
		t.Error("warming an unallocated page should fail")
	}
}

func TestDropCache(t *testing.T) {
	s := newMemStore(4, WithCache(4))
	s.ReadPage(0)
	s.DropCache()
	before := s.Device().Stats().Reads()
	s.ReadPage(0)
	if got := s.Device().Stats().Reads(); got != before+1 {
		t.Error("dropped page should re-read from device")
	}
	// DropCache on an uncached store is a no-op.
	u := newMemStore(1)
	u.DropCache()
}

func TestAllocateThroughStore(t *testing.T) {
	dev := device.New(device.Memory, 128)
	s := New(dev)
	id := s.Allocate(5)
	if id != 0 || dev.NumPages() != 5 {
		t.Errorf("allocate through store: first=%d pages=%d", id, dev.NumPages())
	}
	if s.PageSize() != 128 {
		t.Errorf("page size = %d", s.PageSize())
	}
}

func TestReadErrorsPropagate(t *testing.T) {
	s := newMemStore(1, WithCache(2))
	if _, err := s.ReadPage(9); err == nil {
		t.Error("out-of-range read should propagate the device error")
	}
	if err := s.WritePage(9, make([]byte, 256)); err == nil {
		t.Error("out-of-range write should propagate the device error")
	}
}

// Property: cached and uncached stores return identical data for any
// write/read interleaving.
func TestQuickCacheTransparency(t *testing.T) {
	cached := newMemStore(8, WithCache(3))
	plain := newMemStore(8)
	prop := func(page, val uint8) bool {
		id := device.PageID(page % 8)
		payload := make([]byte, 256)
		payload[0] = val
		if err := cached.WritePage(id, payload); err != nil {
			return false
		}
		if err := plain.WritePage(id, payload); err != nil {
			return false
		}
		a, err1 := cached.ReadPage(id)
		b, err2 := plain.ReadPage(id)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedCacheServesOnlyWarmedPages(t *testing.T) {
	s := newMemStore(8, WithPinnedCache(8))
	payload := make([]byte, 256)
	payload[0] = 5
	s.WritePage(2, payload)
	s.WritePage(3, payload)
	if err := s.Warm([]device.PageID{2}); err != nil {
		t.Fatal(err)
	}
	// Warmed page: no device I/O.
	s.ReadPage(2)
	if reads := s.Device().Stats().Reads(); reads != 0 {
		t.Errorf("warmed page charged %d reads", reads)
	}
	// Unwarmed page: pays device I/O every time (never admitted).
	s.ReadPage(3)
	s.ReadPage(3)
	if reads := s.Device().Stats().Reads(); reads != 2 {
		t.Errorf("unwarmed page reads = %d, want 2", reads)
	}
}

func TestPinnedCacheWriteCoherence(t *testing.T) {
	s := newMemStore(4, WithPinnedCache(4))
	old := make([]byte, 256)
	old[0] = 1
	s.WritePage(0, old)
	if err := s.Warm([]device.PageID{0}); err != nil {
		t.Fatal(err)
	}
	// Overwrite a warmed page: the pinned copy must update.
	updated := make([]byte, 256)
	updated[0] = 9
	s.WritePage(0, updated)
	got, err := s.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Errorf("pinned cache served stale data: %d", got[0])
	}
	if reads := s.Device().Stats().Reads(); reads != 0 {
		t.Error("warmed page should still be served from cache after write")
	}
	// Writes to unwarmed pages must not populate the cache.
	s.WritePage(1, updated)
	s.ReadPage(1)
	if reads := s.Device().Stats().Reads(); reads != 1 {
		t.Error("write admitted an unwarmed page into a pinned cache")
	}
}

func TestFreeListReuse(t *testing.T) {
	s := New(device.New(device.Memory, 512))
	first := s.Allocate(4)
	s.Free(first+1, first+2)
	if got := s.FreePages(); got != 2 {
		t.Fatalf("FreePages = %d, want 2", got)
	}
	// Single-page allocations carve from the coalesced run, lowest id
	// first.
	if got := s.Allocate(1); got != first+1 {
		t.Errorf("first recycled id = %d, want %d", got, first+1)
	}
	if got := s.Allocate(1); got != first+2 {
		t.Errorf("second recycled id = %d, want %d", got, first+2)
	}
	if got := s.FreePages(); got != 0 {
		t.Errorf("FreePages after reuse = %d, want 0", got)
	}
	// With the free list drained, allocation extends the device again.
	if got := s.Allocate(1); got != first+4 {
		t.Errorf("fresh id = %d, want %d", got, first+4)
	}
	freed, reused := s.FreeListStats()
	if freed != 2 || reused != 2 {
		t.Errorf("stats freed=%d reused=%d, want 2 and 2", freed, reused)
	}
}

func TestFreeListCoalescesRuns(t *testing.T) {
	s := New(device.New(device.Memory, 512))
	first := s.Allocate(8)
	// Free out of order and in separate calls; adjacent ids must
	// coalesce into one run.
	s.Free(first+2, first+4)
	s.Free(first + 3)
	s.Free(first+6, first+5)
	if runs, largest := s.FreeRuns(); runs != 1 || largest != 5 {
		t.Fatalf("FreeRuns = (%d, %d), want one run of 5", runs, largest)
	}
	// A multi-page allocation is served from the coalesced run instead
	// of extending the device.
	devPages := s.Device().NumPages()
	if got := s.Allocate(5); got != first+2 {
		t.Errorf("multi-page allocation = %d, want recycled %d", got, first+2)
	}
	if grown := s.Device().NumPages(); grown != devPages {
		t.Errorf("device grew from %d to %d pages despite a fitting free run", devPages, grown)
	}
	if got := s.FreePages(); got != 0 {
		t.Errorf("FreePages after run reuse = %d, want 0", got)
	}
}

func TestFreeListBestFit(t *testing.T) {
	s := New(device.New(device.Memory, 512))
	first := s.Allocate(16)
	s.Free(first, first+1, first+2, first+3, first+4) // run of 5
	s.Free(first+8, first+9)                          // run of 2
	// Best fit: the 2-run serves a 2-page allocation, leaving the 5-run
	// intact for a later large request.
	if got := s.Allocate(2); got != first+8 {
		t.Errorf("best-fit allocation = %d, want %d", got, first+8)
	}
	if got := s.Allocate(5); got != first {
		t.Errorf("large allocation = %d, want %d", got, first)
	}
	// A request larger than any run extends the device.
	devPages := s.Device().NumPages()
	s.Free(first+12, first+13)
	if got := s.Allocate(3); uint64(got) != devPages {
		t.Errorf("oversized allocation = %d, want fresh %d", got, devPages)
	}
	if got := s.FreePages(); got != 2 {
		t.Errorf("oversized allocation consumed undersized run: %d left, want 2", got)
	}
}

func TestFreeListConcurrent(t *testing.T) {
	s := New(device.New(device.Memory, 512))
	base := s.Allocate(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Free(base + device.PageID(w*8+i%8))
				s.Allocate(1)
			}
		}(w)
	}
	wg.Wait()
	freed, reused := s.FreeListStats()
	if freed != 800 {
		t.Errorf("freed = %d, want 800", freed)
	}
	if reused == 0 {
		t.Error("no concurrent reuse observed")
	}
}
