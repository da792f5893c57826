// Package pagestore layers page management over a simulated device: page
// allocation, typed read/write, and an optional LRU buffer cache.
//
// The cache models the warm-cache experiments of the paper (Figures 7, 10
// and 12b): with the cache enabled and pre-warmed, repeated accesses to
// index pages above the leaves hit memory, so only leaf and data-page
// accesses reach the device. With the cache disabled the store behaves
// like the paper's O_DIRECT cold-cache runs, where every page access pays
// device cost.
//
// Pages are immutable images (see package device). ReadPage hands out
// the page's current image itself — the cached one on a hit, the
// device's own on a miss, which the cache then admits as is — so a read
// copies and allocates nothing. The image is shared and read-only:
// every reader of the page and the cache hold the same bytes, so a
// caller that wants to change a page builds its own buffer and writes
// it with WritePage, which installs a fresh image and leaves every
// image handed out before it unchanged.
//
// Concurrency: a Store is safe for concurrent use and the read path is
// built to scale. The cache is sharded — each shard owns an independent
// LRU list behind its own lock, and a page's shard is fixed by its id —
// so concurrent probes touching different pages rarely contend; hit/miss
// counters are lock-free atomics. Small caches keep a single shard,
// preserving exact global LRU semantics; large caches trade that for
// per-shard LRU, which is the standard buffer-pool compromise. Probes
// running concurrently with writes to the same page may briefly observe
// the pre-write image — never a torn one — which is what the Tree-level
// concurrency contract (lock-free readers, latched writers; see
// DESIGN.md §3) builds on.
//
// The store also keeps a free list: Free returns page ids whose
// contents are dead (the tree retires copy-on-write pages here after
// its epoch grace period) and coalesces adjacent ids into contiguous
// runs, so Allocations of any size — including the multi-page runs of a
// bulk load or Rebuild — recycle them, and structural churn does not
// grow the device without bound.
package pagestore

import (
	"container/list"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bftree/internal/device"
)

// Store provides cached page access on top of a device.
type Store struct {
	dev        *device.Device
	cache      *shardedCache // nil when caching is disabled
	pinnedOnly bool          // cache serves only explicitly Warmed pages

	hits   atomic.Uint64
	misses atomic.Uint64

	// freeRuns recycles page ids released through Free, so copy-on-write
	// structural changes and whole-tree rebuilds reuse retired pages
	// instead of growing the device forever. Freed pages stay allocated
	// on the device; only their ids circulate. Runs are kept sorted by
	// start, coalesced and non-adjacent, so contiguous multi-page
	// allocations can be carved out of them.
	freeMu    sync.Mutex
	freeRuns  []freeRun
	freePages int
	freed     atomic.Uint64
	reused    atomic.Uint64
	fresh     atomic.Uint64 // allocations that extended the device
}

// freeRun is a maximal run of contiguous free page ids [start, start+n).
type freeRun struct {
	start device.PageID
	n     int
}

// Option configures a Store.
type Option func(*Store)

// WithCache enables an LRU buffer cache of the given capacity in pages.
// Capacity 0 disables caching (the cold-cache default).
func WithCache(capacityPages int) Option {
	return func(s *Store) {
		if capacityPages > 0 {
			s.cache = newShardedCache(capacityPages)
		}
	}
}

// WithPinnedCache enables a cache that serves only pages loaded through
// Warm: ordinary reads never populate it. This models the paper's
// warm-cache experiments, where the levels above the leaves are resident
// but "only accessing the leaf node would cause an I/O" (Section 6.2) —
// leaf and data accesses keep paying device cost on every probe.
func WithPinnedCache(capacityPages int) Option {
	return func(s *Store) {
		if capacityPages > 0 {
			s.cache = newShardedCache(capacityPages)
			s.pinnedOnly = true
		}
	}
}

// New creates a store over dev. Without options the store is uncached:
// every read and write goes to the device, as in the paper's cold-cache
// O_DIRECT configuration.
func New(dev *device.Device, opts ...Option) *Store {
	s := &Store{dev: dev}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Device returns the underlying device (for stats access).
func (s *Store) Device() *device.Device { return s.dev }

// PageSize returns the page size in bytes.
func (s *Store) PageSize() int { return s.dev.PageSize() }

// Allocate returns n pages, the first id of a contiguous run. The free
// list is searched first — best-fit over its coalesced runs — so both
// single-page copy-on-write allocations and the multi-page runs of a
// bulk load or Rebuild recycle retired pages (which keep their stale
// content until the caller writes them). Only when no free run is large
// enough does the allocation extend the device.
func (s *Store) Allocate(n int) device.PageID {
	s.freeMu.Lock()
	best := -1
	for i := range s.freeRuns {
		if s.freeRuns[i].n < n {
			continue
		}
		if best < 0 || s.freeRuns[i].n < s.freeRuns[best].n {
			best = i
		}
	}
	if best >= 0 {
		r := &s.freeRuns[best]
		id := r.start
		r.start += device.PageID(n)
		r.n -= n
		if r.n == 0 {
			s.freeRuns = append(s.freeRuns[:best], s.freeRuns[best+1:]...)
		}
		s.freePages -= n
		s.freeMu.Unlock()
		s.reused.Add(uint64(n))
		return id
	}
	s.freeMu.Unlock()
	s.fresh.Add(uint64(n))
	return s.dev.Allocate(n)
}

// Free returns pages to the store's free list for reuse by later
// Allocations, coalescing them with each other and with existing runs.
// The caller must guarantee that no reader can still reach the pages —
// the BF-Tree's epoch scheme provides that grace period before retiring
// copy-on-write pages here.
func (s *Store) Free(ids ...device.PageID) {
	if len(ids) == 0 {
		return
	}
	sorted := append([]device.PageID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	incoming := make([]freeRun, 0, 4)
	for _, id := range sorted {
		if k := len(incoming); k > 0 && incoming[k-1].start+device.PageID(incoming[k-1].n) == id {
			incoming[k-1].n++
			continue
		}
		incoming = append(incoming, freeRun{start: id, n: 1})
	}
	s.freeMu.Lock()
	s.freeRuns = mergeFreeRuns(s.freeRuns, incoming)
	s.freePages = 0
	for _, r := range s.freeRuns {
		s.freePages += r.n
	}
	s.freeMu.Unlock()
	s.freed.Add(uint64(len(ids)))
}

// mergeFreeRuns merges two sorted run lists into one sorted, coalesced
// list. Overlapping spans collapse to their union, which keeps the free
// list consistent even if a caller double-frees a page.
func mergeFreeRuns(a, b []freeRun) []freeRun {
	out := make([]freeRun, 0, len(a)+len(b))
	i, j := 0, 0
	push := func(r freeRun) {
		if k := len(out); k > 0 {
			prev := &out[k-1]
			prevEnd := prev.start + device.PageID(prev.n)
			if r.start <= prevEnd { // adjacent or overlapping: coalesce
				if end := r.start + device.PageID(r.n); end > prevEnd {
					prev.n = int(end - prev.start)
				}
				return
			}
		}
		out = append(out, r)
	}
	for i < len(a) && j < len(b) {
		if a[i].start <= b[j].start {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return out
}

// FreePages reports how many page ids currently sit on the free list.
func (s *Store) FreePages() int {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return s.freePages
}

// FreeRuns reports the shape of the free list: how many contiguous runs
// it holds and the length of the largest. A single large run after a
// Rebuild means the next bulk allocation will be recycled rather than
// extend the device.
func (s *Store) FreeRuns() (runs, largest int) {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	for _, r := range s.freeRuns {
		if r.n > largest {
			largest = r.n
		}
	}
	return len(s.freeRuns), largest
}

// FreeListStats reports lifetime totals: pages released through Free and
// pages recycled by Allocate.
func (s *Store) FreeListStats() (freed, reused uint64) {
	return s.freed.Load(), s.reused.Load()
}

// PressureStats reports the free-list pressure counters the maintenance
// policy feeds on: fresh is the lifetime count of pages allocated by
// extending the device (the free list could not serve them), freed and
// reused as in FreeListStats. A growing fresh count while reclaimable
// pages sit in the tree's limbo means reclamation is overdue — the
// device is expanding for pages that dead ids could have supplied.
func (s *Store) PressureStats() (fresh, freed, reused uint64) {
	return s.fresh.Load(), s.freed.Load(), s.reused.Load()
}

// ReadPage returns the current image of page id. The image is shared
// and read-only: the caller must not write into it, and a later
// WritePage leaves it unchanged (see the package comment). A cache hit
// costs no device I/O; neither a hit nor a miss copies the page.
func (s *Store) ReadPage(id device.PageID) ([]byte, error) {
	var sh *cacheShard
	if s.cache != nil {
		sh = s.cache.shardFor(id)
		sh.mu.Lock()
		data, ok := sh.lru.get(id)
		sh.mu.Unlock()
		if ok {
			s.hits.Add(1)
			return data, nil
		}
		s.misses.Add(1)
	}

	var gen uint64
	if sh != nil && !s.pinnedOnly {
		gen = sh.gen.Load()
	}
	page, _, err := s.dev.ReadPage(id)
	if err != nil {
		return nil, err
	}

	if sh != nil && !s.pinnedOnly {
		sh.mu.Lock()
		// Admit only if no write to this shard overlapped the device
		// read: a concurrent writer bumps gen both before its device
		// write and before its own cache update, so if this read raced
		// it — and could be holding the pre-write image — the check
		// fails and the cache never regresses to stale data.
		if sh.gen.Load() == gen {
			sh.lru.put(id, page)
		}
		sh.mu.Unlock()
	}
	return page, nil
}

// WritePage writes buf to page id and caches the image it installs
// (write-through). The caller keeps buf: the device copies it.
func (s *Store) WritePage(id device.PageID, buf []byte) error {
	var sh *cacheShard
	if s.cache != nil {
		sh = s.cache.shardFor(id)
		sh.gen.Add(1) // readers sampling after this must not admit pre-write data
	}
	page, err := s.dev.WritePage(id, buf)
	if err != nil {
		return err
	}
	if sh != nil {
		sh.gen.Add(1) // invalidate readers whose device read preceded the write
		sh.mu.Lock()
		// A pinned-only cache must stay coherent for pages it already
		// holds, but writes never admit new pages into it.
		if !s.pinnedOnly || sh.lru.contains(id) {
			sh.lru.put(id, page)
		}
		sh.mu.Unlock()
	}
	return nil
}

// Warm pre-loads the given pages into the cache without charging device
// cost, modelling the paper's warm-cache setup where the upper levels of
// a tree are already resident after previous queries.
func (s *Store) Warm(ids []device.PageID) error {
	if s.cache == nil {
		return fmt.Errorf("pagestore: Warm on an uncached store")
	}
	for _, id := range ids {
		page, _, err := s.dev.ReadPage(id)
		if err != nil {
			return err
		}
		sh := s.cache.shardFor(id)
		sh.mu.Lock()
		sh.lru.putResident(id, page)
		sh.mu.Unlock()
	}
	// Warming is free: it models pages already resident, so refund the
	// device cost it just charged.
	s.dev.ResetStats()
	return nil
}

// CacheStats reports cache hits and misses since creation.
func (s *Store) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// Cached reports whether the store has a buffer cache.
func (s *Store) Cached() bool { return s.cache != nil }

// DropCache empties the buffer cache (keeps it enabled).
func (s *Store) DropCache() {
	if s.cache == nil {
		return
	}
	for i := range s.cache.shards {
		sh := &s.cache.shards[i]
		sh.mu.Lock()
		sh.lru.drop()
		sh.mu.Unlock()
	}
}

// minShardCapacity is the smallest per-shard page budget worth splitting
// for: below it, sharding would make eviction noticeably less LRU-like
// while saving contention no probe workload can generate.
const minShardCapacity = 64

// maxCacheShards bounds the shard count. It tracks the host's
// parallelism (parallelStripes) instead of a fixed constant: more
// independent locks than runnable goroutines buys nothing, while a big
// fixed count fragments small caches' LRU for no contention win.
var maxCacheShards = parallelStripes(256)

// parallelStripes returns GOMAXPROCS rounded up to a power of two,
// floored at 8 and never exceeding limit (the floor wins should a
// caller pass a limit below 8). The power-of-two rounding keeps shard
// selection a mask.
func parallelStripes(limit int) int {
	n := runtime.GOMAXPROCS(0)
	s := 8
	for s < n && s*2 <= limit {
		s *= 2
	}
	return s
}

// shardedCache splits a page cache into independently locked LRU shards.
// A page's shard is a hash of its id, so tree levels laid out on
// contiguous pages spread across shards instead of striding into one.
type shardedCache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu  sync.Mutex
	lru *lruCache

	// gen counts writes to pages of this shard; ReadPage uses it to
	// detect a write overlapping its uncached device read and skip
	// admission (see WritePage). Per-shard so unrelated writes don't
	// cancel admissions across the whole store.
	gen atomic.Uint64
}

// shardCount picks the largest power-of-two shard count that keeps every
// shard at least minShardCapacity pages, capped at maxCacheShards.
// Capacities below 2×minShardCapacity get a single shard — exact global
// LRU, matching the semantics small deterministic experiments rely on.
func shardCount(capacity int) int {
	n := 1
	for n*2 <= maxCacheShards && capacity/(n*2) >= minShardCapacity {
		n *= 2
	}
	return n
}

func newShardedCache(capacity int) *shardedCache {
	n := shardCount(capacity)
	perShard := (capacity + n - 1) / n
	c := &shardedCache{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
	}
	for i := range c.shards {
		c.shards[i].lru = newLRUCache(perShard)
	}
	return c
}

// shardFor maps a page id to its shard with a Fibonacci hash, decorrelating
// the sequential page ids of a freshly bulk-loaded level.
func (c *shardedCache) shardFor(id device.PageID) *cacheShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &c.shards[(h>>32)&c.mask]
}

// lruCache is a classic LRU page cache. Callers hold the shard lock.
type lruCache struct {
	capacity     int
	baseCapacity int        // configured budget; drop() restores it after putResident growth
	ll           *list.List // front = most recent; values are *cacheEntry
	index        map[device.PageID]*list.Element
}

type cacheEntry struct {
	id   device.PageID
	data []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity:     capacity,
		baseCapacity: capacity,
		ll:           list.New(),
		index:        make(map[device.PageID]*list.Element),
	}
}

func (c *lruCache) get(id device.PageID) ([]byte, bool) {
	el, ok := c.index[id]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

func (c *lruCache) put(id device.PageID, data []byte) {
	if el, ok := c.index[id]; ok {
		el.Value.(*cacheEntry).data = data
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() < c.capacity {
		c.index[id] = c.ll.PushFront(&cacheEntry{id: id, data: data})
		return
	}
	// Full: the least recently used entry is evicted and recycled for
	// the new page, so a miss on a warm cache allocates nothing.
	oldest := c.ll.Back()
	e := oldest.Value.(*cacheEntry)
	delete(c.index, e.id)
	e.id, e.data = id, data
	c.ll.MoveToFront(oldest)
	c.index[id] = oldest
}

// putResident inserts without ever evicting, growing the shard's budget
// if needed. Warm uses it: warmed pages model data that is already
// resident, so a hash imbalance across shards must not push part of the
// warmed set back out.
func (c *lruCache) putResident(id device.PageID, data []byte) {
	if !c.contains(id) && c.ll.Len()+1 > c.capacity {
		c.capacity = c.ll.Len() + 1
	}
	c.put(id, data)
}

func (c *lruCache) contains(id device.PageID) bool {
	_, ok := c.index[id]
	return ok
}

func (c *lruCache) drop() {
	c.ll.Init()
	c.index = make(map[device.PageID]*list.Element)
	c.capacity = c.baseCapacity
}
