package forest_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/forest"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// The forest race suite: concurrent writers, scanners and point probers
// against a forest whose per-shard maintainers run in the background,
// then a quiescent page-economy audit — every index page is live in
// some shard, on the store's free list, or in a shard's limbo, and
// limbo drains to zero. Run with -race.

// raceForest builds a forest with auto maintenance at a tight reclaim
// interval so the maintainers actually interleave with the workload.
func raceForest(t *testing.T, file *heapfile.File) (*forest.Forest, *pagestore.Store, *device.Device) {
	t.Helper()
	dev := device.New(device.Memory, 4096)
	idxStore := pagestore.New(dev)
	f, err := forest.New(idxStore, file, 0, forest.Options{
		Shards: 4,
		Tree: core.Options{
			FPP: 1e-3,
			Maintenance: core.MaintenancePolicy{
				Mode:            core.MaintenanceAuto,
				ReclaimInterval: time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, idxStore, dev
}

// pagesOf collects the distinct data pages of each sampled key, for
// writers that re-insert/delete real associations.
func pagesOf(t *testing.T, file *heapfile.File, step uint64) map[uint64][]device.PageID {
	t.Helper()
	out := map[uint64][]device.PageID{}
	err := file.Scan(func(pid device.PageID, _ int, tup []byte) bool {
		k := file.Schema().Get(tup, 0)
		if k%step == 0 {
			pids := out[k]
			if len(pids) == 0 || pids[len(pids)-1] != pid {
				out[k] = append(pids, pid)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestForestRaceMixed(t *testing.T) {
	const n, dups = 4000, 7
	file, _ := buildRelation(t, n, dups)
	maxKey := uint64((n-1)/dups) * 5

	t.Run("range", func(t *testing.T) {
		f, idxStore, dev := raceForest(t, file)
		defer f.Close()
		refs := pagesOf(t, file, 5*13)

		const writers, probers, rounds = 8, 8, 40
		var wg sync.WaitGroup
		errCh := make(chan error, writers+probers)

		// Writers churn real associations: delete then re-insert, so
		// the index converges back to golden whatever the
		// interleaving. Each writer owns a disjoint key slice (per
		// key, not per shard — shard routing is the code under
		// test), per the §3 same-association rule.
		keys := make([]uint64, 0, len(refs))
		for key := range refs {
			keys = append(keys, key)
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := w; i < len(keys); i += writers {
						key := keys[i]
						for _, pid := range refs[key] {
							if err := f.Delete(key, pid); err != nil {
								errCh <- err
								return
							}
						}
						for _, pid := range refs[key] {
							if err := f.Insert(key, pid); err != nil {
								errCh <- err
								return
							}
						}
					}
				}
			}(w)
		}

		// Probers mix point lookups, batched probes and streaming
		// scans; answers under churn must never exceed the physical
		// association count (the §3 never-wrong-tuples bound).
		for p := 0; p < probers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					key := (uint64(p*53+r*17) % (maxKey / 5)) * 5
					res, err := f.Search(key)
					if err != nil {
						errCh <- err
						return
					}
					if len(res.Tuples) > dups {
						t.Errorf("Search(%d) under churn: %d tuples exceeds physical %d", key, len(res.Tuples), dups)
						return
					}
					if _, err := f.MultiSearch([]uint64{key, key + 5, key + 250}); err != nil {
						errCh <- err
						return
					}
					it, err := f.Scan(key, key+100)
					if err != nil {
						errCh <- err
						return
					}
					for s := 0; it.Next() && s < 32; s++ {
					}
					if err := it.Err(); err != nil {
						errCh <- err
						it.Close()
						return
					}
					it.Close()
				}
			}(p)
		}

		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}

		// Quiescence: stop the maintainers, drain both limbo epochs
		// on every shard, then audit the page economy.
		for i := 0; i < f.NumShards(); i++ {
			f.Shard(i).StopMaintenance()
		}
		for pass := 0; pass < 2; pass++ {
			if err := f.Maintain(); err != nil {
				t.Fatal(err)
			}
		}
		var live, limbo uint64
		for i := 0; i < f.NumShards(); i++ {
			tr := f.Shard(i)
			ms := tr.MaintenanceStats()
			if ms.LimboPages != 0 {
				t.Errorf("shard %d: %d limbo pages after quiescent reclaim", i, ms.LimboPages)
			}
			live += tr.NumNodes()
			limbo += uint64(ms.LimboPages)
		}
		free := uint64(idxStore.FreePages())
		if total := dev.NumPages(); live+free+limbo != total {
			t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
				live, free, limbo, total)
		}

		// And the index still answers golden.
		for key := range refs {
			res, err := f.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if want := brute(t, file, key, key); !sameTuples(res.Tuples, want) {
				t.Fatalf("post-churn Search(%d): %d tuples, want %d", key, len(res.Tuples), len(want))
			}
		}
	})
}

// TestForestRaceScanners runs full-domain streaming scans against
// structural churn (deletes driving drift toward compaction) — the
// cross-shard cursor must stay per-shard snapshot-consistent and never
// error.
func TestForestRaceScanners(t *testing.T) {
	const n, dups = 4000, 7
	file, _ := buildRelation(t, n, dups)

	t.Run("range", func(t *testing.T) {
		f, _, _ := raceForest(t, file)
		defer f.Close()
		refs := pagesOf(t, file, 5*3)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for key, pids := range refs {
					for _, pid := range pids {
						if i%2 == 0 {
							_ = f.Delete(key, pid)
						} else {
							_ = f.Insert(key, pid)
						}
					}
				}
			}
		}()

		for s := 0; s < 6; s++ {
			res, err := f.RangeScan(0, math.MaxUint64)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tuples) > n {
				t.Fatalf("scan under churn returned %d tuples for %d physical", len(res.Tuples), n)
			}
		}
		close(stop)
		wg.Wait()
	})
}
