package server_test

import (
	"encoding/binary"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/server"
	"bftree/internal/server/loadgen"
)

// TestServerConcurrency is the serving layer's -race gate: 8 HTTP
// clients run a delete-heavy mixed workload against a live bftree whose
// auto maintainer reclaims and compacts underneath them. It asserts (a)
// every request succeeds, with no error served, and (b) the page
// economy balances at quiescence — no page leaked between live, free
// and limbo across the whole served run.
func TestServerConcurrency(t *testing.T) {
	const (
		n       = 8192 // unique keys 0..n-1, one tuple each
		workers = 8
		ops     = 300 // per worker
	)

	schema := heapfile.Schema{
		TupleSize: 64,
		Fields:    []heapfile.Field{{Name: "key", Offset: 0}},
	}
	dataStore := pagestore.New(device.New(device.Memory, 4096))
	b, err := heapfile.NewBuilder(dataStore, schema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, schema.TupleSize)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(tup[0:8], uint64(i))
		if err := b.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	file, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	idxDev := device.New(device.Memory, 4096)
	idxStore := pagestore.New(idxDev)
	ix, err := index.New("bftree", idxStore, file, 0, index.Options{
		BFTree: core.Options{
			FPP: 1e-3,
			Maintenance: core.MaintenancePolicy{
				Mode:             core.MaintenanceAuto,
				ReclaimInterval:  time.Millisecond,
				FPPThreshold:     0.04, // low threshold: deletes trigger compaction often
				IncrementalBatch: 8,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(ix, server.Options{})
	ts := httptest.NewServer(srv)
	cl, err := loadgen.Dial(ts.URL, loadgen.Options{Connections: workers})
	if err != nil {
		t.Fatal(err)
	}

	refOf := func(k uint64) index.Ref { return index.Ref{Page: file.PageOf(k)} }

	// Delete-heavy mix: 50% delete, 20% insert (re-adding what deletes
	// ghosted), 30% reads across the capability surface.
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(n))
				var err error
				switch p := rng.Float64(); {
				case p < 0.50:
					err = cl.Delete(k, refOf(k))
				case p < 0.70:
					err = cl.Insert(k, refOf(k))
				case p < 0.80:
					_, err = cl.Search(k)
				case p < 0.90:
					_, err = cl.MultiSearch([]uint64{k, k / 2, k + 7})
				default:
					// A LIMIT-5 read: the stream is abandoned mid-chunk.
					_, err = scanLimit(cl, k, k+64, 5)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	if errs := srv.Served().Errors; errs != 0 {
		t.Errorf("server answered %d requests with an error", errs)
	}

	ts.Close()
	cl.Close()

	// Quiescence: Close stops the maintainer after a final drain; the
	// page economy must balance through the public surface alone.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ms := ix.(index.Maintainer).MaintenanceStats()
	live := ix.Stats().Pages
	free := uint64(idxStore.FreePages())
	limbo := uint64(ms.LimboPages)
	if live+free+limbo != idxDev.NumPages() {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			live, free, limbo, idxDev.NumPages())
	}
}

// TestWriteSerialization mounts every backend with zero Options and
// runs HTTP writers beside /search, /multi and /scan readers, some of
// whose scans drain and some stop after 5 tuples and close. The
// server must work out on its own which backends need their writes
// serialized: under -race, a backend without ConcurrentWriters that
// the server left unguarded reports a data race. Writers re-add
// existing associations (and, where the backend deletes, drop them
// first), so once they drain every sampled key answers golden again.
func TestWriteSerialization(t *testing.T) {
	const (
		n       = 1500 // keys 0,5,...,2495; 3 tuples each
		writers = 2
		readers = 4
		ops     = 60 // per goroutine
	)
	file, _ := servedRelation(t, n)
	maxKey := uint64(n/3-1) * 5
	refs := map[uint64][]index.Ref{}
	err := file.Scan(func(pid device.PageID, slot int, tup []byte) bool {
		k := file.Schema().Get(tup, 0)
		refs[k] = append(refs[k], index.Ref{Page: pid, Slot: uint16(slot)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range index.Backends() {
		t.Run(name, func(t *testing.T) {
			ix, cl := mount(t, name, file)
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < ops; i++ {
						k := uint64(rng.Intn(n/3)) * 5
						for _, ref := range refs[k] {
							if cl.Caps().Delete {
								if err := cl.Delete(k, ref); err != nil {
									errs <- err
									return
								}
							}
							if err := cl.Insert(k, ref); err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for i := 0; i < ops; i++ {
						k := uint64(rng.Intn(n/3)) * 5
						var err error
						switch i % 4 {
						case 0:
							_, err = cl.Search(k)
						case 1:
							_, err = cl.MultiSearch([]uint64{k, k + 5, k + 150})
						case 2:
							var it index.Iterator
							if it, err = cl.Scan(k, k+100); err == nil {
								_, err = index.Drain(it)
							}
						default:
							// Abandoned mid-chunk: the server holds the
							// rest of the first credit when Close lands.
							_, err = scanLimit(cl, k, k+500, 5)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if fl, ok := ix.(index.Flusher); ok {
				if err := fl.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(0); k <= maxKey; k += 5 * 37 {
				served, err := cl.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				if len(served.Tuples) != len(refs[k]) {
					t.Fatalf("Search(%d) after the writers: %d tuples, want %d", k, len(served.Tuples), len(refs[k]))
				}
			}
		})
	}
}
