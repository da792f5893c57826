package heapfile

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// TestReadersHoldTuplesAcrossRewrites runs readers that keep every
// whole-page AppendMatches and SearchPage result they get while a writer rewrites
// the same pages, each round stamping a new version into every tuple.
// The tuples are sub-slices of shared page images, so each result must
// come from one version (no torn page) and still hold that version once
// the writer is done: a write installs a new image and never touches
// one a reader holds. Run under -race, it also checks that nothing
// writes into a held image concurrently.
func TestReadersHoldTuplesAcrossRewrites(t *testing.T) {
	for _, cached := range []bool{false, true} {
		var opts []pagestore.Option
		if cached {
			opts = append(opts, pagestore.WithCache(8))
		}
		b, err := NewBuilder(pagestore.New(device.New(device.Memory, 512), opts...), testSchema)
		if err != nil {
			t.Fatal(err)
		}
		const n = 70 // 9 pages of 7 tuples, the last one partial
		for i := 0; i < n; i++ {
			if err := b.Append(makeTuple(uint64(i), 0)); err != nil {
				t.Fatal(err)
			}
		}
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		checkHeldTuples(t, f, n)
	}
}

// held is one reader result and the version its tuples carried.
type held struct {
	tuples  [][]byte
	version uint64
}

func checkHeldTuples(t *testing.T, f *File, n int) {
	const (
		readers = 4
		reads   = 300 // per reader
	)
	per := f.TuplesPerPage()
	// version reads the version a result was stamped with, checking that
	// every tuple agrees and carries the primary key of its slot.
	version := func(tuples [][]byte, pks func(i int) uint64) (uint64, bool) {
		for i, tup := range tuples {
			if f.Schema().Get(tup, 0) != pks(i) || f.Schema().Get(tup, 1) != f.Schema().Get(tuples[0], 1) {
				return 0, false
			}
		}
		return f.Schema().Get(tuples[0], 1), len(tuples) > 0
	}
	// The writer rewrites every page until the readers are done, reusing
	// one buffer: the store copies it.
	done := make(chan struct{})
	writes := make(chan uint64)
	go func() {
		buf := make([]byte, f.Store().PageSize())
		v := uint64(1)
		defer func() { writes <- v - 1 }()
		for ; ; v++ {
			for p := uint64(0); p < f.NumPages(); p++ {
				select {
				case <-done:
					return
				default:
				}
				clear(buf)
				count := min(per, n-int(p)*per)
				binary.BigEndian.PutUint16(buf[0:2], uint16(count))
				for i := 0; i < count; i++ {
					copy(buf[pageHeaderSize+i*testSchema.TupleSize:], makeTuple(p*uint64(per)+uint64(i), v))
				}
				if err := f.Store().WritePage(f.FirstPage()+device.PageID(p), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	results := make([][]held, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				ord := uint64((i*7 + r*13) % n)
				id := f.PageOf(ord)
				first := uint64(id-f.FirstPage()) * uint64(per)
				tuples, err := f.AppendMatches(nil, id, 0, Keys{Hi: math.MaxUint64})
				if err != nil {
					t.Error(err)
					return
				}
				v, ok := version(tuples, func(i int) uint64 { return first + uint64(i) })
				if !ok {
					t.Errorf("page %d read torn or wrong: %d tuples", id, len(tuples))
					return
				}
				found, err := f.SearchPage(id, 0, ord)
				if err != nil {
					t.Error(err)
					return
				}
				w, ok := version(found, func(int) uint64 { return ord })
				if !ok || len(found) != 1 {
					t.Errorf("SearchPage(%d) found %d tuples", ord, len(found))
					return
				}
				results[r] = append(results[r], held{tuples, v}, held{found, w})
			}
		}(r)
	}
	wg.Wait()
	close(done)
	if rounds := <-writes; rounds == 0 {
		t.Log("the writer finished no full round while the readers ran")
	}
	for _, rs := range results {
		for _, h := range rs {
			for _, tup := range h.tuples {
				if got := f.Schema().Get(tup, 1); got != h.version {
					t.Fatalf("a held tuple changed from version %d to %d", h.version, got)
				}
			}
		}
	}
}
