package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http/httptest"
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/server"
	"bftree/internal/server/loadgen"
)

// These tests live in server_test (not server) so they can import
// loadgen — the client imports the server package for the wire types,
// and a same-package test would close an import cycle.

// servedRelation builds the conformance suite's golden shape: key step
// 5, three tuples per key, payload = ordinal.
func servedRelation(t testing.TB, n int) (*heapfile.File, *pagestore.Store) {
	t.Helper()
	schema := heapfile.Schema{
		TupleSize: 64,
		Fields:    []heapfile.Field{{Name: "key", Offset: 0}, {Name: "seq", Offset: 8}},
	}
	store := pagestore.New(device.New(device.Memory, 4096))
	b, err := heapfile.NewBuilder(store, schema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, schema.TupleSize)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(tup[0:8], uint64(i/3)*5)
		binary.BigEndian.PutUint64(tup[8:16], uint64(i))
		if err := b.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	file, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return file, store
}

// mount builds backend name over file, serves it over a real listener,
// and dials a client. SerializeWrites is set from the registry trait,
// exactly as production wiring does.
func mount(t testing.TB, name string, file *heapfile.File, sopts server.Options) (index.Index, *loadgen.Client) {
	t.Helper()
	b, ok := index.Lookup(name)
	if !ok {
		t.Fatalf("backend %q not registered", name)
	}
	idxStore := pagestore.New(device.New(device.Memory, 4096))
	ix, err := index.New(name, idxStore, file, 0, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	sopts.SerializeWrites = !b.ConcurrentWriters
	ts := httptest.NewServer(server.New(ix, sopts))
	t.Cleanup(ts.Close)
	cl, err := loadgen.Dial(ts.URL, loadgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return ix, cl
}

// sameResult requires tuple-for-tuple, stat-for-stat equality — the
// served answer must be byte-identical to the direct call.
func sameResult(t *testing.T, op string, got, want *index.Result) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Errorf("%s: served %d tuples, direct %d", op, len(got.Tuples), len(want.Tuples))
		return
	}
	for i := range want.Tuples {
		if !bytes.Equal(got.Tuples[i], want.Tuples[i]) {
			t.Errorf("%s: tuple %d differs between served and direct", op, i)
			return
		}
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: served stats %+v, direct stats %+v", op, got.Stats, want.Stats)
	}
}

// TestGoldenEquivalence is the serving layer's conformance gate: for
// every registered backend, every read answer served over HTTP —
// point, first-match, range, batched, streamed scan with LIMIT —
// equals the direct index.Index call on the same store, stats
// included. The wire adds transport, never semantics.
func TestGoldenEquivalence(t *testing.T) {
	const n = 3000 // keys 0,5,...,4995; 3 tuples each
	file, _ := servedRelation(t, n)
	maxKey := uint64(n/3-1) * 5

	for _, name := range index.Backends() {
		t.Run(name, func(t *testing.T) {
			ix, cl := mount(t, name, file, server.Options{})

			for _, key := range []uint64{0, 5, maxKey / 2, maxKey, 7, maxKey + 100} {
				got, err := cl.Search(key)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ix.Search(key)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "search", got, want)

				got, err = cl.SearchFirst(key)
				if err != nil {
					t.Fatal(err)
				}
				want, err = ix.SearchFirst(key)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "search-first", got, want)
			}

			for _, r := range [][2]uint64{{0, 50}, {maxKey - 95, maxKey}, {maxKey + 10, maxKey + 500}} {
				got, err := cl.RangeScan(r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				want, err := ix.RangeScan(r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "range", got, want)
			}

			keys := []uint64{0, 25, 25, maxKey, 7, maxKey / 2}
			got, err := cl.MultiSearch(keys)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ix.MultiSearch(keys)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "multi", got, want)

			{
				// LIMIT-k: the served scan must return the same k tuples
				// at the same iterator cost as pulling k directly —
				// early-termination pricing preserved over the wire.
				const k = 7
				it, err := cl.ScanLimit(0, maxKey, k)
				if err != nil {
					t.Fatal(err)
				}
				got := &index.Result{}
				for it.Next() {
					got.Tuples = append(got.Tuples, it.Tuple())
				}
				got.Stats = it.Stats()
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				it.Close()

				dit, err := ix.Scan(0, maxKey)
				if err != nil {
					t.Fatal(err)
				}
				want := &index.Result{}
				for len(want.Tuples) < k && dit.Next() {
					want.Tuples = append(want.Tuples, dit.Tuple())
				}
				want.Stats = dit.Stats()
				if err := dit.Err(); err != nil {
					t.Fatal(err)
				}
				dit.Close()

				if len(got.Tuples) != k {
					t.Fatalf("scan-limit: served %d tuples, want %d", len(got.Tuples), k)
				}
				sameResult(t, "scan-limit", got, want)

				// Unlimited streamed scan == materialized range scan.
				it, err = cl.Scan(100, 300)
				if err != nil {
					t.Fatal(err)
				}
				full, err := index.Drain(it)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := ix.RangeScan(100, 300)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "scan-full", full, direct)
			}

			// Inverted ranges are the caller's fault on both paths.
			if _, err := cl.RangeScan(10, 5); !errors.Is(err, index.ErrInvalidRange) {
				t.Errorf("served inverted range: err %v, want ErrInvalidRange", err)
			}
		})
	}
}

// TestCapabilityMatrix checks the 405 contract against every backend:
// the routes of the mandatory surface (multi, scan, insert) always
// answer, an optional capability route answers iff the mounted backend
// has the capability, and a refusal names it — surfaced by the client
// as index.ErrUnsupported.
func TestCapabilityMatrix(t *testing.T) {
	const n = 600
	file, _ := servedRelation(t, n)

	for _, name := range index.Backends() {
		t.Run(name, func(t *testing.T) {
			_, cl := mount(t, name, file, server.Options{})
			caps := cl.Caps()
			ref := index.Ref{Page: file.PageOf(0)}

			check := func(op string, supported bool, err error) {
				t.Helper()
				if supported && err != nil {
					t.Errorf("%s: supported but failed: %v", op, err)
				}
				if !supported && !errors.Is(err, index.ErrUnsupported) {
					t.Errorf("%s: unsupported, err %v, want ErrUnsupported", op, err)
				}
			}

			_, merr := cl.MultiSearch([]uint64{0, 5})
			check("multi", true, merr)

			it, serr := cl.ScanLimit(0, 50, 2)
			if serr == nil {
				index.Drain(it)
			}
			check("scan", true, serr)

			check("insert", true, cl.Insert(3, ref))
			check("delete", caps.Delete, cl.Delete(3, ref))
			check("flush", caps.Flush, cl.Flush())
		})
	}
}

// TestStatsEndpoint pins what /stats must carry: the backend name, the
// true capability surface, the index shape, and served accounting that
// actually moves as requests land.
func TestStatsEndpoint(t *testing.T) {
	const n = 600
	file, _ := servedRelation(t, n)
	ix, cl := mount(t, "bftree", file, server.Options{})

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "bftree" {
		t.Errorf("backend = %q, want bftree", st.Backend)
	}
	if st.Caps != index.Capabilities(ix) {
		t.Errorf("caps = %+v, want %+v", st.Caps, index.Capabilities(ix))
	}
	if st.Index.Entries == 0 || st.Index.Pages == 0 {
		t.Errorf("index shape empty: %+v", st.Index)
	}
	if st.Maintenance == nil {
		t.Error("bftree mount must expose a maintenance snapshot")
	}

	if _, err := cl.Search(0); err != nil {
		t.Fatal(err)
	}
	st2, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Served.Requests <= st.Served.Requests {
		t.Errorf("served requests did not advance: %d -> %d",
			st.Served.Requests, st2.Served.Requests)
	}
	if st2.Served.Probe.DataPagesRead == 0 {
		t.Error("served probe accounting did not record the search's page reads")
	}
}
