package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bftree/index"
	"bftree/internal/bloom"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/server"
	"bftree/internal/server/loadgen"
	"bftree/internal/workload"
)

// The layer ladder times each layer's public functions from outside with
// testing.Benchmark, on the workload's own relation and key draws. Rows
// go from the innermost layer (one Bloom probe) to the outermost (a
// loadgen round trip over loopback); the difference between adjacent rows
// is roughly that layer's own cost. Index and data stores are uncached,
// as served, except in the cached page-read row.

// ladderRows names the rows in order; each reports ns_op, b_op and
// allocs_op.
var ladderRows = []string{
	"bloom.contains",
	"heapfile.search_page",
	"pagestore.read_page_cached",
	"pagestore.read_page_uncached",
	"core.search_first",
	"core.multi_search16",
	"core.insert_inplace",
	"core.scan_limit10",
	"index.search_first",
	"forest.search_first",
	"server.search",
	"server.multi16",
	"server.scan_limit10",
	"server.insert",
	"loadgen.search",
	"loadgen.scan_limit10",
	"workload.op_next",
}

const (
	ladderKeys  = 4096
	ladderLimit = 10
)

// setBenchtime sets testing.Benchmark's run length: a duration such as
// "200ms", or a fixed iteration count such as "20x".
func setBenchtime(v string) error {
	testing.Init()
	return flag.Set("test.benchtime", v)
}

// ladder runs every row against fresh structures over fx and returns
// ladder.<row>.{ns_op,b_op,allocs_op}.
func ladder(fx *fixture, s *spec, seed int64) (map[string]float64, error) {
	ranks := workload.NewRanks(s.dist, s.skew, fx.numKeys, workload.SubStream(seed, workers+1))
	keys := make([]uint64, ladderKeys)
	for i := range keys {
		keys[i] = ranks.Rank()
	}
	span := max(fx.numKeys/256, 1)
	hiOf := func(lo uint64) uint64 { return min(lo+span, fx.numKeys-1) }

	// The write rows get their own tree and index, so every read row runs
	// on the bulk-loaded structure the workloads start from, whatever the
	// write rows added.
	opts := servedOptions()
	newTree := func() (*core.Tree, error) {
		return core.BulkLoad(pagestore.New(device.New(device.Memory, pageSize)), fx.file, 0, opts.BFTree)
	}
	newIndex := func(backend string) (index.Index, error) {
		return index.New(backend, pagestore.New(device.New(device.Memory, pageSize)), fx.file, 0, opts)
	}
	tree, err := newTree()
	if err != nil {
		return nil, err
	}
	defer tree.Close()
	writeTree, err := newTree()
	if err != nil {
		return nil, err
	}
	defer writeTree.Close()
	bf, err := newIndex("bftree")
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	writeBF, err := newIndex("bftree")
	if err != nil {
		return nil, err
	}
	defer writeBF.Close()
	forest, err := newIndex("bfforest")
	if err != nil {
		return nil, err
	}
	defer forest.Close()
	// The gate is off, as on every workload, so server.insert times the
	// handler, never a 429.
	srv := server.New(bf, server.Options{BackpressureFraction: 1})
	writeSrv := server.New(writeBF, server.Options{BackpressureFraction: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl, err := loadgen.Dial(ts.URL, loadgen.Options{Connections: 1})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// A one-page filter sized like a BF-leaf's per-page filter.
	filter, err := bloom.New(uint64(fx.file.TuplesPerPage()), designFPP)
	if err != nil {
		return nil, err
	}
	for k := uint64(0); k < uint64(fx.file.TuplesPerPage()); k++ {
		filter.AddUint64(k)
	}
	uncached := fx.file.Store()
	cached := pagestore.New(fx.dataDev, pagestore.WithCache(2048))
	hot := make([]index.PageID, 0, 256)
	for _, k := range keys[:256] {
		p := fx.file.PageOf(k)
		hot = append(hot, p)
		if _, err := cached.ReadPage(p); err != nil {
			return nil, err
		}
	}
	stream, err := workload.NewOpStream(s.mix, workload.StreamConfig{
		Dist: s.dist, Skew: s.skew, NumKeys: fx.numKeys, Workers: workers, Seed: seed,
	})
	if err != nil {
		return nil, err
	}

	bodies := func(f func(i int) any) [][]byte {
		out := make([][]byte, ladderKeys/16)
		for i := range out {
			out[i], _ = json.Marshal(f(i))
		}
		return out
	}
	searchBodies := bodies(func(i int) any { return server.PointRequest{Key: keys[i], First: true} })
	multiBodies := bodies(func(i int) any { return server.MultiRequest{Keys: keys[i*16 : i*16+16]} })
	scanBodies := bodies(func(i int) any { return server.ScanRequest{Lo: keys[i], Hi: hiOf(keys[i]), Limit: ladderLimit} })
	insertBodies := bodies(func(i int) any {
		ref := fx.refOf(keys[i])
		return server.WriteRequest{Key: keys[i], Page: uint64(ref.Page), Slot: ref.Slot}
	})

	// Every row checks its answers cheaply; the first error fails the
	// ladder after its row finishes.
	var rowErr error
	fail := func(err error) bool {
		if err != nil && rowErr == nil {
			rowErr = err
		}
		return err != nil
	}
	found := func(res *index.Result, err error) error {
		if err == nil && len(res.Tuples) == 0 {
			err = errors.New("key not found")
		}
		return err
	}
	// scanLimit pulls up to ladderLimit tuples of [lo, hiOf(lo)] and
	// closes the iterator.
	scanLimit := func(lo uint64, it index.Iterator, err error) error {
		if err != nil {
			return err
		}
		n := 0
		for n < ladderLimit && it.Next() {
			n++
		}
		err = it.Err()
		if cerr := it.Close(); err == nil {
			err = cerr
		}
		if want := min(ladderLimit, int(hiOf(lo)-lo+1)); err == nil && n != want {
			err = fmt.Errorf("LIMIT %d scan from %d returned %d tuples, want %d", ladderLimit, lo, n, want)
		}
		return err
	}
	key := func(i int) uint64 { return keys[i%ladderKeys] }

	fns := map[string]func(b *testing.B){
		"bloom.contains": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				filter.ContainsUint64(key(i))
			}
		},
		"heapfile.search_page": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				k := key(i)
				if _, err := fx.file.SearchPage(fx.file.PageOf(k), 0, k); fail(err) {
					return
				}
			}
		},
		"pagestore.read_page_cached": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if _, err := cached.ReadPage(hot[i%len(hot)]); fail(err) {
					return
				}
			}
		},
		"pagestore.read_page_uncached": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if _, err := uncached.ReadPage(fx.file.PageOf(key(i))); fail(err) {
					return
				}
			}
		},
		"core.search_first": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if fail(found(tree.SearchFirst(key(i)))) {
					return
				}
			}
		},
		"core.multi_search16": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				j := (i * 16) % (ladderKeys - 16)
				if fail(found(tree.MultiSearch(keys[j : j+16]))) {
					return
				}
			}
		},
		"core.insert_inplace": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				k := key(i)
				if fail(writeTree.Insert(k, fx.file.PageOf(k))) {
					return
				}
			}
		},
		"core.scan_limit10": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				k := key(i)
				cur, err := tree.ScanOptimized(k, hiOf(k))
				if fail(scanLimit(k, cur, err)) {
					return
				}
			}
		},
		"index.search_first": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if fail(found(bf.SearchFirst(key(i)))) {
					return
				}
			}
		},
		"forest.search_first": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if fail(found(forest.SearchFirst(key(i)))) {
					return
				}
			}
		},
		"server.search":       serveRow(srv, "/search", searchBodies, http.StatusOK, fail),
		"server.multi16":      serveRow(srv, "/multi", multiBodies, http.StatusOK, fail),
		"server.scan_limit10": serveRow(srv, "/scan", scanBodies, http.StatusOK, fail),
		"server.insert":       serveRow(writeSrv, "/insert", insertBodies, http.StatusNoContent, fail),
		"loadgen.search": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if fail(found(cl.SearchFirst(key(i)))) {
					return
				}
			}
		},
		// Scan, 10 Next, Close, as internal/bench's driver does. The
		// loadgen's Scan asks the server for the whole range (limit 0),
		// so this row pays for streaming it.
		"loadgen.scan_limit10": func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				k := key(i)
				it, err := cl.Scan(k, hiOf(k))
				if fail(scanLimit(k, it, err)) {
					return
				}
			}
		},
		"workload.op_next": func(b *testing.B) {
			for b.Loop() {
				stream.Next()
			}
		},
	}

	out := map[string]float64{}
	for _, row := range ladderRows {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fns[row](b)
		})
		if rowErr != nil {
			return nil, fmt.Errorf("bfperf: ladder row %s: %w", row, rowErr)
		}
		if r.N == 0 {
			return nil, fmt.Errorf("bfperf: ladder row %s ran no iterations", row)
		}
		n := float64(r.N)
		out["ladder."+row+".ns_op"] = float64(r.T.Nanoseconds()) / n
		out["ladder."+row+".b_op"] = float64(r.MemBytes) / n
		out["ladder."+row+".allocs_op"] = float64(r.MemAllocs) / n
	}
	return out, nil
}

// serveRow times one route of the server's ServeHTTP with no socket: one
// request value and one response writer are reused, so the row counts the
// server's own decoding, index call and encoding.
func serveRow(h http.Handler, path string, bodies [][]byte, status int, fail func(error) bool) func(b *testing.B) {
	return func(b *testing.B) {
		body := &reusableBody{}
		req, err := http.NewRequest(http.MethodPost, "http://bfperf"+path, body)
		if fail(err) {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		w := &discardWriter{header: http.Header{}}
		for i := 0; b.Loop(); i++ {
			body.Reset(bodies[i%len(bodies)])
			clear(w.header)
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != status {
				fail(fmt.Errorf("POST %s answered %d, want %d", path, w.status, status))
				return
			}
		}
	}
}

type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

func (w *discardWriter) Flush() {}
