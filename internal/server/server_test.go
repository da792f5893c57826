package server_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// guardImages fails t, once t and its subtests have run, if any data
// page image of file changed meanwhile. Answers hold read-only views of
// these images, so a change means the handler, the client or the test
// wrote through a view.
func guardImages(t *testing.T, file *heapfile.File) {
	t.Helper()
	sums := func() [][sha256.Size]byte {
		out := make([][sha256.Size]byte, file.NumPages())
		for i := range out {
			img, err := file.Store().ReadPage(file.FirstPage() + device.PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = sha256.Sum256(img)
		}
		return out
	}
	before := sums()
	t.Cleanup(func() {
		for i, sum := range sums() {
			if sum != before[i] {
				t.Errorf("data page %d changed while the test ran: a caller wrote through a tuple view",
					file.FirstPage()+device.PageID(i))
			}
		}
	})
}

// mount builds backend name over file, serves it over a real listener
// with zero Options, as every production mount does, and dials a
// client.
func mount(t testing.TB, name string, file *heapfile.File) (index.Index, *loadgen.Client) {
	t.Helper()
	idxStore := pagestore.New(device.New(device.Memory, 4096))
	ix, err := index.New(name, idxStore, file, 0, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	ts := httptest.NewServer(server.New(ix, server.Options{}))
	t.Cleanup(ts.Close)
	cl, err := loadgen.Dial(ts.URL, loadgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return ix, cl
}

// firstCredit is the credit loadgen's Scan opens with: the tuples the
// server sends before the client grants more.
const firstCredit = 16

// scanLimit reads at most k tuples of a served scan of [lo, hi] and
// closes it, as a LIMIT-k consumer does: Scan, k × Next, Close.
func scanLimit(cl *loadgen.Client, lo, hi uint64, k int) (*index.Result, error) {
	it, err := cl.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	res := &index.Result{}
	for len(res.Tuples) < k && it.Next() {
		res.Tuples = append(res.Tuples, it.Tuple())
	}
	res.Stats = it.Stats()
	err = it.Err()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return res, err
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
// included. The wire adds transport, never semantics. Both sides answer
// with views of the relation's page images, and guardImages fails the
// test if any image changed.
func TestGoldenEquivalence(t *testing.T) {
	const n = 3000 // keys 0,5,...,4995; 3 tuples each
	file, _ := servedRelation(t, n)
	guardImages(t, file)
	maxKey := uint64(n/3-1) * 5

	for _, name := range index.Backends() {
		t.Run(name, func(t *testing.T) {
			ix, cl := mount(t, name, file)

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
				// LIMIT-k: the served scan returns the first k tuples of
				// the direct scan, and the server pulled exactly the
				// first credit's tuples to send them — early-termination
				// pricing preserved over the wire.
				const k = 7
				got, err := scanLimit(cl, 0, maxKey, k)
				if err != nil {
					t.Fatal(err)
				}
				dit, err := ix.Scan(0, maxKey)
				if err != nil {
					t.Fatal(err)
				}
				want := &index.Result{}
				for pulled := 0; pulled < firstCredit && dit.Next(); pulled++ {
					if pulled < k {
						want.Tuples = append(want.Tuples, dit.Tuple())
					}
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

				// A drained credit stream == the materialized range
				// scan, over a range that takes a few grants and over
				// the whole relation, which takes eight.
				for _, r := range [][2]uint64{{100, 300}, {0, maxKey}} {
					it, err := cl.Scan(r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					full, err := index.Drain(it)
					if err != nil {
						t.Fatal(err)
					}
					direct, err := ix.RangeScan(r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, "scan-full", full, direct)
				}
			}

			// Inverted ranges are the caller's fault on both paths.
			if _, err := cl.RangeScan(10, 5); !errors.Is(err, index.ErrInvalidRange) {
				t.Errorf("served inverted range: err %v, want ErrInvalidRange", err)
			}
			if _, err := cl.Scan(10, 5); !errors.Is(err, index.ErrInvalidRange) {
				t.Errorf("served inverted scan: err %v, want ErrInvalidRange", err)
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
			_, cl := mount(t, name, file)
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

			_, serr := scanLimit(cl, 0, 50, 2)
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
	ix, cl := mount(t, "bftree", file)

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

// failAfterWriter is an http.ResponseWriter whose writes fail once ok
// of them have succeeded: a client that goes away mid-stream. It keeps
// what it accepted.
type failAfterWriter struct {
	header http.Header
	ok     int
	got    bytes.Buffer
}

func (w *failAfterWriter) Header() http.Header { return w.header }
func (w *failAfterWriter) WriteHeader(int)     {}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, errors.New("client went away")
	}
	w.ok--
	return w.got.Write(p)
}

// TestAbandonedScanAccounted drives /scan through a writer that fails
// after the first chunk, as a LIMIT-k reader that closes early does.
// The server stops pulling pages, but what its iterator read must still
// reach the served counters: exactly the stats of the same scan pulled
// directly for the two chunks the server assembled.
func TestAbandonedScanAccounted(t *testing.T) {
	const n = 600
	file, _ := servedRelation(t, n)
	ix, err := index.New("bftree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv := server.New(ix, server.Options{})
	body, _ := json.Marshal(server.ScanRequest{Lo: 0, Hi: 5 * n})
	req := httptest.NewRequest(http.MethodPost, "/scan", bytes.NewReader(body))
	w := &failAfterWriter{header: http.Header{}, ok: 1}
	srv.ServeHTTP(w, req)

	// The server pulled the chunk the client took and one more it could
	// not send.
	var first server.ScanChunk
	if err := server.DecodeFrame(w.got.Bytes(), &first); err != nil || first.Done || len(first.Tuples) == 0 {
		t.Fatalf("first chunk %+v (err %v): want a chunk of tuples", first, err)
	}
	pulled := 2 * len(first.Tuples)
	it, err := ix.Scan(0, 5*n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pulled; i++ {
		if !it.Next() {
			t.Fatalf("direct scan ended after %d tuples", i)
		}
	}
	want := it.Stats()
	it.Close()
	got := srv.Served()
	if got.Probe != want {
		t.Errorf("served probe = %+v, want the iterator's %+v", got.Probe, want)
	}
	if want.DataPagesRead == 0 {
		t.Error("the direct scan read no data pages; fixture broken")
	}
	if got.TuplesSent != int64(len(first.Tuples)) {
		t.Errorf("tuples sent = %d, want the %d of the chunk the client took", got.TuplesSent, len(first.Tuples))
	}
}

// TestAbandonedLimitScans runs 50 LIMIT-10 reads (Scan, 10 × Next,
// Close) over ranges of up to 3,000 tuples on one client connection.
// The server must send each scan only its first credit, not the range,
// and every stream must end cleanly enough that the one connection
// serves them all: ConnState sees a single new connection.
func TestAbandonedLimitScans(t *testing.T) {
	const (
		n     = 3000 // keys 0,5,...,4995; 3 tuples each
		scans = 50
		k     = 10
	)
	file, _ := servedRelation(t, n)
	maxKey := uint64(n/3-1) * 5
	ix, err := index.New("bftree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv := server.New(ix, server.Options{})
	ts := httptest.NewUnstartedServer(srv)
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	cl, err := loadgen.Dial(ts.URL, loadgen.Options{Connections: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := uint64(0); i < scans; i++ {
		res, err := scanLimit(cl, i*5, maxKey, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != k {
			t.Fatalf("scan %d: %d tuples, want %d", i, len(res.Tuples), k)
		}
	}
	served := srv.Served()
	if served.TuplesSent < scans*k || served.TuplesSent > scans*firstCredit {
		t.Errorf("tuples sent = %d, want %d..%d: each scan sends at most its first credit",
			served.TuplesSent, scans*k, scans*firstCredit)
	}
	if served.OpenScans != 0 {
		t.Errorf("open scans = %d after every stream ended, want 0", served.OpenScans)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d connections served the scans, want 1", got)
	}
}

// syncBuffer is a bytes.Buffer safe for the server's error log to write
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestIdleCreditStreamBounded opens a credit stream on bptree, takes its
// one tuple of credit and goes idle. bptree serializes writes, so the
// stream holds the read lock an /insert queues on. The mounting
// server's IdleTimeout (50ms) bounds the wait: the stream ends with an
// error frame, the insert completes after the bound, OpenScans returns
// to 0, and the next request is served with no handler panic logged.
// The stream's request body never ended, so nothing the client sends
// after the error frame may be read as a request: a request written
// there goes unanswered.
func TestIdleCreditStreamBounded(t *testing.T) {
	const idle = 50 * time.Millisecond
	file, _ := servedRelation(t, 600)
	ix, err := index.New("bptree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv := server.New(ix, server.Options{})
	var logged syncBuffer
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.IdleTimeout = idle
	ts.Config.ErrorLog = log.New(&logged, "", 0)
	ts.Start()
	defer ts.Close()
	cl, err := loadgen.Dial(ts.URL, loadgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The credit stream, framed by hand so the test controls every byte
	// its connection carries.
	start := time.Now()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first, _ := json.Marshal(server.ScanRequest{Lo: 0, Hi: 5 * 200, Credit: 1})
	first = append(first, '\n')
	fmt.Fprintf(conn, "POST /scan HTTP/1.1\r\nHost: bftree\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n", len(first), first)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("credit scan: %v (err %v)", resp, err)
	}
	frames := bufio.NewReader(resp.Body)
	var chunk server.ScanChunk
	if err := server.ReadFrame(frames, &chunk); err != nil || len(chunk.Tuples) != 1 {
		t.Fatalf("first chunk: %d tuples (err %v), want the 1 credited", len(chunk.Tuples), err)
	}

	inserted := make(chan time.Duration, 1)
	go func() {
		if err := cl.Insert(0, index.Ref{Page: file.PageOf(0)}); err != nil {
			t.Error(err)
		}
		inserted <- time.Since(start)
	}()

	if err := server.ReadFrame(frames, &chunk); err != nil || chunk.Error == "" || chunk.Done {
		t.Fatalf("frame after the idle bound: %+v (err %v), want an error frame", chunk, err)
	}
	fmt.Fprintf(conn, "GET /stats HTTP/1.1\r\nHost: bftree\r\n\r\n")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if rest, _ := io.ReadAll(br); bytes.Contains(rest, []byte("HTTP/1.1")) {
		t.Errorf("a request sent inside the stream's unfinished body was answered:\n%s", rest)
	}
	if got := srv.Served().OpenScans; got != 0 {
		t.Errorf("open scans = %d after the stream ended, want 0", got)
	}
	if took := <-inserted; took < idle {
		t.Errorf("the queued insert completed %v after the scan opened, before the %v bound", took, idle)
	}
	if _, err := cl.Search(0); err != nil {
		t.Errorf("search after the idle stream: %v", err)
	}
	if strings.Contains(logged.String(), "panic") {
		t.Errorf("server logged a panic:\n%s", logged.String())
	}
}

// tuplesOf brute-force scans file for the tuples with key in [lo, hi],
// canonicalized for multiset comparison.
func tuplesOf(t *testing.T, file *heapfile.File, lo, hi uint64) []string {
	t.Helper()
	var out []string
	err := file.Scan(func(_ device.PageID, _ int, tup []byte) bool {
		if k := file.Schema().Get(tup, 0); k >= lo && k <= hi {
			out = append(out, string(tup))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// sortedTuples canonicalizes a probe's tuples for multiset comparison.
func sortedTuples(res *index.Result) []string {
	out := make([]string, len(res.Tuples))
	for i, tup := range res.Tuples {
		out[i] = string(tup)
	}
	sort.Strings(out)
	return out
}

// TestInvalidWriteRefs sends every backend writes whose ref no probe
// could follow: a page past the relation's end, and on a BF-tree a page
// outside the key's leaf, which breaks the relation's key/page order.
// In process each returns ErrInvalidRange, over HTTP each answers 400,
// and afterwards every read of the key, in process and over HTTP, still
// returns its golden tuples.
func TestInvalidWriteRefs(t *testing.T) {
	const n = 6000 // keys 0,5,...,9995; 3 tuples each; 3 BF-leaves
	file, _ := servedRelation(t, n)
	maxKey := uint64(n/3-1) * 5
	end := uint64(file.FirstPage()) + file.NumPages()
	cases := []struct {
		name string
		key  uint64
		page uint64
		// keyOrder marks an association that names a real page but
		// breaks key/page order. Only a BF-tree insert refuses it: the
		// exact backends index refs, not page ranges, and deleting an
		// association nobody inserted is a no-op on every backend.
		keyOrder bool
	}{
		{"far past the end", maxKey, 999999, false},
		{"one past the end", n / 6 * 5, end, false},
		{"first page, tail key", maxKey, uint64(file.FirstPage()), true},
		{"first page, key past the domain", math.MaxUint64, uint64(file.FirstPage()), true},
	}

	for _, name := range index.Backends() {
		b, _ := index.Lookup(name)
		for _, viaHTTP := range []bool{false, true} {
			mode := "direct"
			if viaHTTP {
				mode = "http"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				ix, cl := mount(t, name, file)
				// Over HTTP the client maps a 400, and only a 400, back
				// to ErrInvalidRange.
				ins, del := index.Inserter(cl), index.Deleter(cl)
				if !viaHTTP {
					ins = ix
					del, _ = ix.(index.Deleter)
				}
				if !cl.Caps().Delete {
					del = nil
				}
				for _, c := range cases {
					ref := index.Ref{Page: device.PageID(c.page)}
					writes := map[string]error{"insert": ins.Insert(c.key, ref)}
					if del != nil {
						writes["delete"] = del.Delete(c.key, ref)
					}
					for op, err := range writes {
						if c.keyOrder && !(b.Approximate && op == "insert") {
							if err != nil {
								t.Errorf("%s %s (key %d, page %d): %v, want accepted", op, c.name, c.key, c.page, err)
							}
						} else if !errors.Is(err, index.ErrInvalidRange) {
							t.Errorf("%s %s (key %d, page %d): %v, want ErrInvalidRange", op, c.name, c.key, c.page, err)
						}
					}
				}

				for _, c := range cases {
					want := tuplesOf(t, file, c.key, c.key)
					reads := map[string]func() (*index.Result, error){
						"search": func() (*index.Result, error) { return cl.Search(c.key) },
						"multi":  func() (*index.Result, error) { return cl.MultiSearch([]uint64{c.key}) },
						"range":  func() (*index.Result, error) { return cl.RangeScan(c.key, c.key) },
						"direct": func() (*index.Result, error) { return ix.RangeScan(c.key, c.key) },
					}
					for op, read := range reads {
						res, err := read()
						if err != nil {
							t.Fatalf("%s of key %d after %s: %v", op, c.key, c.name, err)
						}
						if got := sortedTuples(res); !slices.Equal(got, want) {
							t.Errorf("%s of key %d after %s: %d tuples, want %d", op, c.key, c.name, len(got), len(want))
						}
					}
					first, err := cl.SearchFirst(c.key)
					if err != nil {
						t.Fatalf("first-match search of key %d after %s: %v", c.key, c.name, err)
					}
					if len(first.Tuples) > len(want) || (len(want) > 0 && len(first.Tuples) == 0) {
						t.Errorf("first-match search of key %d: %d tuples, want 1..%d", c.key, len(first.Tuples), len(want))
					}
				}
			})
		}
	}
}

// countingIndex counts the MultiSearch calls that reach the index.
type countingIndex struct {
	index.Index
	multis atomic.Int64
}

func (c *countingIndex) MultiSearch(keys []uint64) (*index.Result, error) {
	c.multis.Add(1)
	return c.Index.MultiSearch(keys)
}

// TestBodyBound: a request body over the server's 1 MiB bound, and a
// /multi batch of more than 1,024 keys in a body far under it, are each
// answered 413 with an ErrorResponse and counted as an error, the batch
// before the index is called; a 1,024-key /multi, the largest batch the
// server takes and far above any real one, is answered 200; and the
// server keeps serving after the refusals.
func TestBodyBound(t *testing.T) {
	const n = 3000
	file, _ := servedRelation(t, n)
	inner, err := index.New("bftree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	ix := &countingIndex{Index: inner}
	srv := server.New(ix, server.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(route string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s of %d bytes: %v", route, len(body), err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.Bytes()
	}
	refused := func(what string, status int, body []byte, errors int64) {
		t.Helper()
		var refusal server.ErrorResponse
		if status != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &refusal) != nil || refusal.Error == "" {
			t.Errorf("%s: status %d, body %.80q; want 413 with an ErrorResponse", what, status, body)
		}
		if got := srv.Served().Errors; got != errors {
			t.Errorf("served errors = %d after the %s, want %d", got, what, errors)
		}
	}

	huge := append([]byte(`{"keys":[`), bytes.Repeat([]byte("5,"), 1<<20)...)
	huge = append(huge, "5]}"...)
	status, body := post("/multi", huge)
	refused("2 MiB /multi", status, body, 1)

	keys := make([]uint64, 1025)
	for i := range keys {
		keys[i] = uint64(i) * 5
	}
	over, _ := json.Marshal(server.MultiRequest{Keys: keys})
	status, body = post("/multi", over)
	refused("1025-key /multi", status, body, 2)
	if got := ix.multis.Load(); got != 0 {
		t.Errorf("the refused batches reached the index: %d MultiSearch calls", got)
	}

	keys = keys[:1024]
	big, _ := json.Marshal(server.MultiRequest{Keys: keys})
	status, body = post("/multi", big)
	res, err := server.ReadResult(bytes.NewReader(body))
	if status != http.StatusOK || err != nil {
		t.Fatalf("1024-key /multi: status %d, body %.80q (%v); want 200 and one tuples frame", status, body, err)
	}
	want, err := inner.MultiSearch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(want.Tuples) || len(res.Tuples) != n {
		t.Errorf("1024-key /multi: %d tuples, direct %d, relation %d", len(res.Tuples), len(want.Tuples), n)
	}

	point, _ := json.Marshal(server.PointRequest{Key: 10})
	if status, body := post("/search", point); status != http.StatusOK {
		t.Errorf("/search after the refusals: status %d, body %.80q", status, body)
	}
	if got := srv.Served().Errors; got != 2 {
		t.Errorf("served errors = %d at the end, want 2", got)
	}
}

// TestTrailingBytes: a request body holds one JSON value. Anything after
// it but whitespace, garbage or a second value, is answered 400 and
// counted as an error; trailing whitespace is served.
func TestTrailingBytes(t *testing.T) {
	file, _ := servedRelation(t, 300)
	ix, err := index.New("bftree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv := server.New(ix, server.Options{})
	page := strconv.FormatUint(uint64(file.PageOf(250)), 10)
	refused := 0
	for _, c := range []struct {
		path, body string
		status     int
	}{
		{"/search", `{"key":250,"first":true} garbage`, http.StatusBadRequest},
		{"/search", `{"key":250}{"key":5}`, http.StatusBadRequest},
		{"/search", `{"key":250,"first":true}` + " \r\n\t", http.StatusOK},
		{"/range", `{"lo":0,"hi":10}7`, http.StatusBadRequest},
		{"/multi", `{"keys":[0,5]}[1,2,3]`, http.StatusBadRequest},
		{"/multi", `{"keys":[0,5]}` + "\n", http.StatusOK},
		{"/insert", `{"key":250,"page":` + page + `}]`, http.StatusBadRequest},
		{"/delete", `{"key":250,"page":` + page + `} "x"`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Errorf("%s %q: status %d, want %d", c.path, c.body, rec.Code, c.status)
		}
		if c.status != http.StatusOK {
			refused++
		}
	}
	if got := srv.Served().Errors; got != int64(refused) {
		t.Errorf("served errors = %d, want %d", got, refused)
	}
}
