// Package loadgen is the client half of the serving layer: an HTTP
// client for the server package's wire protocol that re-exposes the
// index capability surface — Search/SearchFirst/RangeScan plus the
// Scanner, MultiSearcher, Inserter, Deleter and Flusher capability
// methods — so the bench driver can run a workload.Mix over real
// connections exactly as it runs one over an in-process index.
//
// One Client is safe for concurrent use by many workers; the underlying
// http.Transport pools one connection per concurrent request up to
// Options.Connections. Every request is sent once: the server accepts
// each valid write whatever the drift, so a write error is the
// answer, never a signal to retry.
//
// Capability note: the Go type implements every capability method, so
// index.Capabilities(client) reports everything as supported. What the
// *server* supports is what matters, and Dial learns that from GET
// /stats — callers fold their mix with WorkloadCaps() before driving
// (see bench's serve-load experiment).
package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"bftree/index"
	"bftree/internal/server"
	"bftree/internal/workload"
)

// Options configures a Client.
type Options struct {
	// Connections sizes the transport's idle pool. Set it to the
	// driver's worker count so every concurrent worker keeps its own
	// connection instead of churning through dials. 0 selects 2.
	Connections int
}

// Client speaks the serving layer's wire protocol. Zero value is not
// usable; construct with Dial.
type Client struct {
	base string
	hc   *http.Client

	backend string
	caps    index.CapSet
}

// Dial builds a Client for the server at base (e.g.
// "http://127.0.0.1:8080") and learns the mounted backend's name and
// capability surface from GET /stats.
func Dial(base string, opts Options) (*Client, error) {
	if opts.Connections <= 0 {
		opts.Connections = 2
	}
	tr := &http.Transport{
		MaxIdleConns:        opts.Connections,
		MaxIdleConnsPerHost: opts.Connections,
	}
	c := &Client{
		base: base,
		hc:   &http.Client{Transport: tr},
	}
	st, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial %s: %w", base, err)
	}
	c.backend = st.Backend
	c.caps = st.Caps
	return c, nil
}

// Backend returns the server-reported backend name.
func (c *Client) Backend() string { return c.backend }

// Caps returns the server-reported capability surface — the authority
// on what this client may call (the client type itself always has
// every method).
func (c *Client) Caps() index.CapSet { return c.caps }

// WorkloadCaps converts the server-reported CapSet to the workload
// engine's redistribution shape. Fold your mix with this before
// driving the client.
func (c *Client) WorkloadCaps() workload.Caps {
	return workload.Caps{Delete: c.caps.Delete}
}

// Close releases pooled connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// apiError is a non-2xx answer, carrying enough of the wire
// ErrorResponse to map back onto the index package's sentinel errors.
type apiError struct {
	Status     int
	Msg        string
	Capability string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server: %d %s", e.Status, e.Msg)
}

// Unwrap maps protocol statuses onto the index sentinels so callers
// keep their errors.Is checks: 405 is a capability gap
// (ErrUnsupported), 400 a range or write the backend rejected
// (ErrInvalidRange).
func (e *apiError) Unwrap() error {
	switch e.Status {
	case http.StatusMethodNotAllowed:
		return index.ErrUnsupported
	case http.StatusBadRequest:
		return index.ErrInvalidRange
	}
	return nil
}

// do sends body (nil: none) to path and returns the response to a 2xx
// answer, whose body the caller reads to its end, so the connection is
// reusable, and closes. A non-2xx answer comes back as *apiError.
func (c *Client) do(method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		return nil, refusal(resp)
	}
	return resp, nil
}

// post sends body to path and discards the 2xx answer.
func (c *Client) post(path string, body any) error {
	resp, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) // drain so the connection is reusable
	return nil
}

// refusal reads a non-2xx answer's ErrorResponse into an *apiError.
func refusal(resp *http.Response) error {
	var wire server.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&wire)
	return &apiError{Status: resp.StatusCode, Msg: wire.Error, Capability: wire.Capability}
}

// Stats fetches the server's GET /stats snapshot.
func (c *Client) Stats() (*server.StatsResponse, error) {
	resp, err := c.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// probe sends a read request to path and reads its tuple answer: one
// frame, into one buffer of the frame's size.
func (c *Client) probe(path string, req any) (*index.Result, error) {
	resp, err := c.do(http.MethodPost, path, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	res, err := server.ReadResult(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return res, nil
}

// Search returns every tuple matching key, served remotely.
func (c *Client) Search(key uint64) (*index.Result, error) {
	return c.probe("/search", server.PointRequest{Key: key})
}

// SearchFirst is the primary-key early-exit probe, served remotely.
func (c *Client) SearchFirst(key uint64) (*index.Result, error) {
	return c.probe("/search", server.PointRequest{Key: key, First: true})
}

// RangeScan materializes [lo, hi], served remotely.
func (c *Client) RangeScan(lo, hi uint64) (*index.Result, error) {
	return c.probe("/range", server.RangeRequest{Lo: lo, Hi: hi})
}

// MultiSearch runs a batched point probe, served remotely.
func (c *Client) MultiSearch(keys []uint64) (*index.Result, error) {
	return c.probe("/multi", server.MultiRequest{Keys: keys})
}

// firstCredit is the tuple credit a scan opens with: one round trip
// serves a LIMIT-10 page.
const firstCredit = 16

// Scan opens a streaming scan over [lo, hi] — the Scanner capability,
// served remotely. It is a credit stream (see server.ScanRequest): the
// request asks for firstCredit tuples and its body stays open, and the
// iterator grants double the last grant whenever it has received every
// tuple granted so far and is asked for another. So a consumer that
// stops after k tuples makes the server read only the pages behind the
// tuples granted: firstCredit of them, or fewer than 2k + firstCredit.
func (c *Client) Scan(lo, hi uint64) (index.Iterator, error) {
	first, err := json.Marshal(server.ScanRequest{Lo: lo, Hi: hi, Credit: firstCredit})
	if err != nil {
		return nil, err
	}
	first = append(first, '\n')
	pr, pw := io.Pipe()
	// The transport closes the body when the request fails, which
	// unblocks a grant written into the pipe.
	body := struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(first), pr), pr}
	req, err := http.NewRequest(http.MethodPost, c.base+"/scan", body)
	if err != nil {
		return nil, err
	}
	req.ContentLength = -1 // chunked: the transport flushes each grant
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	it := newScanIterator(pw, resp.Body)
	if resp.StatusCode != http.StatusOK {
		err := refusal(resp)
		it.Close()
		return nil, err
	}
	return it, nil
}

// Insert adds a key→tuple association, served remotely.
func (c *Client) Insert(key uint64, ref index.Ref) error {
	return c.post("/insert", server.WriteRequest{Key: key, Page: uint64(ref.Page), Slot: ref.Slot})
}

// Delete removes a key→tuple association, served remotely.
func (c *Client) Delete(key uint64, ref index.Ref) error {
	return c.post("/delete", server.WriteRequest{Key: key, Page: uint64(ref.Page), Slot: ref.Slot})
}

// Flush forces the server's buffered writes to the device.
func (c *Client) Flush() error {
	return c.post("/flush", nil)
}

// scanIterator adapts one credit stream of /scan to index.Iterator. Not
// safe for concurrent use (per the Iterator contract).
type scanIterator struct {
	grants io.WriteCloser // the request body: one grant per line
	body   io.ReadCloser  // the response
	rd     *bufio.Reader  // over body
	grant  int            // the last grant
	owed   int            // tuples granted and not yet received

	chunk  [][]byte
	pos    int
	cur    []byte
	stats  index.ProbeStats
	err    error
	done   bool
	closed bool
}

// newScanIterator reads the response body of a credit stream whose
// request body is grants, opened with firstCredit.
func newScanIterator(grants io.WriteCloser, body io.ReadCloser) *scanIterator {
	return &scanIterator{grants: grants, body: body, rd: bufio.NewReader(body), grant: firstCredit, owed: firstCredit}
}

func (it *scanIterator) Next() bool {
	if it.err != nil || it.done || it.closed {
		return false
	}
	for it.pos >= len(it.chunk) {
		if it.owed == 0 {
			// Everything granted has arrived, and the server waits for
			// more credit before it reads another page.
			it.grant *= 2
			if _, err := fmt.Fprintf(it.grants, "%d\n", it.grant); err != nil {
				it.err = err
				return false
			}
			it.owed = it.grant
		}
		var c server.ScanChunk
		if err := server.ReadFrame(it.rd, &c); err != nil {
			if err == io.EOF {
				// The stream ended before its done frame: the server
				// died mid-scan.
				err = io.ErrUnexpectedEOF
			}
			it.err = fmt.Errorf("loadgen: /scan: %w", err)
			return false
		}
		it.stats = c.Stats
		if c.Error != "" {
			it.err = errors.New("server: " + c.Error)
			return false
		}
		if c.Done {
			it.done = true
			it.err = it.Close()
			return false
		}
		it.chunk, it.pos = c.Tuples, 0
		it.owed -= len(c.Tuples)
	}
	it.cur = it.chunk[it.pos]
	it.pos++
	return true
}

func (it *scanIterator) Tuple() []byte           { return it.cur }
func (it *scanIterator) Stats() index.ProbeStats { return it.stats }
func (it *scanIterator) Err() error              { return it.err }

// Close ends the request body, which tells the server the client is
// done, and reads the response to its end: the server sends at most the
// tuples still granted and then the done frame, and a response read to
// its end returns the connection to the pool.
func (it *scanIterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.grants.Close()
	_, err := io.Copy(io.Discard, it.body)
	if cerr := it.body.Close(); err == nil {
		err = cerr
	}
	return err
}
