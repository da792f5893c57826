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

// post sends body to path and decodes the JSON answer into out (nil out
// discards it). Non-2xx answers come back as *apiError.
func (c *Client) post(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var wire server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&wire)
		return &apiError{Status: resp.StatusCode, Msg: wire.Error, Capability: wire.Capability}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body) // drain so the connection is reusable
	return nil
}

// Stats fetches the server's GET /stats snapshot.
func (c *Client) Stats() (*server.StatsResponse, error) {
	var st server.StatsResponse
	if err := c.post(http.MethodGet, "/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// point runs one /search probe.
func (c *Client) point(key uint64, first bool) (*index.Result, error) {
	var res server.Result
	err := c.post(http.MethodPost, "/search", server.PointRequest{Key: key, First: first}, &res)
	if err != nil {
		return nil, err
	}
	return &index.Result{Tuples: res.Tuples, Stats: res.Stats}, nil
}

// Search returns every tuple matching key, served remotely.
func (c *Client) Search(key uint64) (*index.Result, error) { return c.point(key, false) }

// SearchFirst is the primary-key early-exit probe, served remotely.
func (c *Client) SearchFirst(key uint64) (*index.Result, error) { return c.point(key, true) }

// RangeScan materializes [lo, hi], served remotely.
func (c *Client) RangeScan(lo, hi uint64) (*index.Result, error) {
	var res server.Result
	err := c.post(http.MethodPost, "/range", server.RangeRequest{Lo: lo, Hi: hi}, &res)
	if err != nil {
		return nil, err
	}
	return &index.Result{Tuples: res.Tuples, Stats: res.Stats}, nil
}

// MultiSearch runs a batched point probe, served remotely.
func (c *Client) MultiSearch(keys []uint64) (*index.Result, error) {
	var res server.Result
	err := c.post(http.MethodPost, "/multi", server.MultiRequest{Keys: keys}, &res)
	if err != nil {
		return nil, err
	}
	return &index.Result{Tuples: res.Tuples, Stats: res.Stats}, nil
}

// ScanLimit streams [lo, hi] with a server-side LIMIT: the server's
// iterator stops after limit tuples, so the pages behind the unsent
// remainder are never read. limit <= 0 streams the whole range.
func (c *Client) ScanLimit(lo, hi uint64, limit int) (index.Iterator, error) {
	buf, err := json.Marshal(server.ScanRequest{Lo: lo, Hi: hi, Limit: limit})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/scan", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var wire server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&wire)
		return nil, &apiError{Status: resp.StatusCode, Msg: wire.Error, Capability: wire.Capability}
	}
	return &scanIterator{body: resp.Body, dec: json.NewDecoder(resp.Body)}, nil
}

// Scan opens a streaming scan over [lo, hi] — the Scanner capability,
// served remotely.
func (c *Client) Scan(lo, hi uint64) (index.Iterator, error) {
	return c.ScanLimit(lo, hi, 0)
}

// Insert adds a key→tuple association, served remotely.
func (c *Client) Insert(key uint64, ref index.Ref) error {
	return c.post(http.MethodPost, "/insert", server.WriteRequest{Key: key, Page: uint64(ref.Page), Slot: ref.Slot}, nil)
}

// Delete removes a key→tuple association, served remotely.
func (c *Client) Delete(key uint64, ref index.Ref) error {
	return c.post(http.MethodPost, "/delete", server.WriteRequest{Key: key, Page: uint64(ref.Page), Slot: ref.Slot}, nil)
}

// Flush forces the server's buffered writes to the device.
func (c *Client) Flush() error {
	return c.post(http.MethodPost, "/flush", nil, nil)
}

// scanIterator adapts one streamed /scan response to index.Iterator.
// Not safe for concurrent use (per the Iterator contract); Close
// mid-stream tears down the HTTP body, which cancels the server's
// iterator on its next write.
type scanIterator struct {
	body   io.ReadCloser
	dec    *json.Decoder
	chunk  [][]byte
	pos    int
	cur    []byte
	stats  index.ProbeStats
	err    error
	done   bool
	closed bool
}

func (it *scanIterator) Next() bool {
	if it.err != nil || it.done || it.closed {
		return false
	}
	for it.pos >= len(it.chunk) {
		var c server.ScanChunk
		if err := it.dec.Decode(&c); err != nil {
			if err == io.EOF {
				// Stream ended without a Done line: the server died
				// mid-scan.
				err = io.ErrUnexpectedEOF
			}
			it.err = err
			return false
		}
		it.stats = c.Stats
		if c.Error != "" {
			it.err = errors.New("server: " + c.Error)
			return false
		}
		if c.Done {
			it.done = true
			it.Close()
			return false
		}
		it.chunk, it.pos = c.Tuples, 0
	}
	it.cur = it.chunk[it.pos]
	it.pos++
	return true
}

func (it *scanIterator) Tuple() []byte           { return it.cur }
func (it *scanIterator) Stats() index.ProbeStats { return it.stats }
func (it *scanIterator) Err() error              { return it.err }

func (it *scanIterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	return it.body.Close()
}
