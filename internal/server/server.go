// Package server is the serving layer of DESIGN.md §9: an HTTP index
// server that mounts any backend registered with the index package and
// exposes its full capability surface over HTTP — JSON requests, tuple
// answers in the binary frames of wire.go — stdlib only, matching the
// repo's zero-dependency go.mod.
//
// Routes follow the capability matrix: the mandatory Index surface
// (point lookup, materialized range scan, streamed scan, batched probe,
// insert) is always served; the optional delete and flush capabilities
// are discovered via index.Capabilities at mount time and answered
// with 405 naming the missing capability when the backend lacks it.
// GET /stats reports the mount — backend name, CapSet, index shape,
// served-probe accounting, and the maintenance snapshot — which is also
// how clients learn what they may call.
//
// Nothing about the mount is configured: the backend's registry entry
// decides whether writes run exclusive of every other request
// (index.Serializer), and a BF-tree's drift is bounded by its own
// background maintainer, so every valid write is accepted at any drift.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bftree/index"
)

// Options configures nothing: the server works out all it needs from
// the mounted index, and New reads none of these fields. Pass
// Options{}.
type Options struct {
	// Deprecated: ignored. Drift never refuses a write; the mounted
	// backend's maintainer bounds it.
	BackpressureFraction float64
	// Deprecated: ignored. Writes are serialized exactly when the
	// mounted backend's registry entry lacks ConcurrentWriters (see
	// index.Serializer).
	SerializeWrites bool
}

// scanChunk is the tuple count per streamed /scan tuples frame.
const scanChunk = 64

// maxBodyBytes bounds a request body. The largest body a caller sends
// is a 16-key /multi of a few hundred bytes; a larger body is answered
// 413 before it is read past the bound.
const maxBodyBytes = 1 << 20

// maxMultiKeys bounds a /multi batch: twice the largest batch any
// caller in this repository sends (512, the batched-probe sweep, which
// runs in process) and 64 times the OLTP batch. A larger batch is
// answered 413 before the index sees it.
const maxMultiKeys = 1024

// Server mounts one index.Index behind the HTTP protocol of wire.go.
// It is an http.Handler; run it under any http.Server.
type Server struct {
	ix      index.Index
	backend string
	caps    index.CapSet
	mux     *http.ServeMux

	// The index.Serializer pairs: real RWMutex halves for a backend
	// without ConcurrentWriters, no-ops otherwise.
	readLock, readUnlock   func()
	writeLock, writeUnlock func()

	// served accounting, accumulated with atomics on the request path.
	requests, errCount, tuplesSent  atomic.Int64
	indexReads, bfProbes, candPages atomic.Int64
	dataPages, falseReads           atomic.Int64
	openScans                       atomic.Int64
}

// New mounts ix behind a Server. The capability surface and the write
// serialization are worked out once here — backends do not grow or
// lose capabilities after build. opts is ignored (see Options).
func New(ix index.Index, opts Options) *Server {
	s := &Server{
		ix:      ix,
		backend: ix.Stats().Backend,
		caps:    index.Capabilities(ix),
		mux:     http.NewServeMux(),
	}
	s.readLock, s.readUnlock, s.writeLock, s.writeUnlock = index.Serializer(ix)

	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("POST /range", s.handleRange)
	s.mux.HandleFunc("POST /multi", s.handleMulti)
	s.mux.HandleFunc("POST /scan", s.handleScan)
	s.mux.HandleFunc("POST /insert", s.handleInsert)
	s.mux.HandleFunc("POST /delete", s.handleDelete)
	s.mux.HandleFunc("POST /flush", s.handleFlush)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// Backend returns the mounted backend's registered name.
func (s *Server) Backend() string { return s.backend }

// Caps returns the mounted backend's discovered capability surface.
func (s *Server) Caps() index.CapSet { return s.caps }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Served snapshots the server-side accounting.
func (s *Server) Served() ServedStats {
	return ServedStats{
		Requests:   s.requests.Load(),
		Errors:     s.errCount.Load(),
		TuplesSent: s.tuplesSent.Load(),
		OpenScans:  s.openScans.Load(),
		Probe: index.ProbeStats{
			IndexReads:     int(s.indexReads.Load()),
			BFProbes:       int(s.bfProbes.Load()),
			CandidatePages: int(s.candPages.Load()),
			DataPagesRead:  int(s.dataPages.Load()),
			FalseReads:     int(s.falseReads.Load()),
		},
	}
}

// recordProbe folds one served probe's cost into the totals.
func (s *Server) recordProbe(st index.ProbeStats, tuples int) {
	s.indexReads.Add(int64(st.IndexReads))
	s.bfProbes.Add(int64(st.BFProbes))
	s.candPages.Add(int64(st.CandidatePages))
	s.dataPages.Add(int64(st.DataPagesRead))
	s.falseReads.Add(int64(st.FalseReads))
	s.tuplesSent.Add(int64(tuples))
}

// writeJSON sends v with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail maps an index error onto the protocol: ErrInvalidRange (an
// inverted range, or a write whose page lies outside the relation or
// breaks its key/page order) is the caller's fault (400),
// ErrUnsupported means a capability gap (405), anything else is the
// server's (500).
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errCount.Add(1)
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, index.ErrInvalidRange):
		status = http.StatusBadRequest
	case errors.Is(err, index.ErrUnsupported):
		status = http.StatusMethodNotAllowed
	}
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// unsupported answers a request for a capability the mounted backend
// does not implement: 405 naming the capability, so clients can map the
// refusal back to the CapSet field without parsing prose.
func (s *Server) unsupported(w http.ResponseWriter, capability string) {
	s.errCount.Add(1)
	s.writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{
		Error:      fmt.Sprintf("backend %q lacks the %s capability", s.backend, capability),
		Capability: capability,
	})
}

// decode parses the JSON request body, read up to maxBodyBytes, into v.
// The body holds that one value and nothing after it but whitespace.
// On failure it answers 413 for a body over the bound and 400 for any
// other bad body, and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("a second value after the request")
		} else if err == io.EOF {
			err = nil
		}
	}
	return s.decoded(w, err)
}

// decoded answers the outcome of decoding a request body: for a non-nil
// err, 413 when the body passed maxBodyBytes and 400 otherwise. It
// reports whether err is nil.
func (s *Server) decoded(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	s.errCount.Add(1)
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeJSON(w, status, ErrorResponse{Error: "bad request body: " + err.Error()})
	return false
}

// result sends a probe outcome as one tuples frame, built at its size
// and written once with its Content-Length, and folds its cost into the
// served accounting.
func (s *Server) result(w http.ResponseWriter, res *index.Result) {
	s.recordProbe(res.Stats, len(res.Tuples))
	frame := AppendFrame(nil, ScanChunk{Tuples: res.Tuples, Stats: res.Stats})
	h := w.Header()
	h.Set("Content-Type", frameType)
	h.Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame) // a client that went away has nothing to be told
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req PointRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.readLock()
	var res *index.Result
	var err error
	if req.First {
		res, err = s.ix.SearchFirst(req.Key)
	} else {
		res, err = s.ix.Search(req.Key)
	}
	s.readUnlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.result(w, res)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req RangeRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.readLock()
	res, err := s.ix.RangeScan(req.Lo, req.Hi)
	s.readUnlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.result(w, res)
}

func (s *Server) handleMulti(w http.ResponseWriter, r *http.Request) {
	var req MultiRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Keys) > maxMultiKeys {
		s.errCount.Add(1)
		s.writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error: fmt.Sprintf("a batch of %d keys is over the bound of %d", len(req.Keys), maxMultiKeys),
		})
		return
	}
	s.readLock()
	res, err := s.ix.MultiSearch(req.Keys)
	s.readUnlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.result(w, res)
}

// handleScan streams a range scan as frames: tuples frames with
// cumulative stats, a done frame to close, an error frame on mid-stream
// failure (the HTTP status is already committed by then — streaming
// protocols carry their errors in-band).
//
// One loop serves both kinds of ScanRequest. A one-shot request has
// unlimited credit. A credit request is full duplex: the loop pulls a
// tuple from the iterator only against credit, and when the credit runs
// out it flushes the partial chunk and reads the client's next grant
// from the request body, ending with the done frame at the body's EOF.
// So a LIMIT-k client pays only for the pages behind the tuples it was
// granted — the Scanner early-termination contract, preserved over the
// wire. Limit > 0 caps the total either way.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	s.openScans.Add(1)
	defer s.openScans.Add(-1)
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	var req ScanRequest
	err := dec.Decode(&req)
	if err == nil && req.Credit < 0 {
		err = fmt.Errorf("negative credit %d", req.Credit)
	}
	if !s.decoded(w, err) {
		return
	}
	credit := math.MaxInt
	var grants *credits
	if req.Credit > 0 {
		credit = req.Credit
		grants = newCredits(w, r, body, dec)
		defer grants.finish()
	}

	s.readLock()
	defer s.readUnlock()
	it, err := s.ix.Scan(req.Lo, req.Hi)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer it.Close()
	// However the stream ends — Done, an iterator error, or a client that
	// went away — the pages the iterator read were read: account them.
	defer func() { s.recordProbe(it.Stats(), 0) }()

	w.Header().Set("Content-Type", frameType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Each frame is built in buf and sent with one Write and a flush.
	var buf []byte
	emit := func(c ScanChunk) bool {
		buf = AppendFrame(buf[:0], c)
		if _, err := w.Write(buf); err != nil {
			return false // client went away; stop pulling pages
		}
		s.tuplesSent.Add(int64(len(c.Tuples)))
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	var chunk [][]byte
	for sent := 0; req.Limit <= 0 || sent < req.Limit; {
		if credit == 0 {
			if len(chunk) > 0 {
				if !emit(ScanChunk{Tuples: chunk, Stats: it.Stats()}) {
					return
				}
				chunk = chunk[:0]
			}
			n, err := grants.next()
			if err == io.EOF {
				break // the client is done
			}
			if err != nil {
				s.errCount.Add(1)
				emit(ScanChunk{Stats: it.Stats(), Error: "credit: " + err.Error()})
				return
			}
			credit = n
			continue
		}
		if !it.Next() {
			break
		}
		chunk = append(chunk, it.Tuple())
		sent++
		credit--
		if len(chunk) >= scanChunk {
			if !emit(ScanChunk{Tuples: chunk, Stats: it.Stats()}) {
				return
			}
			chunk = chunk[:0]
		}
	}
	if err := it.Err(); err != nil {
		s.errCount.Add(1)
		emit(ScanChunk{Stats: it.Stats(), Error: err.Error()})
		return
	}
	if len(chunk) > 0 && !emit(ScanChunk{Tuples: chunk, Stats: it.Stats()}) {
		return
	}
	emit(ScanChunk{Stats: it.Stats(), Done: true})
}

// credits reads a credit request's further grants from its body, which
// stays open while the response streams.
type credits struct {
	rc   *http.ResponseController
	body io.Reader     // the bounded request body, for the final drain
	dec  *json.Decoder // over body; holds what it read past the request
	idle time.Duration // bound on each wait for the client; 0: none
	eof  bool
}

// newCredits switches the response to full duplex, so the handler can
// read the body while it writes. HTTP/2 is full duplex already and a
// test recorder holds the whole body, so http.ErrNotSupported is no
// reason to refuse the request.
//
// A credit stream waiting for its client holds an index iterator (a
// BF-tree reader registration, which delays limbo reclamation) and, on a
// backend without ConcurrentWriters, the read half of the lock that
// writers queue on. So each wait is bounded by the mounting http.Server's
// IdleTimeout, or its ReadTimeout when that is zero, the bound net/http
// itself puts on an idle connection; with both zero a wait is unbounded.
func newCredits(w http.ResponseWriter, r *http.Request, body io.Reader, dec *json.Decoder) *credits {
	c := &credits{rc: http.NewResponseController(w), body: body, dec: dec}
	_ = c.rc.EnableFullDuplex()
	if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		c.idle = hs.IdleTimeout
		if c.idle == 0 {
			c.idle = hs.ReadTimeout
		}
	}
	return c
}

// bound starts the idle bound on the next read of the body. A writer
// with no deadlines (a test recorder) leaves the read unbounded.
func (c *credits) bound() {
	if c.idle > 0 {
		_ = c.rc.SetReadDeadline(time.Now().Add(c.idle))
	}
}

// next waits for the client's next grant. io.EOF means the body ended
// cleanly: the client is done.
func (c *credits) next() (int, error) {
	c.bound()
	var n int
	err := c.dec.Decode(&n)
	switch {
	case err == io.EOF:
		c.eof = true
	case err == nil && n < 0:
		err = fmt.Errorf("negative credit %d", n)
	}
	return n, err
}

// finish reads the request body to EOF before the handler returns, as
// net/http's HTTP/1 server needs of a full-duplex handler: a body left
// unread makes the server read it after the handler, which starts a
// background read that the connection's next request then collides
// with ("invalid concurrent Body.Read call"). The response is flushed
// first, so a client waiting for it sees the answer and closes the body.
// If the body does not reach EOF (the idle bound passed, or the client
// sent more than maxBodyBytes), its unread bytes must never be parsed
// as a request: the response's final write is made to fail, which
// closes the connection.
func (c *credits) finish() {
	if c.eof {
		return
	}
	_ = c.rc.Flush()
	c.bound()
	if _, err := io.Copy(io.Discard, c.body); err != nil {
		_ = c.rc.SetWriteDeadline(time.Unix(1, 0))
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req WriteRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.writeLock()
	err := s.ix.Insert(req.Key, req.Ref())
	s.writeUnlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.caps.Delete {
		s.unsupported(w, "Delete")
		return
	}
	var req WriteRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.writeLock()
	err := s.ix.(index.Deleter).Delete(req.Key, req.Ref())
	s.writeUnlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if !s.caps.Flush {
		s.unsupported(w, "Flush")
		return
	}
	s.writeLock()
	err := s.ix.(index.Flusher).Flush()
	s.writeUnlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.readLock()
	resp := StatsResponse{
		Backend: s.backend,
		Caps:    s.caps,
		Index:   s.ix.Stats(),
		Served:  s.Served(),
	}
	if m, ok := s.ix.(index.Maintainer); ok {
		ms := m.MaintenanceStats()
		resp.Maintenance = &ms
	}
	s.readUnlock()
	s.writeJSON(w, http.StatusOK, resp)
}
