// Package server is the serving layer of DESIGN.md §9: an HTTP index
// server that mounts any backend registered with the index package and
// exposes its full capability surface over a JSON body protocol —
// stdlib only, matching the repo's zero-dependency go.mod.
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
	"net/http"
	"sync/atomic"

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

// scanChunk is the tuple count per streamed /scan NDJSON line.
const scanChunk = 64

// maxBodyBytes bounds a request body. The largest body a caller sends
// is a 16-key /multi of a few hundred bytes; a larger body is answered
// 413 before it is read past the bound.
const maxBodyBytes = 1 << 20

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
// On failure it answers 413 for a body over the bound and 400 for any
// other bad body, and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
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

// result sends a probe outcome and folds its cost into the served
// accounting.
func (s *Server) result(w http.ResponseWriter, res *index.Result) {
	s.recordProbe(res.Stats, len(res.Tuples))
	s.writeJSON(w, http.StatusOK, Result{Tuples: res.Tuples, Stats: res.Stats})
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
	s.readLock()
	res, err := s.ix.MultiSearch(req.Keys)
	s.readUnlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.result(w, res)
}

// handleScan streams a range scan as NDJSON ScanChunk lines: cumulative
// stats per chunk, a Done line to close, an Error line on mid-stream
// failure (the HTTP status is already committed by then — streaming
// protocols carry their errors in-band). A Limit > 0 stops the
// iterator after exactly that many tuples, so a LIMIT-k client pays
// only the pages behind those k tuples — the Scanner early-termination
// contract, preserved over the wire.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	if !s.decode(w, r, &req) {
		return
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
	// went away, as every LIMIT-k reader that closes early does — the
	// pages the iterator read were read: account them.
	defer func() { s.recordProbe(it.Stats(), 0) }()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(c ScanChunk) bool {
		if err := enc.Encode(c); err != nil {
			return false // client went away; stop pulling pages
		}
		s.tuplesSent.Add(int64(len(c.Tuples)))
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	var chunk [][]byte
	sent := 0
	for (req.Limit <= 0 || sent < req.Limit) && it.Next() {
		chunk = append(chunk, it.Tuple())
		sent++
		if len(chunk) >= scanChunk {
			if !emit(ScanChunk{Tuples: chunk, Stats: it.Stats()}) {
				return
			}
			chunk = nil
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
