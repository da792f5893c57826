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
// The server turns the maintenance layer's drift accounting into flow
// control: when a mounted Maintainer's live drift estimate
// (Stats().EffectiveFPP, which writers update continuously) approaches
// its Equation-14 compaction threshold, writes are rejected
// with 429 + Retry-After at a probability that ramps from 0 at
// BackpressureFraction×threshold to 1 at the threshold itself. The ramp
// matters: rejecting every write below the threshold would freeze the
// drift just under the compaction point and the maintainer would never
// fire — a permanent write outage. Probabilistic admission always lets
// some writes through, so drift still reaches the threshold, compaction
// runs, the published drift drops, and admission reopens.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bftree/index"
)

// Options configures a Server.
type Options struct {
	// BackpressureFraction positions the admission ramp: writes start
	// being rejected once drift exceeds fraction×threshold, and are
	// always rejected at the threshold. 0 selects 0.9; a value >= 1
	// disables backpressure entirely. Ignored when the mounted backend
	// is not a Maintainer or its policy disables drift compaction
	// (threshold 0 or >= 1).
	BackpressureFraction float64
	// RetryAfter is the pause a 429 asks rejected writers to take,
	// carried at millisecond precision in X-Retry-After-Ms (the
	// standard Retry-After header rounds up to whole seconds). 0
	// selects 50ms.
	RetryAfter time.Duration
	// SerializeWrites serializes capability writes behind an RWMutex
	// (reads proceed shared) — the serving mode for backends without
	// the ConcurrentWriters registry trait, which are read-safe only
	// while no writer runs. Mount-time wiring (cmd/bfserve, the bench
	// experiment) sets it from the registry trait.
	SerializeWrites bool
	// ScanChunk is the tuple count per streamed /scan NDJSON line;
	// 0 selects 64.
	ScanChunk int
}

const (
	defaultBackpressureFraction = 0.9
	defaultRetryAfter           = 50 * time.Millisecond
	defaultScanChunk            = 64
)

// Server mounts one index.Index behind the HTTP protocol of wire.go.
// It is an http.Handler; run it under any http.Server.
type Server struct {
	ix      index.Index
	backend string
	caps    index.CapSet
	opts    Options
	mux     *http.ServeMux

	// threshold is the mounted Maintainer's Equation-14 compaction
	// threshold, cached at mount (the policy never changes after
	// build); 0 when the backend has no maintainer. The admission gate
	// compares the *live* drift estimate (Stats().EffectiveFPP, which
	// writers update continuously) against it — the pass-published
	// MaintenanceStats().EffectiveFPP is post-compaction and would
	// always read as healthy.
	threshold float64

	// writeMu implements Options.SerializeWrites; the zero-overhead
	// no-op pairs are installed when serialization is off.
	writeMu                sync.RWMutex
	readLock, readUnlock   func()
	writeLock, writeUnlock func()

	// served accounting, accumulated with atomics on the request path.
	requests, errCount, rejected, tuplesSent atomic.Int64
	indexReads, bfProbes, candPages          atomic.Int64
	dataPages, falseReads                    atomic.Int64

	// admitRand draws the admission coin; replaced in tests.
	admitRand func() float64
}

// New mounts ix behind a Server. The capability surface is discovered
// once here — backends do not grow or lose capabilities after build.
func New(ix index.Index, opts Options) *Server {
	if opts.BackpressureFraction == 0 {
		opts.BackpressureFraction = defaultBackpressureFraction
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = defaultRetryAfter
	}
	if opts.ScanChunk <= 0 {
		opts.ScanChunk = defaultScanChunk
	}
	s := &Server{
		ix:        ix,
		backend:   ix.Stats().Backend,
		caps:      index.Capabilities(ix),
		opts:      opts,
		mux:       http.NewServeMux(),
		admitRand: rand.Float64,
	}
	if m, ok := ix.(index.Maintainer); ok {
		s.threshold = m.MaintenanceStats().FPPThreshold
	}
	nop := func() {}
	s.readLock, s.readUnlock, s.writeLock, s.writeUnlock = nop, nop, nop, nop
	if opts.SerializeWrites {
		s.readLock, s.readUnlock = s.writeMu.RLock, s.writeMu.RUnlock
		s.writeLock, s.writeUnlock = s.writeMu.Lock, s.writeMu.Unlock
	}

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
		Rejected:   s.rejected.Load(),
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

// fail maps an index error onto the protocol: invalid ranges are the
// caller's fault (400), ErrUnsupported means a capability gap (405),
// anything else is the server's (500).
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

// decode parses the JSON request body into v; on failure it answers 400
// and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.errCount.Add(1)
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
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

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(c ScanChunk) bool {
		if err := enc.Encode(c); err != nil {
			return false // client went away; stop pulling pages
		}
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
		if len(chunk) >= s.opts.ScanChunk {
			s.tuplesSent.Add(int64(len(chunk)))
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
	if len(chunk) > 0 {
		s.tuplesSent.Add(int64(len(chunk)))
		if !emit(ScanChunk{Tuples: chunk, Stats: it.Stats()}) {
			return
		}
	}
	s.recordProbe(it.Stats(), 0)
	emit(ScanChunk{Stats: it.Stats(), Done: true})
}

// admitWrite decides one write's admission given the published drift,
// the compaction threshold, the ramp start fraction, and a uniform
// draw in [0,1). Pure, so the contract is directly testable:
//
//	drift <  fraction×T          → always admit
//	drift in [fraction×T, T)     → admit with probability 1 − ramp
//	drift >= T                   → always reject (until compaction
//	                               publishes a lower drift)
func admitWrite(drift, threshold, fraction, draw float64) bool {
	if threshold <= 0 || threshold >= 1 || fraction >= 1 {
		return true // drift compaction or backpressure disabled
	}
	start := fraction * threshold
	if drift < start {
		return true
	}
	if drift >= threshold {
		return false
	}
	ramp := (drift - start) / (threshold - start)
	return draw >= ramp
}

// admit runs the backpressure gate for one write. A false return has
// already answered the request with 429 + Retry-After.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.threshold == 0 {
		return true // no maintainer mounted
	}
	if admitWrite(s.ix.Stats().EffectiveFPP, s.threshold, s.opts.BackpressureFraction, s.admitRand()) {
		return true
	}
	s.rejected.Add(1)
	retryMs := int(s.opts.RetryAfter / time.Millisecond)
	// Retry-After is whole seconds by spec; round up so "50ms" does not
	// become "0". X-Retry-After-Ms carries the real pause.
	w.Header().Set("Retry-After", fmt.Sprintf("%d", (s.opts.RetryAfter+time.Second-1)/time.Second))
	w.Header().Set("X-Retry-After-Ms", fmt.Sprintf("%d", retryMs))
	s.writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error:        "write rejected: drift at the compaction threshold; retry after maintenance",
		RetryAfterMs: retryMs,
	})
	return false
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req WriteRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.admit(w) {
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
	if !s.admit(w) {
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
