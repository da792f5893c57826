package server

import (
	"bftree/index"
)

// This file is the wire protocol: the JSON bodies both sides of the
// serving layer speak. The server (this package) and the load-generator
// client (loadgen) share these structs, so the protocol cannot drift
// between them. Tuples travel as JSON base64 strings (encoding/json's
// []byte convention); ProbeStats and friends marshal under their Go
// field names — the same shapes the bench JSON artifacts already use.
//
// Every request body is one JSON value, except a /scan credit stream's:
// a ScanRequest with Credit > 0, then one grant per line for as long as
// the client reads, then EOF. Its response, like every /scan response,
// is ScanChunk lines ending in one Done or Error line. For example:
//
//	client: {"lo":0,"hi":99,"credit":16}   server: 16 tuples
//	client: 32                             server: 32 tuples
//	client: EOF                            server: {"stats":{...},"done":true}

// PointRequest is the body of POST /search: one key, optionally probed
// through the primary-key early exit (SearchFirst).
type PointRequest struct {
	Key   uint64 `json:"key"`
	First bool   `json:"first,omitempty"`
}

// RangeRequest is the body of POST /range: a materialized scan of
// [lo, hi].
type RangeRequest struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// MultiRequest is the body of POST /multi: one batched point probe.
type MultiRequest struct {
	Keys []uint64 `json:"keys"`
}

// ScanRequest opens the body of POST /scan: a streamed scan of [lo, hi],
// stopping after Limit tuples when Limit > 0.
//
// Without Credit the request is one-shot: the server streams the whole
// range (or Limit tuples) and the body ends with this value. With
// Credit > 0 the scan is demand-driven. The server sends at most Credit
// tuples, then waits for the client to grant more on the same request
// body, one JSON number per line ("32\n"). The end of the body (EOF)
// says the client is done; the server then ends the stream with the
// Done line. A grant that is not a non-negative integer ends the stream
// with an Error line. So a client that stops after k tuples makes the
// server read only the pages behind the tuples it was granted.
type ScanRequest struct {
	Lo     uint64 `json:"lo"`
	Hi     uint64 `json:"hi"`
	Limit  int    `json:"limit,omitempty"`
	Credit int    `json:"credit,omitempty"`
}

// WriteRequest is the body of POST /insert and POST /delete: the
// key→tuple association the capability call needs.
type WriteRequest struct {
	Key  uint64 `json:"key"`
	Page uint64 `json:"page"`
	Slot uint16 `json:"slot,omitempty"`
}

// Ref converts the wire association to the capability signature's Ref.
func (w WriteRequest) Ref() index.Ref {
	return index.Ref{Page: index.PageID(w.Page), Slot: w.Slot}
}

// Result is the probe answer every read endpoint returns: matching
// tuples plus the probe's cost accounting — index.Result with JSON
// names pinned.
type Result struct {
	Tuples [][]byte         `json:"tuples"`
	Stats  index.ProbeStats `json:"stats"`
}

// ScanChunk is one NDJSON line of a streamed /scan response. Tuples
// carries the next slice of the scan; Stats is the iterator's
// *cumulative* cost at the end of the chunk. The final line has
// Done=true, empty Tuples, and the scan's total stats; a mid-stream
// failure ends the stream with an Error line instead.
type ScanChunk struct {
	Tuples [][]byte         `json:"tuples,omitempty"`
	Stats  index.ProbeStats `json:"stats"`
	Done   bool             `json:"done,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer. Capability names
// the missing optional interface on a 405.
type ErrorResponse struct {
	Error      string `json:"error"`
	Capability string `json:"capability,omitempty"`
}

// ServedStats is the server-side accounting exposed at /stats:
// request totals, the summed probe cost of everything served, and
// OpenScans, the /scan streams in flight. An open stream holds an index
// iterator (on a BF-tree, a reader registration that delays limbo
// reclamation) until it ends.
type ServedStats struct {
	Requests   int64            `json:"requests"`
	Errors     int64            `json:"errors"`
	TuplesSent int64            `json:"tuples_sent"`
	OpenScans  int64            `json:"open_scans"`
	Probe      index.ProbeStats `json:"probe"`
}

// StatsResponse is the body of GET /stats: what is mounted, what it can
// do, how big it is, what has been served, and (for Maintainer
// backends) the maintenance snapshot: the last pass's drift, the
// compaction threshold and what the maintainer has done.
type StatsResponse struct {
	Backend     string                  `json:"backend"`
	Caps        index.CapSet            `json:"caps"`
	Index       index.Stats             `json:"index"`
	Served      ServedStats             `json:"served"`
	Maintenance *index.MaintenanceStats `json:"maintenance,omitempty"`
}
