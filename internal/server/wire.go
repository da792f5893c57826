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

// ScanRequest is the body of POST /scan: a streamed scan of [lo, hi],
// stopping after Limit tuples when Limit > 0.
type ScanRequest struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Limit int    `json:"limit,omitempty"`
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
// request totals and the summed probe cost of everything served.
type ServedStats struct {
	Requests   int64            `json:"requests"`
	Errors     int64            `json:"errors"`
	TuplesSent int64            `json:"tuples_sent"`
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
