package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"

	"bftree/index"
)

// This file is the wire protocol: the JSON bodies both sides of the
// serving layer speak. The server (this package) and the load-generator
// client (loadgen) share these structs, so the protocol cannot drift
// between them. Tuples travel as JSON base64 strings (encoding/json's
// []byte convention); ProbeStats and friends marshal under their Go
// field names — the same shapes the bench JSON artifacts already use.
//
// The server writes every body with encoding/json. The client reads a
// tuple answer — a Result, or a ScanChunk line — with DecodeChunk and
// DecodeResult below, which know these structs field by field. So a
// field added to ScanChunk, Result or ProbeStats must be taught to
// them too: until it is, FuzzDecodeChunk's round-trip seeds fail.
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

// DecodeChunk decodes one line of a /scan response into c, replacing
// what c held. It reads the shape json.NewEncoder writes for a
// ScanChunk and nothing else: one object with no whitespace but around
// it, keys spelled as their tags, every tuple a padded base64 string
// and every stat an integer. Any other input is an error. Whatever it
// accepts, json.Unmarshal reads as the same value (FuzzDecodeChunk
// checks both).
//
// It finds each tuple's closing quote with one bytes.IndexByte, counts
// the tuples before it decodes any, and base64-decodes them all into
// one arena: each tuple is a sub-slice of it, capped at its own length
// so that an append to one cannot write into the next. So a tuple kept
// alive keeps its whole answer's arena alive.
func DecodeChunk(line []byte, c *ScanChunk) error {
	return decodeAnswer(line, c, true)
}

// DecodeResult decodes a /search, /range or /multi answer into r,
// replacing what r held: DecodeChunk's format without the done and
// error keys. A miss ("tuples":null) decodes to nil Tuples, "[]" to an
// empty slice.
func DecodeResult(body []byte, r *Result) error {
	var c ScanChunk
	if err := decodeAnswer(body, &c, false); err != nil {
		return err
	}
	*r = Result{Tuples: c.Tuples, Stats: c.Stats}
	return nil
}

// decodeAnswer decodes a ScanChunk, or with chunk false a Result, from
// b into c. A repeated key replaces what the first one set, as
// json.Unmarshal does; a repeated "stats" object overwrites only the
// stats it names.
func decodeAnswer(b []byte, c *ScanChunk, chunk bool) error {
	*c = ScanChunk{}
	a := answer{b: bytes.Trim(b, " \t\r\n")}
	if !a.eat('{') {
		return a.malformed("want {")
	}
	if a.eat('}') {
		return a.end()
	}
	for {
		key, err := a.key()
		if err != nil {
			return err
		}
		switch {
		case string(key) == "tuples":
			c.Tuples, err = a.tuples()
		case string(key) == "stats":
			err = a.stats(&c.Stats)
		case chunk && string(key) == "done":
			c.Done, err = a.boolean()
		case chunk && string(key) == "error":
			c.Error, err = a.str()
		default:
			err = a.malformed(fmt.Sprintf("unknown key %q", key))
		}
		if err != nil {
			return err
		}
		if a.eat('}') {
			return a.end()
		}
		if !a.eat(',') {
			return a.malformed("want , or }")
		}
	}
}

// answer is the cursor of one decode: the input, without the
// whitespace around it, and the offset of the next byte to read.
type answer struct {
	b []byte
	i int
}

func (a *answer) malformed(what string) error {
	return fmt.Errorf("server: malformed answer at byte %d of %d: %s", a.i, len(a.b), what)
}

// end checks that the object just closed is the whole input.
func (a *answer) end() error {
	if a.i != len(a.b) {
		return a.malformed("trailing bytes")
	}
	return nil
}

// eat consumes c if it is the next byte.
func (a *answer) eat(c byte) bool {
	if a.i < len(a.b) && a.b[a.i] == c {
		a.i++
		return true
	}
	return false
}

// literal consumes s if the input continues with it.
func (a *answer) literal(s string) bool {
	if len(a.b)-a.i >= len(s) && string(a.b[a.i:a.i+len(s)]) == s {
		a.i += len(s)
		return true
	}
	return false
}

// key reads an object key and its colon. A key holding an escape never
// equals a known one, so it is rejected as unknown.
func (a *answer) key() ([]byte, error) {
	if !a.eat('"') {
		return nil, a.malformed("want a key")
	}
	n := bytes.IndexByte(a.b[a.i:], '"')
	if n < 0 {
		return nil, a.malformed("unterminated key")
	}
	key := a.b[a.i : a.i+n]
	a.i += n + 1
	if !a.eat(':') {
		return nil, a.malformed("want :")
	}
	return key, nil
}

// tuples reads null or an array of base64 strings. The first pass finds
// each closing quote and sizes the headers and the arena; the second
// decodes into them. A string that base64 does not decode to exactly
// len/4*3 bytes less its padding is rejected: that is how a raw CR or
// LF, which base64 skips and JSON refuses, is caught.
func (a *answer) tuples() ([][]byte, error) {
	if a.literal("null") {
		return nil, nil
	}
	if !a.eat('[') {
		return nil, a.malformed("want tuples")
	}
	first := a.i
	n, size := 0, 0
	for !a.eat(']') {
		if n > 0 && !a.eat(',') {
			return nil, a.malformed("want , or ]")
		}
		if !a.eat('"') {
			return nil, a.malformed("want a tuple")
		}
		l := bytes.IndexByte(a.b[a.i:], '"')
		if l < 0 || l%4 != 0 {
			return nil, a.malformed("want padded base64")
		}
		a.i += l + 1
		n++
		size += l / 4 * 3
	}
	end := a.i

	tuples := make([][]byte, n)
	arena := make([]byte, size)
	off, j := 0, first
	for k := range tuples {
		if k > 0 {
			j++ // the comma
		}
		j++ // the opening quote
		l := bytes.IndexByte(a.b[j:], '"')
		s := a.b[j : j+l]
		pad := 0
		for pad < 2 && pad < l && s[l-1-pad] == '=' {
			pad++
		}
		m, err := base64.StdEncoding.Decode(arena[off:], s)
		if err != nil || m != l/4*3-pad {
			a.i = j
			return nil, a.malformed("want padded base64")
		}
		tuples[k] = arena[off : off+m : off+m]
		off += m
		j += l + 1
	}
	a.i = end
	return tuples, nil
}

// stats reads a ProbeStats object into st, overwriting the stats it
// names.
func (a *answer) stats(st *index.ProbeStats) error {
	if !a.eat('{') {
		return a.malformed("want stats")
	}
	if a.eat('}') {
		return nil
	}
	for {
		key, err := a.key()
		if err != nil {
			return err
		}
		var f *int
		switch string(key) {
		case "IndexReads":
			f = &st.IndexReads
		case "BFProbes":
			f = &st.BFProbes
		case "CandidatePages":
			f = &st.CandidatePages
		case "DataPagesRead":
			f = &st.DataPagesRead
		case "FalseReads":
			f = &st.FalseReads
		default:
			return a.malformed(fmt.Sprintf("unknown stat %q", key))
		}
		if *f, err = a.integer(); err != nil {
			return err
		}
		if a.eat('}') {
			return nil
		}
		if !a.eat(',') {
			return a.malformed("want , or }")
		}
	}
}

// integer reads a JSON integer that fits an int.
func (a *answer) integer() (int, error) {
	neg := a.eat('-')
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	digits := a.i
	var n uint64
	for a.i < len(a.b) && '0' <= a.b[a.i] && a.b[a.i] <= '9' {
		d := uint64(a.b[a.i] - '0')
		if n > (limit-d)/10 {
			return 0, a.malformed("integer overflows int")
		}
		n = n*10 + d
		a.i++
	}
	if a.i == digits || (a.b[digits] == '0' && a.i-digits > 1) {
		return 0, a.malformed("want an integer")
	}
	if neg {
		return int(-n), nil
	}
	return int(n), nil
}

func (a *answer) boolean() (bool, error) {
	switch {
	case a.literal("true"):
		return true, nil
	case a.literal("false"):
		return false, nil
	}
	return false, a.malformed("want true or false")
}

// str reads the JSON string of an Error line's message with
// json.Unmarshal, which owns JSON's escapes and its handling of invalid
// UTF-8. Only a failed scan's last line holds one, so tuples never pay
// for it.
func (a *answer) str() (string, error) {
	from := a.i
	if !a.eat('"') {
		return "", a.malformed("want a string")
	}
	for a.i < len(a.b) && a.b[a.i] != '"' {
		if a.b[a.i] == '\\' {
			a.i++ // the escaped byte, which may be a quote
		}
		a.i++
	}
	if !a.eat('"') {
		return "", a.malformed("unterminated string")
	}
	var s string
	if err := json.Unmarshal(a.b[from:a.i], &s); err != nil {
		return "", a.malformed(err.Error())
	}
	return s, nil
}
