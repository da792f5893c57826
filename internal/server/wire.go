package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"bftree/index"
)

// This file is the wire protocol both sides of the serving layer speak.
// The server (this package) and the load-generator client (loadgen)
// share these types and this codec, so the protocol cannot drift
// between them, and no other package knows the frame layout.
//
// Requests, /scan credit grants, GET /stats and every non-2xx
// ErrorResponse are JSON, so curl shows what is mounted and why a
// request failed; ProbeStats and friends marshal under their Go field
// names, the same shapes the bench JSON artifacts use. Tuple answers are
// binary frames, so a tuple travels as its own bytes. A 200 /search,
// /range or /multi body is exactly one tuples frame, sent with
// Content-Length. A 200 /scan body is tuples frames of at most scanChunk
// tuples, then exactly one done or error frame. A frame is
//
//	kind   1 byte: 't' tuples, 'd' done, 'e' error
//	n      a uvarint: the length of the body that follows
//	body   the five ProbeStats fields as uvarints, in declaration order;
//	       count, a uvarint; count tuples, each a uvarint length and
//	       the tuple's bytes; then, to the end of the body, the message:
//	       an error frame's text, empty in the other kinds
//
// There is no version byte: nothing deployed or stored speaks another
// layout. AppendFrame writes a frame and DecodeFrame reads one, so a
// field added to ScanChunk or ProbeStats must be taught to both: until
// it is, FuzzDecodeChunk's round-trip seeds fail.
//
// Every request body is one JSON value, except a /scan credit stream's:
// a ScanRequest with Credit > 0, then one grant per line for as long as
// the client reads, then EOF. For example:
//
//	client: {"lo":0,"hi":99,"credit":16}   server: a frame of 16 tuples
//	client: 32                             server: frames of 32 tuples
//	client: EOF                            server: the done frame

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
// done frame. A grant that is not a non-negative integer ends the stream
// with an error frame. So a client that stops after k tuples makes the
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

// ScanChunk is one frame of a tuple answer. A tuples frame carries
// Tuples and Stats: a probe's cost on /search, /range and /multi, the
// iterator's *cumulative* cost at the end of the chunk on /scan. A done
// frame (Done) closes a /scan stream with the scan's total stats; a
// failure mid-stream closes it with an error frame (Error, never empty)
// instead. Neither carries tuples.
type ScanChunk struct {
	Tuples [][]byte
	Stats  index.ProbeStats
	Done   bool
	Error  string
}

// The frame kinds.
const (
	frameTuples = 't'
	frameDone   = 'd'
	frameError  = 'e'
)

// frameType is the Content-Type of a body of frames.
const frameType = "application/octet-stream"

// frameStep bounds the first buffer ReadFrame allocates for a frame
// body, and so what a header that declares more than the stream holds
// can make it allocate before the bytes arrive.
const frameStep = 1 << 20

// statFields lists st's fields in declaration order, the order a frame
// carries them.
func statFields(st *index.ProbeStats) [5]*int {
	return [5]*int{&st.IndexReads, &st.BFProbes, &st.CandidatePages, &st.DataPagesRead, &st.FalseReads}
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendFrame appends c's frame to dst and returns the extended slice,
// grown once to fit: an error frame when c.Error is set, else a done
// frame when c.Done is, else a tuples frame. It writes c as it is, so a
// done or error chunk with tuples, or a negative stat, makes a frame
// DecodeFrame rejects.
func AppendFrame(dst []byte, c ScanChunk) []byte {
	kind := byte(frameTuples)
	switch {
	case c.Error != "":
		kind = frameError
	case c.Done:
		kind = frameDone
	}
	stats := statFields(&c.Stats)
	n := uvarintLen(uint64(len(c.Tuples))) + len(c.Error)
	for _, f := range stats {
		n += uvarintLen(uint64(*f))
	}
	for _, t := range c.Tuples {
		n += uvarintLen(uint64(len(t))) + len(t)
	}

	dst = slices.Grow(dst, 1+uvarintLen(uint64(n))+n)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, f := range stats {
		dst = binary.AppendUvarint(dst, uint64(*f))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Tuples)))
	for _, t := range c.Tuples {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return append(dst, c.Error...)
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("server: malformed frame: "+format, args...)
}

// uvarint consumes one uvarint from the front of *b.
func uvarint(b *[]byte, what string) (uint64, error) {
	v, w := binary.Uvarint(*b)
	if w <= 0 {
		return 0, malformed("the %s runs past the body or overflows 64 bits", what)
	}
	*b = (*b)[w:]
	return v, nil
}

// DecodeFrame decodes frame, which holds exactly one frame, into c,
// replacing what c held. Each tuple is a sub-slice of frame, capped at
// its own length so that an append to one cannot write into the next;
// a tuple kept alive keeps the whole frame alive. A tuples frame of no
// tuples, a miss, decodes to nil Tuples.
//
// These are errors, and there is no fallback: an unknown kind; a body
// that is not exactly n bytes; a length that runs past the body; a done
// or error frame with tuples; a message in a tuples or done frame, or an
// error frame without one; a stat that does not fit an int.
func DecodeFrame(frame []byte, c *ScanChunk) error {
	*c = ScanChunk{}
	if len(frame) == 0 {
		return malformed("no kind")
	}
	kind, b := frame[0], frame[1:]
	if kind != frameTuples && kind != frameDone && kind != frameError {
		return malformed("unknown kind %q", kind)
	}
	n, err := uvarint(&b, "length")
	if err != nil {
		return err
	}
	if n != uint64(len(b)) {
		return malformed("a %c frame declares %d bytes of body and holds %d", kind, n, len(b))
	}
	for _, f := range statFields(&c.Stats) {
		v, err := uvarint(&b, "stats")
		if err != nil {
			return err
		}
		if v > math.MaxInt {
			return malformed("stat %d does not fit an int", v)
		}
		*f = int(v)
	}
	count, err := uvarint(&b, "tuple count")
	if err != nil {
		return err
	}
	// Each tuple takes at least its length byte, which bounds the
	// headers allocated below by the body.
	if count > uint64(len(b)) {
		return malformed("%d tuples in %d bytes", count, len(b))
	}
	if count > 0 && kind != frameTuples {
		return malformed("a %c frame with tuples", kind)
	}
	if count > 0 {
		c.Tuples = make([][]byte, count)
	}
	for i := range c.Tuples {
		l, err := uvarint(&b, "tuple length")
		if err != nil {
			return err
		}
		if l > uint64(len(b)) {
			return malformed("tuple %d of %d bytes runs past the body", i, l)
		}
		c.Tuples[i] = b[:l:l]
		b = b[l:]
	}
	if (kind == frameError) != (len(b) > 0) {
		return malformed("a %c frame with a message of %d bytes", kind, len(b))
	}
	c.Done = kind == frameDone
	c.Error = string(b)
	return nil
}

// ReadFrame reads the next frame from r (a *bufio.Reader on a stream of
// frames, or ReadResult's reader of one answer) into a buffer of the
// frame's size and decodes it into c with DecodeFrame. It reads the
// header a byte at a time, so r is left at the next frame. Every call
// reads into a fresh buffer, so c's tuples stay valid after later
// calls. At the end of r, before any byte of a frame, it returns io.EOF;
// a frame cut short is io.ErrUnexpectedEOF. A body over frameStep is
// read into a buffer that at most doubles what has arrived, so a header
// that declares more than r holds costs memory in proportion to what r
// holds.
func ReadFrame(r interface {
	io.Reader
	io.ByteReader
}, c *ScanChunk) error {
	kind, err := r.ReadByte()
	if err != nil {
		return err
	}
	n, err := binary.ReadUvarint(r)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return err
	}
	head := 1 + uvarintLen(n)
	if n > math.MaxInt-uint64(head) {
		return malformed("a body of %d bytes", n)
	}
	size := head + int(n)
	frame := make([]byte, head, min(size, head+frameStep))
	frame[0] = kind
	binary.PutUvarint(frame[1:], n)
	for len(frame) < size {
		if len(frame) == cap(frame) {
			frame = slices.Grow(frame, min(size, 2*len(frame))-len(frame))
		}
		m, err := io.ReadFull(r, frame[len(frame):min(cap(frame), size)])
		frame = frame[:len(frame)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	return DecodeFrame(frame, c)
}

// ReadResult reads the body of a 200 /search, /range or /multi answer:
// exactly one tuples frame, then the end of the body. The tuples alias
// the frame's buffer.
func ReadResult(body io.Reader) (*index.Result, error) {
	// The header is read through a reader that shares the result's
	// allocation, and the body straight into the frame's buffer, so an
	// answer allocates the result, the frame and its tuple headers.
	a := &struct {
		res index.Result
		r   byteReader
	}{r: byteReader{r: body}}
	var c ScanChunk
	err := ReadFrame(&a.r, &c)
	switch {
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	case c.Done || c.Error != "":
		return nil, malformed("an answer in a done or error frame")
	}
	if _, err := a.r.ReadByte(); err != io.EOF {
		if err == nil {
			err = malformed("bytes after the answer's frame")
		}
		return nil, err
	}
	a.res = index.Result{Tuples: c.Tuples, Stats: c.Stats}
	a.r = byteReader{} // the result does not keep body alive
	return &a.res, nil
}

// byteReader reads r unbuffered, for a body that holds one frame: its
// ReadByte reads one byte into a buffer of its own.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(b.r, b.one[:])
	return b.one[0], err
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
