package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"bftree/index"
	"bftree/internal/server"
)

// grantSink stands in for a credit stream's request body.
type grantSink struct{ bytes.Buffer }

func (*grantSink) Close() error { return nil }

// lines writes chunks as the server does, one NDJSON line each.
func lines(t *testing.T, chunks ...server.ScanChunk) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range chunks {
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// drain runs an iterator over the response body r to its end.
func drain(r io.Reader) ([][]byte, index.ProbeStats, error) {
	it := newScanIterator(&grantSink{}, io.NopCloser(r))
	var tuples [][]byte
	for it.Next() {
		tuples = append(tuples, it.Tuple())
	}
	err := it.Err()
	it.Close()
	return tuples, it.Stats(), err
}

// TestScanIteratorLines reads a credit stream's response line by line:
// a tuple longer than the reader's buffer, delivered one byte per read,
// comes back whole; the Done line ends the stream cleanly with its
// stats; an Error line ends it with the server's message.
func TestScanIteratorLines(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), 400) // 4,000 bytes, 5,336 in base64
	small := []byte("tuple")
	stats := index.ProbeStats{IndexReads: 2, DataPagesRead: 3}
	body := lines(t,
		server.ScanChunk{Tuples: [][]byte{small, big}, Stats: index.ProbeStats{IndexReads: 2}},
		server.ScanChunk{Tuples: [][]byte{big}, Stats: stats},
		server.ScanChunk{Stats: stats, Done: true},
	)
	tuples, st, err := drain(iotest.OneByteReader(strings.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 3 || !bytes.Equal(tuples[0], small) || !bytes.Equal(tuples[1], big) || !bytes.Equal(tuples[2], big) {
		t.Errorf("read %d tuples, want small, big, big", len(tuples))
	}
	if st != stats {
		t.Errorf("stats %+v, want %+v", st, stats)
	}

	body = lines(t,
		server.ScanChunk{Tuples: [][]byte{small}, Stats: stats},
		server.ScanChunk{Stats: stats, Error: `page 7: "corrupt"`},
	)
	tuples, _, err = drain(strings.NewReader(body))
	if len(tuples) != 1 || err == nil || err.Error() != `server: page 7: "corrupt"` {
		t.Errorf("Error line: %d tuples, err %v; want 1 tuple and the server's message", len(tuples), err)
	}
}

// TestScanIteratorCut: a stream that ends before its Done line, between
// lines or mid-line, is io.ErrUnexpectedEOF, after the tuples of every
// whole line.
func TestScanIteratorCut(t *testing.T) {
	whole := lines(t,
		server.ScanChunk{Tuples: [][]byte{[]byte("a"), []byte("b")}},
		server.ScanChunk{Tuples: [][]byte{[]byte("c")}},
		server.ScanChunk{Done: true},
	)
	first := strings.Index(whole, "\n") + 1
	second := first + strings.Index(whole[first:], "\n") + 1
	for _, c := range []struct{ cut, want int }{
		{0, 0}, {5, 0}, {first - 1, 0}, {first, 2}, {first + 3, 2}, {second, 3}, {len(whole) - 1, 3},
	} {
		cut, want := c.cut, c.want
		tuples, _, err := drain(strings.NewReader(whole[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) || len(tuples) != want {
			t.Errorf("cut at byte %d of %d: %d tuples, err %v; want %d tuples and io.ErrUnexpectedEOF", cut, len(whole), len(tuples), err, want)
		}
	}
}
