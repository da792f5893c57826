package loadgen

import (
	"bytes"
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

// frames writes chunks as the server does, one frame each.
func frames(chunks ...server.ScanChunk) string {
	var buf []byte
	for _, c := range chunks {
		buf = server.AppendFrame(buf, c)
	}
	return string(buf)
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

// TestScanIteratorLines reads a credit stream's response frame by frame:
// a frame longer than the reader's buffer, delivered one byte per read,
// comes back whole; a tuple read stays valid after later frames; the
// done frame ends the stream cleanly with its stats; an error frame ends
// it with the server's message.
func TestScanIteratorLines(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), 500) // 5,000 bytes
	small := []byte("tuple")
	stats := index.ProbeStats{IndexReads: 2, DataPagesRead: 3}
	body := frames(
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

	body = frames(
		server.ScanChunk{Tuples: [][]byte{small}, Stats: stats},
		server.ScanChunk{Stats: stats, Error: `page 7: "corrupt"`},
	)
	tuples, _, err = drain(strings.NewReader(body))
	if len(tuples) != 1 || err == nil || err.Error() != `server: page 7: "corrupt"` {
		t.Errorf("error frame: %d tuples, err %v; want 1 tuple and the server's message", len(tuples), err)
	}
}

// TestScanIteratorCut: a stream that ends before its done frame,
// between frames or mid-frame, is io.ErrUnexpectedEOF, after the tuples
// of every whole frame.
func TestScanIteratorCut(t *testing.T) {
	ab := server.ScanChunk{Tuples: [][]byte{[]byte("a"), []byte("b")}}
	cc := server.ScanChunk{Tuples: [][]byte{[]byte("c")}}
	whole := frames(ab, cc, server.ScanChunk{Done: true})
	first := len(frames(ab))
	second := len(frames(ab, cc))
	for _, c := range []struct{ cut, want int }{
		{0, 0}, {1, 0}, {5, 0}, {first - 1, 0}, {first, 2}, {first + 1, 2}, {first + 3, 2}, {second, 3}, {len(whole) - 1, 3},
	} {
		cut, want := c.cut, c.want
		tuples, _, err := drain(strings.NewReader(whole[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) || len(tuples) != want {
			t.Errorf("cut at byte %d of %d: %d tuples, err %v; want %d tuples and io.ErrUnexpectedEOF", cut, len(whole), len(tuples), err, want)
		}
	}
}
