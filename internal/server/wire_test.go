package server_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bftree/index"
	"bftree/internal/server"
)

// wireStats has a different value in every field, so a stat decoded
// into the wrong field shows. BFProbes takes two bytes as a uvarint.
var wireStats = index.ProbeStats{IndexReads: 2, BFProbes: 300, CandidatePages: 9, DataPagesRead: 8, FalseReads: 1}

// wireTuples returns n tuples of size bytes, each distinct.
func wireTuples(n, size int) [][]byte {
	tuples := make([][]byte, n)
	for i := range tuples {
		tuples[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5}, size/3+1)[:size]
	}
	return tuples
}

// TestFrameGolden pins the layout: one small frame of each kind, and a
// miss, as literal bytes. AppendFrame writes exactly these bytes and
// DecodeFrame reads them back to the chunk, so a change to the layout
// has to change this test too.
func TestFrameGolden(t *testing.T) {
	for _, c := range []struct {
		chunk server.ScanChunk
		frame string
	}{
		{server.ScanChunk{Tuples: [][]byte{[]byte("ab"), []byte("c")}, Stats: wireStats},
			"t\x0c\x02\xac\x02\x09\x08\x01\x02\x02ab\x01c"},
		{server.ScanChunk{}, "t\x06\x00\x00\x00\x00\x00\x00"},
		{server.ScanChunk{Stats: wireStats, Done: true}, "d\x07\x02\xac\x02\x09\x08\x01\x00"},
		{server.ScanChunk{Stats: wireStats, Error: "boom"}, "e\x0b\x02\xac\x02\x09\x08\x01\x00boom"},
	} {
		if got := server.AppendFrame(nil, c.chunk); string(got) != c.frame {
			t.Errorf("AppendFrame(%+v) = %q, want %q", c.chunk, got, c.frame)
		}
		var got server.ScanChunk
		if err := server.DecodeFrame([]byte(c.frame), &got); err != nil || !reflect.DeepEqual(got, c.chunk) {
			t.Errorf("DecodeFrame(%q) = %#v, %v; want %#v", c.frame, got, err, c.chunk)
		}
	}
}

// TestDecodeResultMissAndEmpty: a search miss, which the server writes
// from nil tuples, and an answer of an empty tuple slice both frame as
// zero tuples, and ReadResult reads each back as nil Tuples and the
// stats: a frame has one encoding of no tuples.
func TestDecodeResultMissAndEmpty(t *testing.T) {
	miss := server.AppendFrame(nil, server.ScanChunk{Stats: wireStats})
	empty := server.AppendFrame(nil, server.ScanChunk{Tuples: [][]byte{}, Stats: wireStats})
	if !bytes.Equal(miss, empty) {
		t.Fatalf("a miss is written %q, an empty answer %q: want one encoding", miss, empty)
	}
	got, err := server.ReadResult(bytes.NewReader(miss))
	if err != nil {
		t.Fatalf("ReadResult(%q): %v", miss, err)
	}
	if got.Tuples != nil || got.Stats != wireStats {
		t.Errorf("ReadResult(%q) = %#v, want nil tuples and the stats", miss, got)
	}
}

// TestDecodeChunkLines decodes each kind of /scan frame as the server
// writes it: tuples, the done frame, and an error frame. Decoded tuples
// are sub-slices of the frame, each capped at its own length so an
// append cannot write into the next. An error message travels as its
// own bytes, so a quote, a '<', a non-ASCII rune, a control character
// and a byte that is not UTF-8 all come back as they went.
func TestDecodeChunkLines(t *testing.T) {
	tuples := wireTuples(3, 256)
	frame := server.AppendFrame(nil, server.ScanChunk{Tuples: tuples, Stats: wireStats})
	var got server.ScanChunk
	if err := server.DecodeFrame(frame, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples, tuples) || got.Stats != wireStats || got.Done || got.Error != "" {
		t.Fatalf("tuples frame decoded to %+v", got)
	}
	clear(frame)
	for i, tu := range got.Tuples {
		if cap(tu) != len(tu) {
			t.Errorf("tuple %d: cap %d, len %d: an append would write into the next tuple", i, cap(tu), len(tu))
		}
		if !bytes.Equal(tu, make([]byte, len(tu))) {
			t.Errorf("tuple %d kept its bytes when the frame was cleared: a copy, not a sub-slice", i)
		}
	}

	done := server.AppendFrame(nil, server.ScanChunk{Stats: wireStats, Done: true})
	if err := server.DecodeFrame(done, &got); err != nil || !got.Done || got.Tuples != nil || got.Stats != wireStats || got.Error != "" {
		t.Errorf("done frame %q decoded to %+v, %v", done, got, err)
	}

	msg := "credit: bad grant \"more\" <\u00e9>\t\xff"
	failed := server.AppendFrame(nil, server.ScanChunk{Stats: wireStats, Error: msg})
	if !bytes.HasSuffix(failed, []byte(msg)) {
		t.Fatalf("error frame %q: want the message's own bytes at its end", failed)
	}
	if err := server.DecodeFrame(failed, &got); err != nil || got.Error != msg || got.Done || got.Tuples != nil || got.Stats != wireStats {
		t.Errorf("error frame %q decoded to %+v, %v; want message %q", failed, got, err, msg)
	}
}

// TestDecodeChunkRejects: every input AppendFrame does not write from a
// valid chunk is an error, and so is every answer body that is not
// exactly one tuples frame.
func TestDecodeChunkRejects(t *testing.T) {
	valid := string(server.AppendFrame(nil, server.ScanChunk{Tuples: wireTuples(2, 5), Stats: wireStats}))
	bigStat := string(binary.AppendUvarint(nil, 1<<63))
	for _, c := range []struct{ why, frame string }{
		{"empty", ""},
		{"unknown kind", "x\x06\x00\x00\x00\x00\x00\x00"},
		{"unknown kind", "T\x06\x00\x00\x00\x00\x00\x00"},
		{"no length", "t"},
		{"length cut short", "t\x80"},
		{"length over 64 bits", "t\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f"},
		{"body shorter than n", valid[:len(valid)-1]},
		{"body longer than n", valid + "x"},
		{"n larger than the body", "t\x07\x00\x00\x00\x00\x00\x00"},
		{"n smaller than the body", "t\x05\x00\x00\x00\x00\x00\x00"},
		{"stats cut short", "t\x03\x00\x00\x00"},
		{"no tuple count", "t\x05\x00\x00\x00\x00\x00"},
		{"stat over an int", "t\x0f" + bigStat + "\x00\x00\x00\x00\x00"},
		{"count past the body", "t\x08\x00\x00\x00\x00\x00\x05\x01a"},
		{"tuple length cut short", "t\x07\x00\x00\x00\x00\x00\x01\x80"},
		{"tuple past the body", "t\x08\x00\x00\x00\x00\x00\x01\x05a"},
		{"done frame with tuples", "d\x08\x00\x00\x00\x00\x00\x01\x01a"},
		{"error frame with tuples", "e\x09\x00\x00\x00\x00\x00\x01\x01ax"},
		{"message in a tuples frame", "t\x07\x00\x00\x00\x00\x00\x00x"},
		{"message in a done frame", "d\x07\x00\x00\x00\x00\x00\x00x"},
		{"error frame without a message", "e\x06\x00\x00\x00\x00\x00\x00"},
	} {
		var got server.ScanChunk
		if err := server.DecodeFrame([]byte(c.frame), &got); err == nil {
			t.Errorf("%s: DecodeFrame(%q) accepted %+v", c.why, c.frame, got)
		}
	}
	for _, c := range []struct{ why, body string }{
		{"empty", ""},
		{"a done frame", "d\x06\x00\x00\x00\x00\x00\x00"},
		{"an error frame", "e\x07\x00\x00\x00\x00\x00\x00x"},
		{"bytes after the frame", valid + "t"},
		{"two frames", valid + valid},
	} {
		if res, err := server.ReadResult(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: ReadResult(%q) accepted %+v", c.why, c.body, res)
		}
	}
}

// TestReadFrameShort: a frame that declares more bytes than arrive,
// 1<<40 of them, ends in io.ErrUnexpectedEOF, and what the reader
// allocates stays bounded by the bytes that arrived, not the
// declaration. ReadResult, which reads a probe's answer, does the same.
func TestReadFrameShort(t *testing.T) {
	for _, arrived := range []int{0, 3 << 20} {
		frame := binary.AppendUvarint([]byte{'t'}, 1<<40)
		frame = append(frame, make([]byte, arrived)...)
		read := map[string]func() error{
			"ReadFrame": func() error {
				var c server.ScanChunk
				return server.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &c)
			},
			"ReadResult": func() error {
				_, err := server.ReadResult(bytes.NewReader(frame))
				return err
			},
		}
		for name, read := range read {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s of a 1<<40-byte frame cut after %d bytes: %v, want io.ErrUnexpectedEOF", name, arrived, err)
			}
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*arrived+2<<20); got > bound {
				t.Errorf("%s of a 1<<40-byte frame cut after %d bytes allocated %d bytes, want at most %d", name, arrived, got, bound)
			}
		}
	}
}

// TestReadFrameAllocs: ReadFrame reads a 977-tuple frame, scan-http's
// /range answer, into one buffer of the frame's size: two allocations,
// that buffer and the tuple headers, and no more bytes than the two.
func TestReadFrameAllocs(t *testing.T) {
	frame := server.AppendFrame(nil, server.ScanChunk{Tuples: wireTuples(977, 256), Stats: wireStats})
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	var c server.ScanChunk
	read := func() {
		rd.Reset(frame)
		br.Reset(rd)
		if err := server.ReadFrame(br, &c); err != nil || len(c.Tuples) != 977 {
			t.Fatalf("read %d tuples: %v", len(c.Tuples), err)
		}
	}
	if allocs := testing.AllocsPerRun(10, read); allocs != 2 {
		t.Errorf("ReadFrame of 977 tuples: %.0f allocs, want 2", allocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	// The allocator rounds a large object up to whole 8 KiB pages.
	want := uint64(len(frame)+977*24) + 16<<10
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > want {
		t.Errorf("ReadFrame of a %d-byte frame allocated %d bytes, want at most %d", len(frame), got, want)
	}
}

// TestReadResultAllocs: ReadResult reads a one-tuple answer, a /search
// hit, in three allocations: the result, the frame and its tuple
// headers. The header is read without a buffered reader of its own.
func TestReadResultAllocs(t *testing.T) {
	frame := server.AppendFrame(nil, server.ScanChunk{Tuples: wireTuples(1, 256), Stats: wireStats})
	rd := bytes.NewReader(frame)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(frame)
		if res, err := server.ReadResult(rd); err != nil || len(res.Tuples) != 1 {
			t.Fatalf("ReadResult: %+v, %v", res, err)
		}
	})
	if allocs != 3 {
		t.Errorf("ReadResult of one tuple: %.0f allocs, want 3", allocs)
	}
}

// TestDecodeAllocs pins the decoder's allocations: a 977-tuple answer,
// scan-http's /range, allocates no more objects than a 16-tuple one.
func TestDecodeAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{16, 977} {
		frame := server.AppendFrame(nil, server.ScanChunk{Tuples: wireTuples(n, 256), Stats: wireStats})
		var c server.ScanChunk
		allocs[n] = testing.AllocsPerRun(20, func() {
			if err := server.DecodeFrame(frame, &c); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[977] > allocs[16] {
		t.Errorf("decoding 977 tuples took %.0f allocs, 16 tuples %.0f: want no more", allocs[977], allocs[16])
	}
}

// BenchmarkDecode times DecodeFrame on answers of 256-byte tuples,
// scan-http's: 1 tuple (a point read), 16 (a /multi batch) and 977 (a
// /range).
func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{1, 16, 977} {
		frame := server.AppendFrame(nil, server.ScanChunk{Tuples: wireTuples(n, 256), Stats: wireStats})
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			var c server.ScanChunk
			for b.Loop() {
				if err := server.DecodeFrame(frame, &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
