package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bftree/index"
	"bftree/internal/server"
)

// wireStats has a different value in every field, so a stat decoded
// into the wrong field shows.
var wireStats = index.ProbeStats{IndexReads: 2, BFProbes: 127, CandidatePages: 9, DataPagesRead: 8, FalseReads: 1}

// wireTuples returns n tuples of size bytes, each distinct.
func wireTuples(n, size int) [][]byte {
	tuples := make([][]byte, n)
	for i := range tuples {
		tuples[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5}, size/3+1)[:size]
	}
	return tuples
}

// encodeLine writes v as the server does: json.NewEncoder, one line.
func encodeLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBoth decodes line with DecodeChunk and with json.Unmarshal,
// requires both to accept it, and returns the chunk after checking the
// two agree, nil against empty included.
func decodeBoth(t *testing.T, line []byte) server.ScanChunk {
	t.Helper()
	var got, want server.ScanChunk
	if err := server.DecodeChunk(line, &got); err != nil {
		t.Fatalf("DecodeChunk(%q): %v", line, err)
	}
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("json.Unmarshal(%q): %v", line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeChunk(%q) = %+v, json.Unmarshal reads %+v", line, got, want)
	}
	return got
}

// TestDecodeResultMissAndEmpty: a search miss, which the server writes
// as "tuples":null, decodes to nil Tuples, and "[]" to an empty slice,
// as json.Unmarshal reads them.
func TestDecodeResultMissAndEmpty(t *testing.T) {
	miss := encodeLine(t, server.Result{Stats: wireStats})
	if !bytes.Contains(miss, []byte(`"tuples":null`)) {
		t.Fatalf("a miss is written %q, want \"tuples\":null", miss)
	}
	empty := bytes.Replace(miss, []byte("null"), []byte("[]"), 1)
	for _, c := range []struct {
		body []byte
		nil  bool
	}{{miss, true}, {empty, false}} {
		var got server.Result
		if err := server.DecodeResult(c.body, &got); err != nil {
			t.Fatalf("DecodeResult(%q): %v", c.body, err)
		}
		if (got.Tuples == nil) != c.nil || len(got.Tuples) != 0 || got.Stats != wireStats {
			t.Errorf("DecodeResult(%q) = %#v, want nil tuples %v and the stats", c.body, got, c.nil)
		}
		decodeBoth(t, c.body)
	}
}

// TestDecodeChunkLines decodes each kind of /scan line as the server
// writes it: tuples, the Done line, and an Error line whose message
// holds a quote and a non-ASCII rune, which json.NewEncoder writes
// escaped and raw, and a '<', which it writes as \u003c; then the
// escapes it never writes but JSON allows, a surrogate pair among them,
// and what json.Unmarshal reads as U+FFFD: a lone surrogate and a byte
// that is not UTF-8.
func TestDecodeChunkLines(t *testing.T) {
	tuples := wireTuples(3, 256)
	got := decodeBoth(t, encodeLine(t, server.ScanChunk{Tuples: tuples, Stats: wireStats}))
	if !reflect.DeepEqual(got.Tuples, tuples) || got.Done || got.Error != "" {
		t.Errorf("tuple line decoded to %+v", got)
	}
	for i, tu := range got.Tuples {
		if cap(tu) != len(tu) {
			t.Errorf("tuple %d: cap %d, len %d: an append would write into the next tuple", i, cap(tu), len(tu))
		}
	}

	got = decodeBoth(t, encodeLine(t, server.ScanChunk{Stats: wireStats, Done: true}))
	if !got.Done || got.Tuples != nil || got.Stats != wireStats {
		t.Errorf("Done line decoded to %+v", got)
	}

	msg := `credit: bad grant "more" <é>`
	line := encodeLine(t, server.ScanChunk{Stats: wireStats, Error: msg})
	if !bytes.Contains(line, []byte(`\"more\"`)) || !bytes.Contains(line, []byte(`\u003c`)) || !bytes.Contains(line, []byte("é")) {
		t.Fatalf("Error line %q: want its quotes and '<' escaped, 'é' raw", line)
	}
	if got := decodeBoth(t, line); got.Error != msg {
		t.Errorf("Error line decoded to %q, want %q", got.Error, msg)
	}
	escaped := []byte(`{"stats":{},"error":"caf\u00e9 \ud83d\ude00 \/\\\b\f\n\r\t"}`)
	if got := decodeBoth(t, escaped); got.Error != "café \U0001F600 /\\\b\f\n\r\t" {
		t.Errorf("escaped Error line decoded to %q", got.Error)
	}
	for _, line := range []string{`{"error":"a\ud83db"}`, "{\"error\":\"a\xffb\"}"} {
		if got := decodeBoth(t, []byte(line)); got.Error != "a\uFFFDb" {
			t.Errorf("Error line %q decoded to %q, want U+FFFD", line, got.Error)
		}
	}
}

// TestDecodeChunkRejects: every input outside the shape the server
// writes is an error, whether or not JSON would take it.
func TestDecodeChunkRejects(t *testing.T) {
	valid := string(encodeLine(t, server.ScanChunk{Tuples: wireTuples(2, 5), Stats: wireStats}))
	for _, line := range []string{
		valid + "x",
		valid + "{}",
		valid[:len(valid)-1] + "}",
		strings.Replace(valid, `","`, "\",\n\"", 1),
		strings.Replace(valid, `["`, "[\"\n", 1),
		strings.Replace(valid, `["`, "[\"\n\n\n\n", 1),
		strings.Replace(valid, `":`, `" :`, 1),
		`{"tuples":[null],"stats":{}}`,
		`{"tuples":["QQ="],"stats":{}}`,
		`{"tuples":["QQ=="`,
		`{"tuples":["QQ=="],"stats":{},"extra":1}`,
		`{"Tuples":["QQ=="]}`,
		`{"stats":{"IndexReads":01}}`,
		`{"stats":{"IndexReads":1.5}}`,
		`{"stats":{"IndexReads":-}}`,
		`{"stats":{"IndexReads":9223372036854775808}}`,
		`{"stats":{"Other":1}}`,
		`{"stats":null}`,
		`{"done":1}`,
		`{"error":"\x"}`,
		"{\"error\":\"a\tb\"}",
		`{"error":"unterminated}`,
		`null`,
		``,
	} {
		var c server.ScanChunk
		if err := server.DecodeChunk([]byte(line), &c); err == nil {
			t.Errorf("DecodeChunk(%q) accepted %+v", line, c)
		}
	}
	for _, body := range []string{`{"tuples":null,"stats":{},"done":true}`, `{"tuples":null,"stats":{},"error":"x"}`} {
		var r server.Result
		if err := server.DecodeResult([]byte(body), &r); err == nil {
			t.Errorf("DecodeResult(%q) accepted a scan chunk's key", body)
		}
	}
}

// TestDecodeChunkRepeatedKeys: a repeated key replaces what the first
// set, and a second stats object overwrites only the stats it names, as
// json.Unmarshal reads them.
func TestDecodeChunkRepeatedKeys(t *testing.T) {
	for _, line := range []string{
		`{"tuples":["QUJD","REVG"],"stats":{},"tuples":["R0hJ"]}`,
		`{"tuples":["QUJD"],"tuples":null}`,
		`{"tuples":["QUJD"],"tuples":[]}`,
		`{"stats":{"IndexReads":1,"BFProbes":2},"stats":{"BFProbes":-3}}`,
		`{"done":true,"done":false,"error":"a","error":"b"}`,
	} {
		decodeBoth(t, []byte(line))
	}
}

// TestDecodeAllocs pins the arena: a 977-tuple answer, scan-http's
// /range, allocates no more objects than a 16-tuple one.
func TestDecodeAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{16, 977} {
		line := encodeLine(t, server.Result{Tuples: wireTuples(n, 256), Stats: wireStats})
		var r server.Result
		allocs[n] = testing.AllocsPerRun(20, func() {
			if err := server.DecodeResult(line, &r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[977] > allocs[16] {
		t.Errorf("decoding 977 tuples took %.0f allocs, 16 tuples %.0f: want no more", allocs[977], allocs[16])
	}
}

// BenchmarkDecode times DecodeResult beside json.Unmarshal on answers of
// 256-byte tuples, scan-http's: 1 tuple (a point read), 16 (a /multi
// batch) and 977 (a /range).
func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{1, 16, 977} {
		body := encodeLine(b, server.Result{Tuples: wireTuples(n, 256), Stats: wireStats})
		b.Run(fmt.Sprintf("tuples=%d/decoder", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			var r server.Result
			for b.Loop() {
				if err := server.DecodeResult(body, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("tuples=%d/encoding-json", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var r server.Result
				if err := json.Unmarshal(body, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
