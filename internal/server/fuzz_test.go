package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/server"
)

// fuzzRoutes are the routes FuzzServe picks from, each with its method.
var fuzzRoutes = []struct{ method, path string }{
	{http.MethodPost, "/search"},
	{http.MethodPost, "/range"},
	{http.MethodPost, "/multi"},
	{http.MethodPost, "/scan"},
	{http.MethodPost, "/insert"},
	{http.MethodPost, "/delete"},
	{http.MethodPost, "/flush"},
	{http.MethodGet, "/stats"},
}

// FuzzServe feeds any body to every route through ServeHTTP on a small
// bftree. No input may panic the server; every answer is 200, 204, 400,
// 405 or 413; a 200 /search, /range or /multi body is exactly one
// tuples frame; and a 200 /scan body is frames that end in exactly one
// done or error frame, as its last. A /scan body
// may carry credit lines after the request, so the fuzzer also drives
// the credit exchange: 0, negative, huge, fractional and non-numeric
// grants, and bodies cut anywhere.
func FuzzServe(f *testing.F) {
	file, _ := servedRelation(f, 600) // keys 0,5,...,995
	ix, err := index.New("bftree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer ix.Close()
	srv := server.New(ix, server.Options{})

	page := uint64(file.PageOf(500))
	valid := map[string]string{
		"/search": `{"key":500,"first":true}`,
		"/range":  `{"lo":100,"hi":300}`,
		"/multi":  `{"keys":[0,5,500,7]}`,
		"/scan":   `{"lo":0,"hi":995,"limit":40}`,
		"/insert": `{"key":500,"page":` + jsonUint(page) + `,"slot":1}`,
		"/delete": `{"key":500,"page":` + jsonUint(page) + `,"slot":1}`,
		"/flush":  ``,
		"/stats":  ``,
	}
	credit := `{"lo":0,"hi":995,"credit":3}` + "\n"
	scans := []string{
		credit,
		credit + "4\n8\n",
		credit + "0\n0\n5\n",
		credit + "-2\n",
		credit + "9223372036854775807\n",
		credit + "99999999999999999999\n",
		credit + "1.5\n",
		credit + "\"more\"\n",
		credit + "2\nmore\n",
		`{"lo":0,"hi":995,"credit":-1}`,
		`{"lo":0,"hi":995,"limit":5,"credit":2}` + "\n2\n2\n",
		`{"lo":995,"hi":0,"credit":2}` + "\n",
	}
	for i, r := range fuzzRoutes {
		body := valid[r.path]
		for cut := 0; cut <= len(body); cut += 7 {
			f.Add(uint8(i), []byte(body[:cut]))
		}
		f.Add(uint8(i), []byte(body))
	}
	for _, body := range scans {
		for cut := 0; cut <= len(body); cut += 5 {
			f.Add(uint8(3), []byte(body[:cut]))
		}
		f.Add(uint8(3), []byte(body))
	}
	// A body holds one value: anything after it but whitespace is a 400.
	f.Add(uint8(0), []byte(`{"key":500,"first":true} garbage`))
	f.Add(uint8(0), []byte(`{"key":500}`+" \n\t"))
	f.Add(uint8(1), []byte(`{"lo":100,"hi":300}{"lo":1,"hi":2}`))
	f.Add(uint8(2), []byte(`{"keys":[0,5]}[1,2,3]`))
	f.Add(uint8(4), []byte(`{"key":500,"page":`+jsonUint(page)+`,"slot":1}5`))
	// A batch over the bound is a 413.
	f.Add(uint8(2), []byte(`{"keys":[`+strings.Repeat("5,", 1024)+`5]}`))

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest,
			http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %s %q: status %d", r.method, r.path, body, rec.Code)
		}
		if rec.Code != http.StatusOK {
			return
		}
		answer := rec.Body.Bytes()
		switch r.path {
		case "/search", "/range", "/multi":
			if _, err := server.ReadResult(bytes.NewReader(answer)); err != nil {
				t.Fatalf("%s %q: answer %q: %v", r.path, body, answer, err)
			}
		case "/scan":
			frames := bufio.NewReader(bytes.NewReader(answer))
			for i, ended := 0, false; ; i++ {
				var c server.ScanChunk
				err := server.ReadFrame(frames, &c)
				if err == io.EOF && ended {
					break
				}
				if err != nil {
					t.Fatalf("/scan %q: frame %d: %v", body, i, err)
				}
				if ended {
					t.Fatalf("/scan %q: frame %d %+v follows the done or error frame", body, i, c)
				}
				ended = c.Done || c.Error != ""
			}
		}
	})
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// FuzzDecodeChunk holds the frame codec that every /scan chunk and
// tuple answer travels in to three properties. No input panics
// DecodeFrame or ReadFrame. Whatever DecodeFrame accepts, AppendFrame
// re-encodes to bytes that decode to an equal value, and ReadFrame reads
// the same frame off a stream to the same value. And the tuples, done
// and error chunks built from the fuzzed tuples, stats and message
// round-trip. fillWire fills every field of ScanChunk by its kind, so a
// field added to ScanChunk or ProbeStats that the codec was never taught
// fails the seeds.
func FuzzDecodeChunk(f *testing.F) {
	// Each frame is seeded whole and cut short: at every byte of its
	// first 128, where the kind, the length, the stats, the count and
	// the first tuples' lengths lie, then in steps of a fortieth of it.
	seed := func(c server.ScanChunk, stat uint32) {
		data := bytes.Join(c.Tuples, nil)
		frame := server.AppendFrame(nil, c)
		for cut := 0; cut < len(frame); {
			f.Add(frame[:cut], data, uint8(len(c.Tuples)), stat, c.Error)
			if cut < 128 {
				cut++
			} else {
				cut += 1 + len(frame)/40
			}
		}
		f.Add(frame, data, uint8(len(c.Tuples)), stat, c.Error)
	}
	for _, n := range []int{0, 1, 16, 64} {
		var c server.ScanChunk
		fillWire(f, reflect.ValueOf(&c).Elem(), wireTuples(n, 64), int64(n)+3, false, "")
		seed(c, uint32(n)+3)
	}
	// An empty tuple, and one whose length takes a two-byte uvarint.
	var sizes server.ScanChunk
	fillWire(f, reflect.ValueOf(&sizes).Elem(), [][]byte{{}, bytes.Repeat([]byte{0x5A}, 300)}, 977, false, "")
	seed(sizes, 977)
	var done, failed server.ScanChunk
	fillWire(f, reflect.ValueOf(&done).Elem(), nil, 977, true, "")
	seed(done, 977)
	fillWire(f, reflect.ValueOf(&failed).Elem(), nil, 1, false, `credit: invalid character 'm' in "grant" <é>`)
	seed(failed, 1)

	f.Fuzz(func(t *testing.T, frame, data []byte, n uint8, stat uint32, msg string) {
		var c server.ScanChunk
		decoded := server.DecodeFrame(frame, &c) == nil
		if decoded {
			again := server.AppendFrame(nil, c)
			var back server.ScanChunk
			if err := server.DecodeFrame(again, &back); err != nil || !reflect.DeepEqual(back, c) {
				t.Fatalf("DecodeFrame(%q) = %#v, re-encoded %q, decoded %#v, %v", frame, c, again, back, err)
			}
		}
		// ReadFrame reads the first frame of the stream as DecodeFrame
		// reads it alone.
		rd := bytes.NewReader(frame)
		r := bufio.NewReader(rd)
		var rc server.ScanChunk
		if err := server.ReadFrame(r, &rc); err == nil {
			read := len(frame) - rd.Len() - r.Buffered()
			var dc server.ScanChunk
			if err := server.DecodeFrame(frame[:read], &dc); err != nil || !reflect.DeepEqual(rc, dc) {
				t.Fatalf("ReadFrame(%q) read %d bytes as %#v; DecodeFrame reads them as %#v, %v", frame, read, rc, dc, err)
			}
			if decoded && read != len(frame) {
				t.Fatalf("ReadFrame(%q) read %d bytes of a %d-byte frame", frame, read, len(frame))
			}
		} else if decoded {
			t.Fatalf("DecodeFrame accepted %q, ReadFrame: %v", frame, err)
		}

		// n tuples cut evenly from data; none is nil, and none at all is
		// a nil slice, as DecodeFrame returns a frame of no tuples.
		var tuples [][]byte
		for i := 0; i < int(n); i++ {
			tuples = append(tuples, append([]byte{}, data[i*len(data)/int(n):(i+1)*len(data)/int(n)]...))
		}
		var built [3]server.ScanChunk
		fillWire(t, reflect.ValueOf(&built[0]).Elem(), tuples, int64(stat), false, "")
		fillWire(t, reflect.ValueOf(&built[1]).Elem(), nil, int64(stat), true, "")
		fillWire(t, reflect.ValueOf(&built[2]).Elem(), nil, int64(stat), false, msg)
		if msg == "" {
			built[2] = built[0] // an error frame always has a message
		}
		for _, c := range built {
			frame := server.AppendFrame(nil, c)
			var back server.ScanChunk
			if err := server.DecodeFrame(frame, &back); err != nil || !reflect.DeepEqual(back, c) {
				t.Fatalf("chunk %#v: written %q, decoded %#v, %v", c, frame, back, err)
			}
		}
	})
}

// fillWire sets every field of the wire struct v by its kind: the
// tuples, the int fields from stat (each a different multiple, so a
// swap shows), done and msg. A field of any other kind fails the test
// until the codec and this function learn it.
func fillWire(t testing.TB, v reflect.Value, tuples [][]byte, stat int64, done bool, msg string) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.Type() == reflect.TypeOf(tuples):
			f.Set(reflect.ValueOf(tuples))
		case f.Kind() == reflect.Struct:
			fillWire(t, f, tuples, stat, done, msg)
		case f.Kind() == reflect.Int:
			f.SetInt(stat * int64(i+1))
		case f.Kind() == reflect.Bool:
			f.SetBool(done)
		case f.Kind() == reflect.String:
			f.SetString(msg)
		default:
			t.Fatalf("%s.%s: a %s field the codec does not know", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}
