package server_test

import (
	"bytes"
	"encoding/json"
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
// 405 or 413; and a 200 /scan stream is NDJSON chunks that end in
// exactly one terminal line, Done or Error, as its last. A /scan body
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
		if r.path != "/scan" || rec.Code != http.StatusOK {
			return
		}
		lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
		for i, line := range lines {
			var c server.ScanChunk
			if err := json.Unmarshal(line, &c); err != nil {
				t.Fatalf("/scan %q: line %d %q: %v", body, i, line, err)
			}
			if terminal := c.Done || c.Error != ""; terminal != (i == len(lines)-1) {
				t.Fatalf("/scan %q: line %d of %d is %+v: want one Done or Error line, last", body, i, len(lines), c)
			}
		}
	})
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// FuzzDecodeChunk holds the client's decoder of tuple answers to
// encoding/json, which the server writes them with. No input panics it.
// Whatever DecodeChunk or DecodeResult accepts, json.Unmarshal accepts
// too and reads as an equal value: the same tuple bytes, nil and empty
// kept apart, the same stats, done and error. And a chunk or result
// built from the fuzzed tuples, stats, done and error, written by
// json.NewEncoder, decodes back to itself. That last property fills
// every field of the wire structs by its kind (fillWire), so a field
// added to them that the decoder was never taught fails it.
func FuzzDecodeChunk(f *testing.F) {
	seed := func(tuples [][]byte, stat int64, done bool, msg string) {
		var c server.ScanChunk
		var r server.Result
		fillWire(f, reflect.ValueOf(&c).Elem(), tuples, stat, done, msg)
		fillWire(f, reflect.ValueOf(&r).Elem(), tuples, stat, done, msg)
		lines := [][]byte{encodeLine(f, c), encodeLine(f, r)}
		data := bytes.Join(tuples, nil)
		for _, line := range lines {
			for cut := 0; cut < len(line); cut += 1 + len(line)/40 {
				f.Add(line[:cut], data, uint8(len(tuples)), stat, done, msg)
			}
			f.Add(line, data, uint8(len(tuples)), stat, done, msg)
		}
	}
	for _, n := range []int{0, 1, 16, 64} {
		seed(wireTuples(n, 64), int64(n)+3, false, "")
	}
	seed(nil, 0, false, "") // a miss: "tuples":null
	seed(nil, 977, true, "")
	seed(nil, -1, false, `credit: invalid character 'm' in "grant" <é>`)
	// What base64 and JSON read differently: CR and LF in a tuple, which
	// base64 skips and JSON refuses, and a repeated key, whose tuples
	// JSON replaces.
	f.Add([]byte("{\"tuples\":[\"\r\n\r\nQUJD\"]}"), []byte(nil), uint8(0), int64(0), false, "")
	f.Add([]byte(`{"tuples":["QUJD"],"tuples":["REVG"]}`), []byte(nil), uint8(0), int64(0), false, "")

	f.Fuzz(func(t *testing.T, line, data []byte, n uint8, stat int64, done bool, msg string) {
		var c, jc server.ScanChunk
		if server.DecodeChunk(line, &c) == nil {
			if err := json.Unmarshal(line, &jc); err != nil {
				t.Fatalf("DecodeChunk accepted %q, json.Unmarshal: %v", line, err)
			}
			if !reflect.DeepEqual(c, jc) {
				t.Fatalf("DecodeChunk(%q) = %#v, json.Unmarshal reads %#v", line, c, jc)
			}
		}
		var r, jr server.Result
		if server.DecodeResult(line, &r) == nil {
			if err := json.Unmarshal(line, &jr); err != nil {
				t.Fatalf("DecodeResult accepted %q, json.Unmarshal: %v", line, err)
			}
			if !reflect.DeepEqual(r, jr) {
				t.Fatalf("DecodeResult(%q) = %#v, json.Unmarshal reads %#v", line, r, jr)
			}
		}

		// n tuples cut evenly from data; none is nil, and none at all is
		// a nil slice, since an empty ScanChunk.Tuples is not written.
		var tuples [][]byte
		for i := 0; i < int(n); i++ {
			tuples = append(tuples, append([]byte{}, data[i*len(data)/int(n):(i+1)*len(data)/int(n)]...))
		}
		// The encoder writes invalid UTF-8 as U+FFFD, so only valid
		// strings can come back as they went.
		msg = strings.ToValidUTF8(msg, "\uFFFD")
		var wc server.ScanChunk
		fillWire(t, reflect.ValueOf(&wc).Elem(), tuples, stat, done, msg)
		var back server.ScanChunk
		if err := server.DecodeChunk(encodeLine(t, wc), &back); err != nil || !reflect.DeepEqual(back, wc) {
			t.Fatalf("chunk %#v: written %q, decoded %#v, %v", wc, encodeLine(t, wc), back, err)
		}
		var wr, rback server.Result
		fillWire(t, reflect.ValueOf(&wr).Elem(), tuples, stat, done, msg)
		if err := server.DecodeResult(encodeLine(t, wr), &rback); err != nil || !reflect.DeepEqual(rback, wr) {
			t.Fatalf("result %#v: written %q, decoded %#v, %v", wr, encodeLine(t, wr), rback, err)
		}
	})
}

// fillWire sets every field of the wire struct v by its kind: the
// tuples, the int fields from stat (each a different multiple, so a
// swap shows), done and msg. A field of any other kind fails the test
// until the decoder and this function learn it.
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
			t.Fatalf("%s.%s: a %s field the decoder does not know", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}
