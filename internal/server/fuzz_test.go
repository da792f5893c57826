package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
