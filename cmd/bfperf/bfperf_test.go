package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, which must describe
// exactly what bfperf emits.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func better(m metric) string {
	if m.lower {
		return "lower"
	}
	return "higher"
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, bfperf %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in bfperf", i, w.Name, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, bfperf %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != better(want) || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, bfperf has %+v", i, m, want)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, bfperf %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != better(want) {
			t.Errorf("per_layer[%d] = %+v, bfperf has %+v", i, m, want)
		}
	}
}

// TestSmoke runs every workload small and short, untraced and traced, and
// checks the result line carries every metric with its unit and that the
// correctness checks ran.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	small := settings{tuples: 20000, rounds: 1, warmup: 50 * time.Millisecond, benchtime: "3x"}
	dir := t.TempDir()
	for _, s := range specs {
		for _, trace := range []string{"0", "1"} {
			out := filepath.Join(dir, s.name+trace+".json")
			var stdout, stderr bytes.Buffer
			code := run(small, []string{
				"-workload", s.name, "-seconds", "0.2", "-trace", trace,
				"-out", out, "-spans", filepath.Join(dir, "spans.jsonl"),
			}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", s.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", s.name, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d, %d metrics (want %d)",
					s.name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", s.name, trace, m.name, got, m.unit)
				}
			}
			f, err := readOutFile(out)
			if err != nil {
				t.Fatal(err)
			}
			// Every successful op, the key sample and the page audit.
			if wo := f.Workloads[s.name]; wo == nil || wo.Checks <= wo.Attempted-wo.Failed {
				t.Errorf("%s trace %s: correctness checks did not run: %+v", s.name, trace, wo)
			}
		}
	}
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	tuple := func(k uint64) []byte {
		b := make([]byte, 256)
		for i := 0; i < 8; i++ {
			b[i] = byte(k >> (56 - 8*i))
		}
		return b
	}
	keys := func(ks ...uint64) [][]byte {
		var out [][]byte
		for _, k := range ks {
			out = append(out, tuple(k))
		}
		return out
	}
	for _, c := range []struct {
		name  string
		err   error
		check string // "" when the answer is right
	}{
		{"point ok", checkPoint(7, keys(7)), ""},
		{"point miss is not wrong", checkPoint(7, nil), ""},
		{"point wrong key", checkPoint(7, keys(8)), "point-key"},
		{"multi ok", checkMulti([]uint64{1, 5}, keys(5, 1)), ""},
		{"multi stray key", checkMulti([]uint64{1, 5}, keys(1, 2)), "multi-key"},
		{"range ok, any order", checkRange(3, 6, 0, keys(5, 3, 4, 6)), ""},
		{"range missing key", checkRange(3, 6, 0, keys(3, 4, 6)), "range-count"},
		{"range outside", checkRange(3, 6, 0, keys(3, 4, 5, 7)), "range-bounds"},
		{"range twice", checkRange(3, 6, 0, keys(3, 4, 4, 6)), "range-once"},
		{"limit ok", checkRange(3, 100, 2, keys(3, 4)), ""},
		{"limit overrun", checkRange(3, 100, 2, keys(3, 4, 5)), "range-count"},
	} {
		var wrong *wrongAnswer
		switch {
		case c.check == "" && c.err != nil:
			t.Errorf("%s: %v", c.name, c.err)
		case c.check != "" && (!errors.As(c.err, &wrong) || wrong.check != c.check):
			t.Errorf("%s: got %v, want check %s", c.name, c.err, c.check)
		}
	}
}

func TestVerdict(t *testing.T) {
	tput := metric{name: "throughput_ops_s", bound: 0.10}
	lat := metric{name: "latency_p50_us", lower: true, bound: 0.10}
	s := func(v, lo, hi float64) *summary { return &summary{Value: v, Min: lo, Max: hi} }
	for _, c := range []struct {
		m            metric
		base, change *summary
		want         string
	}{
		{tput, s(100, 98, 102), s(101, 99, 103), "unchanged"},
		{tput, s(100, 98, 102), s(85, 84, 86), "worse"},
		{tput, s(100, 98, 102), s(120, 119, 121), "better"},
		{lat, s(100, 98, 102), s(85, 84, 86), "better"},
		{lat, s(100, 70, 130), s(101, 99, 103), "unresolved"},
		{lat, s(100, 80, 120), s(60, 55, 65), "not worse"},
		{lat, s(100, 80, 120), s(140, 135, 145), "unresolved"},
	} {
		if got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %+v, %+v) = %s, want %s", c.m.name, *c.base, *c.change, got, c.want)
		}
	}
}
