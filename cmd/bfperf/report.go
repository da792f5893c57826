package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// metric defines one reported number. bound applies to end-to-end
// metrics: the share of the base median by which the metric may worsen
// before a change counts as a regression.
type metric struct {
	name  string
	unit  string
	lower bool // lower is better
	bound float64
}

// endToEnd are the metrics a user of the served index sees; the result
// line of an untraced run reports exactly these.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", lower: true, bound: 0.25},
	{name: "throughput_ops_s", unit: "ops/s", bound: 0.25},
	{name: "latency_p50_us", unit: "us", lower: true, bound: 0.25},
	{name: "latency_p99_us", unit: "us", lower: true, bound: 0.25},
	{name: "read_p99_us", unit: "us", lower: true, bound: 0.25},
	{name: "index_bytes_per_key", unit: "B", lower: true, bound: 0.05},
	{name: "heap_mb", unit: "MiB", lower: true, bound: 0.10},
}

// perLayer are the metrics of a traced run's result line: the ladder,
// counts per op from the untraced windows, and the traced windows' split
// of each op between the HTTP layers and the index.
var perLayer = append(ladderMetrics(), []metric{
	{name: "core.index_reads_per_op", unit: "count", lower: true},
	{name: "core.bf_probes_per_op", unit: "count", lower: true},
	{name: "core.data_pages_per_op", unit: "count", lower: true},
	{name: "core.false_reads_per_op", unit: "count", lower: true},
	{name: "device.index_reads_per_op", unit: "count", lower: true},
	{name: "device.data_reads_per_op", unit: "count", lower: true},
	{name: "device.index_writes_per_op", unit: "count", lower: true},
	// Model output: the device's virtual clock, never wall time.
	{name: "device.virt_us_per_op", unit: "us", lower: true},
	{name: "pagestore.index_hit_ratio", unit: "ratio"},
	{name: "pagestore.data_hit_ratio", unit: "ratio"},
	{name: "maint.passes_per_s", unit: "1/s", lower: true},
	{name: "maint.leaves_compacted_per_s", unit: "1/s"},
	{name: "maint.fpp_end", unit: "ratio", lower: true},
	{name: "runtime.alloc_bytes_per_op", unit: "B", lower: true},
	{name: "runtime.gc_per_s", unit: "1/s", lower: true},
	{name: "trace.http_self_us_p50", unit: "us", lower: true},
	{name: "trace.http_self_us_p99", unit: "us", lower: true},
	{name: "trace.index_us_p50", unit: "us", lower: true},
	{name: "trace.index_us_p99", unit: "us", lower: true},
	{name: "trace.http_self_share", unit: "ratio", lower: true},
	{name: "trace.unjoined_frac", unit: "ratio", lower: true},
	{name: "trace.overhead_frac", unit: "ratio", lower: true},
}...)

// extra metrics are printed and saved with -out but left out of the
// result line: write_p99_us is missing where nothing writes, and the
// stall times read 0 wherever nothing is compacted.
var extra = []metric{
	{name: "write_p99_us", unit: "us", lower: true},
	{name: "maint.stall_max_ms", unit: "ms", lower: true},
	{name: "maint.stall_total_ms_per_s", unit: "ms/s", lower: true},
	{name: "samples", unit: "count"},
	{name: "read_samples", unit: "count"},
	{name: "write_samples", unit: "count"},
	{name: "trace.ops", unit: "count"},
}

func ladderMetrics() []metric {
	var out []metric
	for _, row := range ladderRows {
		out = append(out,
			metric{name: "ladder." + row + ".ns_op", unit: "ns", lower: true},
			metric{name: "ladder." + row + ".b_op", unit: "B", lower: true},
			metric{name: "ladder." + row + ".allocs_op", unit: "allocs", lower: true},
		)
	}
	return out
}

// samplesOf names the sample count printed beside each percentile.
var samplesOf = map[string]string{
	"latency_p50_us":         "samples",
	"latency_p99_us":         "samples",
	"read_p99_us":            "read_samples",
	"write_p99_us":           "write_samples",
	"trace.http_self_us_p50": "trace.ops",
	"trace.http_self_us_p99": "trace.ops",
	"trace.index_us_p50":     "trace.ops",
	"trace.index_us_p99":     "trace.ops",
}

// summary is one metric of one workload over a run's rounds. Value is
// the run's value: the median of the rounds, except for the metrics a
// run pools (throughput and latency percentiles), which are taken over
// every round's samples at once. Min and max are per-round values.
type summary struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Rounds []float64 `json:"rounds"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func summarize(unit string, values []float64) *summary {
	s := slices.Clone(values)
	slices.Sort(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return &summary{Unit: unit, Value: med, Rounds: values, Min: s[0], Max: s[len(s)-1]}
}

// workloadOut is one workload's outcome in a run.
type workloadOut struct {
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Checks    int                 `json:"checks"`
	Metrics   map[string]*summary `json:"metrics"`
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Seed      int64                   `json:"seed"`
	Rounds    int                     `json:"rounds"`
	Window    float64                 `json:"window_s"`
	Workloads map[string]*workloadOut `json:"workloads"`
}

// collect summarizes every defined metric present in any round; a
// metric in pooled takes its value from there.
func collect(rounds []map[string]float64, pooled map[string]float64) map[string]*summary {
	out := map[string]*summary{}
	for _, set := range [][]metric{endToEnd, perLayer, extra} {
		for _, m := range set {
			var vs []float64
			for _, r := range rounds {
				if v, ok := r[m.name]; ok {
					vs = append(vs, v)
				}
			}
			if len(vs) == 0 {
				continue
			}
			out[m.name] = summarize(m.unit, vs)
			if v, ok := pooled[m.name]; ok {
				out[m.name].Value = v
			}
		}
	}
	return out
}

// printHuman writes one line per metric: workload, name, value, unit,
// the per-round range, and beside each percentile its sample count.
func printHuman(w io.Writer, name string, wo *workloadOut) {
	for _, set := range [][]metric{endToEnd, perLayer, extra} {
		for _, m := range set {
			s, ok := wo.Metrics[m.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-10s %-40s %14.6g %-6s [%.6g .. %.6g]", name, m.name, s.Value, m.unit, s.Min, s.Max)
			if n, ok := wo.Metrics[samplesOf[m.name]]; ok {
				line += fmt.Sprintf(" n=%.0f", n.Value)
			}
			fmt.Fprintln(w, line)
		}
	}
	if wo.Attempted > 0 {
		fmt.Fprintf(w, "%-10s attempted %d, failed %d, correctness checks passed %d\n", name, wo.Attempted, wo.Failed, wo.Checks)
	}
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// writeResult prints the one-line JSON result of a single-workload run:
// the run's value of each given metric.
func writeResult(w io.Writer, wo *workloadOut, metrics []metric) error {
	line := resultLine{Correct: true, Attempted: wo.Attempted, Failed: wo.Failed, Metrics: map[string]resultValue{}}
	for _, m := range metrics {
		s, ok := wo.Metrics[m.name]
		if !ok {
			return fmt.Errorf("bfperf: metric %s was not measured", m.name)
		}
		line.Metrics[m.name] = resultValue{Value: s.Value, Unit: m.unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

func writeOutFile(path string, f *outFile) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readOutFile(path string) (*outFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("bfperf: %s: %w", path, err)
	}
	return &f, nil
}

// verdict compares one end-to-end metric of two runs. A side whose
// round spread, (max-min)/value, exceeds the bound is too noisy to call:
// the verdict is unresolved, or "not worse" when every change round
// beats every base round. That shows no regression, but it is no gain.
func verdict(m metric, base, change *summary) string {
	worse := func(a, b float64) bool { // a worse than b by more than the bound
		if m.lower {
			return a > b*(1+m.bound)
		}
		return a < b*(1-m.bound)
	}
	spread := func(s *summary) float64 { return (s.Max - s.Min) / math.Abs(s.Value) }
	if spread(base) > m.bound || spread(change) > m.bound {
		if (m.lower && change.Max < base.Min) || (!m.lower && change.Min > base.Max) {
			return "not worse"
		}
		return "unresolved"
	}
	switch {
	case worse(change.Value, base.Value):
		return "worse"
	case worse(base.Value, change.Value):
		return "better"
	}
	return "unchanged"
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// value and round range with a verdict. It reports whether any metric
// got worse.
func compareFiles(w io.Writer, basePath, changePath string) (bool, error) {
	base, err := readOutFile(basePath)
	if err != nil {
		return false, err
	}
	change, err := readOutFile(changePath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-10s %-20s %-6s %32s %32s %8s  %s\n", "workload", "metric", "unit", "base value [min .. max]", "change value [min .. max]", "change", "verdict")
	for _, s := range specs {
		b, c := base.Workloads[s.name], change.Workloads[s.name]
		if b == nil || c == nil {
			continue
		}
		for _, m := range endToEnd {
			bs, cs := b.Metrics[m.name], c.Metrics[m.name]
			if bs == nil || cs == nil {
				continue
			}
			v := verdict(m, bs, cs)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-10s %-20s %-6s %32s %32s %+7.1f%%  %s (bound %g)\n",
				s.name, m.name, m.unit, valueRange(bs), valueRange(cs), 100*(cs.Value-bs.Value)/bs.Value, v, m.bound)
		}
	}
	return anyWorse, nil
}

func valueRange(s *summary) string {
	return strings.TrimSpace(fmt.Sprintf("%.5g [%.5g .. %.5g]", s.Value, s.Min, s.Max))
}
