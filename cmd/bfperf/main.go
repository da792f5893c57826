// Command bfperf is the wall-clock benchmark of the served BF-tree. It
// drives four closed-loop workloads through the real code paths (the
// HTTP server and load generator on loopback, or the index adapter in
// process) and reports what a user sees: set-up time, throughput,
// latency percentiles, index bytes per key and heap. A traced run adds
// per-layer numbers: a testing.Benchmark ladder over each layer's public
// functions, counts per operation, and spans that split every request
// between the HTTP layers and the index. Every answer is checked; a wrong
// one names its check and fails the run.
//
// Usage, from the repository root (run.sh builds into .bench_build/):
//
//	bash cmd/bfperf/run.sh -seed 1 -out a.json        # every workload, 3 rounds of 10s
//	bash cmd/bfperf/run.sh -compare a.json b.json     # verdict per workload and metric
//	bash cmd/bfperf/run.sh --workload oltp-http --seed 3 --seconds 10 --trace 0
//	bash cmd/bfperf/run.sh -workload point-zipf -ladder
//
// Each round builds a fresh index over the seed's relation, warms it up
// off the clock and measures one window; a metric is the median over the
// rounds. A single-workload run ends its output with one JSON line,
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics, or with -trace 1 the per-layer ones.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(defaults, os.Args[1:], os.Stdout, os.Stderr))
}

// settings fix the run's shape. Every run uses defaults; only the smoke
// test shrinks them.
type settings struct {
	tuples    uint64        // relation size
	rounds    int           // rounds per workload, each on a freshly built index
	warmup    time.Duration // overrides each workload's own warm-up when positive
	benchtime string        // ladder row length: a duration, or Nx iterations
}

var defaults = settings{tuples: 250000, rounds: 3, benchtime: "200ms"}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// run is the command; it returns the exit code.
func run(set settings, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl        = fs.String("workload", "all", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
		seed      = fs.Int64("seed", 1, "seed of the relation and of every operation stream")
		seconds   = fs.Float64("seconds", 30, fmt.Sprintf("measured seconds per workload, split evenly across %d rounds", set.rounds))
		trace     = fs.Int("trace", 0, "1: also run traced rounds and the ladder, and report per-layer metrics")
		ladderRun = fs.Bool("ladder", false, "run only the layer ladder")
		out       = fs.String("out", "", "write every metric's per-round values and median to this JSON file")
		spansOut  = fs.String("spans", filepath.Join(".bench_build", "bfperf-spans.jsonl"), "where a traced run writes its spans")
		compare   = fs.Bool("compare", false, "compare two -out files: bfperf -compare base.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bfperf: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bfperf: %v\n", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two files")
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	selected := specs
	if *wl != "all" {
		s, ok := specByName(*wl)
		if !ok {
			return usage("unknown workload %q", *wl)
		}
		selected = []*spec{s}
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return usage("need -seconds > 0 and -trace 0 or 1")
	}
	if err := setBenchtime(set.benchtime); err != nil {
		return fail(err)
	}

	fx, err := newFixture(set.tuples, *seed)
	if err != nil {
		return fail(err)
	}
	if *ladderRun {
		for _, s := range selected {
			vals, err := ladder(fx, s, *seed)
			if err != nil {
				return fail(err)
			}
			printHuman(stdout, s.name, &workloadOut{Metrics: collect([]map[string]float64{vals}, nil)})
		}
		return 0
	}

	r := &runner{
		fx:     fx,
		seed:   *seed,
		window: time.Duration(*seconds / float64(set.rounds) * float64(time.Second)),
		warmup: set.warmup,
		log:    stderr,
	}
	fmt.Fprintf(stdout, "bfperf: seed %d, %d tuples, %d rounds per workload of %v measured after %s warm-up, %d closed-loop workers\n",
		*seed, set.tuples, set.rounds, r.window, warmupLabel(r.warmup), workers)
	results, spans, err := r.runAll(selected, set.rounds, *trace == 1)
	var wrong *wrongAnswer
	if errors.As(err, &wrong) && len(selected) == 1 {
		fmt.Fprintf(stderr, "bfperf: %v\n", err)
		buf, _ := json.Marshal(resultLine{Correct: false, Metrics: map[string]resultValue{}})
		fmt.Fprintf(stdout, "%s\n", buf)
		return 1
	}
	if err != nil {
		return fail(err)
	}

	file := &outFile{Seed: *seed, Rounds: set.rounds, Window: r.window.Seconds(), Workloads: results}
	for _, s := range selected {
		printHuman(stdout, s.name, results[s.name])
	}
	if *out != "" {
		if err := writeOutFile(*out, file); err != nil {
			return fail(err)
		}
	}
	if *trace == 1 {
		if err := writeSpans(*spansOut, spans); err != nil {
			return fail(err)
		}
	}
	if len(selected) == 1 {
		metrics := endToEnd
		if *trace == 1 {
			metrics = perLayer
		}
		if err := writeResult(stdout, results[selected[0].name], metrics); err != nil {
			return fail(err)
		}
	}
	return 0
}

func warmupLabel(d time.Duration) string {
	if d > 0 {
		return d.String()
	}
	return "each workload's"
}

// tracedRound is one traced round's spans, kept for the span dump.
type tracedRound struct {
	workload string
	round    int
	spans    [][]opSpan
}

// runAll runs the rounds, interleaving the workloads within each round so
// host noise hits them alike. With trace, every round is followed by a
// traced twin on a fresh index, and the ladder runs once per workload at
// the end.
func (r *runner) runAll(selected []*spec, rounds int, trace bool) (map[string]*workloadOut, []tracedRound, error) {
	perRound := map[string][]map[string]float64{}
	lat := map[string]*latencies{}
	results := map[string]*workloadOut{}
	var traced []tracedRound
	for _, s := range selected {
		results[s.name] = &workloadOut{}
		lat[s.name] = &latencies{}
	}
	account := func(wo *workloadOut, o *roundOut, name string) {
		wo.Attempted += o.attempted
		wo.Failed += o.failed
		wo.Checks += o.checks
		if o.failure != nil {
			fmt.Fprintf(r.log, "bfperf: %s: %d ops failed, the first with: %v\n", name, o.failed, o.failure)
		}
	}
	for round := 0; round < rounds; round++ {
		for _, s := range selected {
			o, err := r.round(s, round, false)
			if err != nil {
				return nil, nil, fmt.Errorf("%s round %d: %w", s.name, round, err)
			}
			account(results[s.name], o, s.name)
			lat[s.name].merge(o.lat)
			if trace {
				t, err := r.round(s, round, true)
				if err != nil {
					return nil, nil, fmt.Errorf("%s traced round %d: %w", s.name, round, err)
				}
				account(results[s.name], t, s.name)
				for name, v := range t.values {
					if strings.HasPrefix(name, "trace.") {
						o.values[name] = v
					}
				}
				o.values["trace.overhead_frac"] = 1 - ratio(t.values["throughput_ops_s"], o.values["throughput_ops_s"])
				traced = append(traced, tracedRound{workload: s.name, round: round, spans: sampleSpans(t.spans)})
			}
			perRound[s.name] = append(perRound[s.name], o.values)
		}
	}
	if trace {
		for _, s := range selected {
			vals, err := ladder(r.fx, s, r.seed)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", s.name, err)
			}
			for name, v := range vals {
				perRound[s.name][0][name] = v
			}
		}
	}
	for _, s := range selected {
		pooled := map[string]float64{}
		lat[s.name].metrics(pooled)
		results[s.name].Metrics = collect(perRound[s.name], pooled)
	}
	return results, traced, nil
}

// maxSpansPerRound caps the spans kept for the dump: a point-zipf round
// alone runs hundreds of thousands of ops, so larger rounds are sampled
// at an even stride.
const maxSpansPerRound = 20000

func sampleSpans(spans [][]opSpan) [][]opSpan {
	n := 0
	for _, ops := range spans {
		n += len(ops)
	}
	stride := max(1, (n+maxSpansPerRound-1)/maxSpansPerRound)
	out := make([][]opSpan, len(spans))
	for w, ops := range spans {
		for i := 0; i < len(ops); i += stride {
			out[w] = append(out[w], ops[i])
		}
	}
	return out
}

type spanLine struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Worker   int    `json:"worker"`
	Op       string `json:"op"`
	Key      uint64 `json:"key"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	IndexNs  int64  `json:"index_ns"`
	Calls    int32  `json:"calls"`
}

// writeSpans writes the traced rounds' op spans, with the index time and
// call count joined into each, as JSON lines.
func writeSpans(path string, rounds []tracedRound) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, tr := range rounds {
		for w, ops := range tr.spans {
			for _, o := range ops {
				if err := enc.Encode(spanLine{
					Workload: tr.workload, Round: tr.round, Worker: w,
					Op: o.kind.String(), Key: o.key,
					StartNs: o.start, EndNs: o.end, IndexNs: o.index, Calls: o.calls,
				}); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
