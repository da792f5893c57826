package bench

import (
	"fmt"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/workload"
)

// ConcurrentWorkerCounts is the worker sweep of the concurrent-probe
// experiment.
var ConcurrentWorkerCounts = []int{1, 2, 4, 8, 16}

// concurrentProbeLatency is the real per-I/O blocking time the
// experiment imposes on the Memory device (see Device.SetRealLatency).
// The paper's harness charges a virtual clock, which measures I/O *count*
// but cannot show concurrency: virtual time is additive no matter how
// many probers run. Making each page access block for a fixed real
// interval — outside all locks, like a device servicing overlapping
// requests — turns probe concurrency into measurable wall-clock
// throughput, independent of the host's core count. 200µs sits well
// above scheduler/timer granularity so the sleep dominates CPU cost.
const concurrentProbeLatency = 200 * time.Microsecond

// ConcurrentResult is one row of the sweep: aggregate throughput and
// tail latencies for a worker count.
type ConcurrentResult struct {
	Workers    int
	Probes     int
	Elapsed    time.Duration
	Throughput float64 // probes per second of wall time
	P50        time.Duration
	P99        time.Duration
}

// RunConcurrentProbes executes probes of keys against ix from the given
// number of workers through the shared Driver: worker w probes its
// deterministic quota slice of the key sequence, so the probed multiset
// is identical at any worker count.
func RunConcurrentProbes(ix index.Index, keys []uint64, workers, probes int) (*ConcurrentResult, error) {
	if workers <= 0 || probes <= 0 || len(keys) == 0 {
		return nil, fmt.Errorf("bench: concurrent probes need workers, probes and keys > 0 (got %d, %d, %d)",
			workers, probes, len(keys))
	}
	quotas := opQuotas(probes, workers)
	starts := make([]int, workers)
	for w := 1; w < workers; w++ {
		starts[w] = starts[w-1] + quotas[w-1]
	}
	res, err := Drive(ix, DriverConfig{
		Workers: workers,
		Ops:     probes,
		Source: func(w int) func() workload.Op {
			i := starts[w]
			return func() workload.Op {
				op := workload.Op{Kind: workload.OpSearch, Key: keys[i%len(keys)]}
				i++
				return op
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return &ConcurrentResult{
		Workers:    workers,
		Probes:     res.Ops,
		Elapsed:    res.Elapsed,
		Throughput: res.Throughput,
		P50:        res.P50,
		P99:        res.P99,
	}, nil
}

// ConcurrentProbeSweep builds the ATT1 BF-Tree on Memory devices with
// per-access real latency and measures probe throughput across the
// worker sweep. It returns one result per entry of workerCounts.
func ConcurrentProbeSweep(scale Scale, workerCounts []int) ([]*ConcurrentResult, error) {
	env, rel, ix, err := buildCell(memMem, 0, syntheticRel(scale, 1), "bftree", core.Options{FPP: 1e-3})
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	// Latency goes on after the build so construction stays instant.
	env.IdxDev.SetRealLatency(concurrentProbeLatency)
	env.DataDev.SetRealLatency(concurrentProbeLatency)
	defer env.IdxDev.SetRealLatency(0)
	defer env.DataDev.SetRealLatency(0)

	probes := scale.Probes
	if probes < 64 {
		probes = 64
	}
	var out []*ConcurrentResult
	for _, workers := range workerCounts {
		r, err := RunConcurrentProbes(ix, rel.probes, workers, probes)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunConcurrentProbe is the `concurrent-probe` experiment: aggregate
// probe throughput and p50/p99 latency at 1/2/4/8/16 workers on the
// Memory device, with each page access blocking for a fixed real
// interval. Scaling close to the worker count demonstrates that the
// read path has no global lock: probers overlap their (simulated) I/O
// waits exactly as they would overlap real device requests.
func RunConcurrentProbe(scale Scale) (*Table, error) {
	results, err := ConcurrentProbeSweep(scale, ConcurrentWorkerCounts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Concurrent probes: ATT1 BF-Tree on mem/mem, %v per page access", concurrentProbeLatency),
		Header: []string{"workers", "probes", "wall time", "probes/s", "speedup", "p50", "p99"},
		Notes: []string{
			"each page access blocks for the stated real latency outside all locks,",
			"so throughput scaling with workers measures read-path concurrency,",
			"not host core count; speedup is relative to the 1-worker row",
		},
	}
	base := results[0].Throughput
	for _, r := range results {
		t.AddRow(
			fmt.Sprint(r.Workers),
			fmt.Sprint(r.Probes),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2fx", r.Throughput/base),
			r.P50.Round(10*time.Microsecond).String(),
			r.P99.Round(10*time.Microsecond).String(),
		)
	}
	return t, nil
}
