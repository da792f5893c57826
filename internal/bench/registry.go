package bench

import (
	"fmt"
	"sort"
)

// Runner executes one experiment at a scale and returns its table.
type Runner func(Scale) (*Table, error)

// Experiments maps experiment ids (the `-exp` values of cmd/bfbench and
// the ids of DESIGN.md's per-experiment index) to runners.
var Experiments = map[string]Runner{
	"fig1a":  RunFig1a,
	"fig1b":  RunFig1b,
	"fig2":   func(Scale) (*Table, error) { return RunFig2(), nil },
	"fig4a":  func(Scale) (*Table, error) { return RunFig4a(), nil },
	"fig4b":  func(Scale) (*Table, error) { return RunFig4b(), nil },
	"table2": RunTable2,
	"table3": RunTable3,
	"fig5a":  RunFig5a,
	"fig5b":  RunFig5b,
	"fig6":   RunFig6,
	"fig7":   RunFig7,
	"fig8a":  RunFig8a,
	"fig8b":  RunFig8b,
	"fig9":   RunFig9,
	"fig10":  RunFig10,
	"fig11":  RunFig11,
	"fig12a": RunFig12a,
	"fig12b": RunFig12b,
	"fig13":  RunFig13,
	"fig14":  func(Scale) (*Table, error) { return RunFig14(), nil },

	"concurrent-probe": RunConcurrentProbe,
	"mixed-rw":         RunMixedRW,
	"multi-writer":     RunMultiWriter,
	"churn":            RunChurn,
	"scan-stream":      RunScanStream,
	"batched-probe":    RunBatchedProbe,
	"shard-scale":      RunShardScale,
	"mixed-workload":   RunMixedWorkload,
	"compaction-stall": RunCompactionStall,
	"serve-load":       RunServeLoad,

	"point-lookup": RunPointLookup,

	"ablation-granularity": RunAblationGranularity,
	"ablation-hashes":      RunAblationHashCount,
	"ablation-deletes":     RunAblationDeletes,
	"ablation-buffer":      RunAblationBufferedInserts,
}

// experimentFlags declares which of the workload-shaping Scale knobs
// (the optional bfbench flags) each experiment consumes. bfbench keys
// its unused-flag validation on this: overriding -index for an
// experiment that ignores it is an error, not a silent no-op.
var experimentFlags = map[string][]string{
	"table3":           {"index"},
	"fig5a":            {"index"},
	"fig8a":            {"index"},
	"scan-stream":      {"index", "json"},
	"batched-probe":    {"index", "json"},
	"point-lookup":     {"index", "json"},
	"shard-scale":      {"skew"},
	"mixed-workload":   {"index", "skew", "mix", "json"},
	"compaction-stall": {"json"},
	"serve-load":       {"index", "json"},
}

// ExperimentFlags returns the workload-shaping flags the named
// experiment consumes ("index", "skew", "mix", "json"); experiments
// absent from the table consume none.
func ExperimentFlags(name string) []string {
	return experimentFlags[name]
}

// ExperimentNames returns the registered ids in a stable order.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments))
	for n := range Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id.
func Run(name string, scale Scale) (*Table, error) {
	r, ok := Experiments[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, ExperimentNames())
	}
	return r(scale)
}
