package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Record is one machine-readable result row of a streaming/batching
// experiment, the schema behind BENCH_scan.json and BENCH_batch.json.
// Latencies are virtual-I/O seconds per operation (scan-stream) or per
// key (batched-probe); throughput is operations (or keys) per virtual
// second.
type Record struct {
	Experiment string `json:"experiment"`
	Backend    string `json:"backend"`
	// Mode labels the scan-stream variant: "materialized", "stream", or
	// "limit-k".
	Mode string `json:"mode,omitempty"`
	// Preset and Dist label a mixed-workload cell: the workload.Mix
	// preset name and the key distribution it ran under.
	Preset  string `json:"preset,omitempty"`
	Dist    string `json:"dist,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// Ops is the measured operation count of a mixed-workload cell.
	Ops int `json:"ops,omitempty"`
	// Batch is the MultiSearch batch size (batched-probe) or the LIMIT k
	// (scan-stream limit modes).
	Batch      int     `json:"batch,omitempty"`
	Throughput float64 `json:"throughput"`
	P50        float64 `json:"p50"`
	P99        float64 `json:"p99"`
	// FirstTuple is a scan-stream mode's mean time (seconds) until its
	// first tuple is available: the whole call for the materialized
	// scan, the first Next for a stream. It is the column that tells a
	// drained stream from the materialized scan, whose pages and
	// latencies are the same.
	FirstTuple float64 `json:"first_tuple,omitempty"`
	// PagesPerOp is the total index+data pages a scan-stream operation
	// read; IndexReadsPerKey the index pages a batched probe charged per
	// key — the two headline economies of the experiments.
	PagesPerOp       float64 `json:"pages_per_op,omitempty"`
	IndexReadsPerKey float64 `json:"index_reads_per_key,omitempty"`
	// Moved reports a mixed-workload cell's capability redistribution
	// ("-" when the backend ran the preset verbatim).
	Moved string `json:"moved,omitempty"`
	// MaxStallMS / TotalStallMS are the compaction-stall experiment's
	// exclusive-lock hold times (milliseconds of wall clock): the
	// longest single writer stall and the sum over the run.
	MaxStallMS   float64 `json:"max_stall_ms,omitempty"`
	TotalStallMS float64 `json:"total_stall_ms,omitempty"`
	// Compactions / IncrementalPasses / LeavesCompacted count the
	// whole-tree rebuilds, incremental maintenance passes, and leaves
	// rewritten incrementally over a compaction-stall run.
	Compactions       uint64 `json:"compactions,omitempty"`
	IncrementalPasses uint64 `json:"incremental_passes,omitempty"`
	LeavesCompacted   uint64 `json:"leaves_compacted,omitempty"`
	// MaxFPP is the highest sampled effective false-positive rate.
	MaxFPP float64 `json:"max_fpp,omitempty"`
}

// Artifacts maps each JSON-emitting experiment to its canonical
// artifact filename — the single source of truth for what `-json DIR`
// writes where. `bfbench -exp all -json DIR` emits every file into the
// one directory without collision because each experiment owns exactly
// one name here; the README's artifact table documents this mapping.
var Artifacts = map[string]string{
	"scan-stream":      "BENCH_scan.json",
	"batched-probe":    "BENCH_batch.json",
	"point-lookup":     "BENCH_point.json",
	"mixed-workload":   "BENCH_mixed.json",
	"compaction-stall": "BENCH_compact.json",
	"serve-load":       "BENCH_serve.json",
}

// ArtifactFor returns the canonical artifact filename of an experiment,
// or "" when the experiment emits no JSON records.
func ArtifactFor(experiment string) string {
	return Artifacts[experiment]
}

// WriteRecords writes records as an indented JSON array at dir/name.
func WriteRecords(dir, name string, records []Record) error {
	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}

// writeArtifact writes records to the experiment's canonical artifact
// path when the scale asked for JSON output (JSONDir non-empty) and is
// a no-op otherwise, so experiments emit their files only under
// `bfbench -json` / `make bench-json`. Experiments must not pick
// filenames themselves — the name comes from the Artifacts registry,
// so the README table, bfbench's help and the emitted files cannot
// disagree.
func writeArtifact(scale Scale, experiment string, records []Record) error {
	if scale.JSONDir == "" {
		return nil
	}
	name := ArtifactFor(experiment)
	if name == "" {
		return fmt.Errorf("bench: experiment %q has no registered artifact", experiment)
	}
	return WriteRecords(scale.JSONDir, name, records)
}
