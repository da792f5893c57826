package bench

import (
	"regexp"
	"testing"
)

// serveScaleForTest mirrors the CI smoke scale of `bfbench -exp
// serve-load`: a small relation, a modest probe budget, real loopback
// connections.
func serveScaleForTest() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 20000
	s.Probes = 128
	return s
}

// TestServeLoadScalesWithConnections is the serving-layer acceptance
// gate: against the bftree backend, aggregate throughput at 64
// connections must be at least 4x the single-connection throughput.
// With real per-page device latency imposed during the measured
// window, one connection is latency-bound — it waits out every page
// read end to end — while 64 connections overlap those waits inside
// the server's handler pool, so the speedup holds even on one core.
func TestServeLoadScalesWithConnections(t *testing.T) {
	cells, err := ServeLoadSweep(serveScaleForTest(), []string{"bftree"}, []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(cells))
	}
	one, many := cells[0], cells[1]
	if one.Conns != 1 || many.Conns != 64 {
		t.Fatalf("unexpected levels: %d, %d", one.Conns, many.Conns)
	}
	if one.Result.Throughput <= 0 {
		t.Fatalf("1-connection throughput not measured: %+v", one.Result)
	}
	speedup := many.Result.Throughput / one.Result.Throughput
	if speedup < 4 {
		t.Errorf("64-connection speedup %.2fx < 4x: %.0f ops/s vs %.0f ops/s",
			speedup, many.Result.Throughput, one.Result.Throughput)
	}
}

// TestArtifactRegistryConsistent pins the contract between the
// Artifacts map, the experiment registry, and the flag table: every
// artifact belongs to a registered experiment that consumes -json,
// every json-consuming experiment owns exactly one artifact, and the
// filenames are unique and canonical (BENCH_<name>.json).
func TestArtifactRegistryConsistent(t *testing.T) {
	canonical := regexp.MustCompile(`^BENCH_[a-z]+\.json$`)
	seen := map[string]string{}
	for exp, name := range Artifacts {
		if _, ok := Experiments[exp]; !ok {
			t.Errorf("artifact %q belongs to unregistered experiment %q", name, exp)
		}
		consumesJSON := false
		for _, f := range ExperimentFlags(exp) {
			if f == "json" {
				consumesJSON = true
			}
		}
		if !consumesJSON {
			t.Errorf("experiment %q has artifact %q but does not declare the json flag", exp, name)
		}
		if !canonical.MatchString(name) {
			t.Errorf("artifact %q of %q is not canonical BENCH_<name>.json", name, exp)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("artifact %q claimed by both %q and %q", name, prev, exp)
		}
		seen[name] = exp
	}
	// The reverse direction: declaring -json without an artifact would
	// make `bfbench -json DIR` silently write nothing for that
	// experiment.
	for exp, flags := range experimentFlags {
		for _, f := range flags {
			if f == "json" && ArtifactFor(exp) == "" {
				t.Errorf("experiment %q declares the json flag but has no artifact", exp)
			}
		}
	}
	if ArtifactFor("no-such-experiment") != "" {
		t.Error("ArtifactFor should return \"\" for unknown experiments")
	}
}
