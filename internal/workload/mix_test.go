package workload

import (
	"math"
	"reflect"
	"testing"
)

func TestPresetWeightsSumToOne(t *testing.T) {
	for _, m := range Presets() {
		if math.Abs(m.TotalWeight()-1) > 1e-9 {
			t.Errorf("%s: weights sum to %g, want 1", m.Name, m.TotalWeight())
		}
	}
	if _, err := MixByName("oltp"); err != nil {
		t.Fatalf("oltp preset missing: %v", err)
	}
	if _, err := MixByName("nope"); err == nil {
		t.Fatal("unknown mix name did not error")
	}
	if got, want := len(MixNames()), 4; got != want {
		t.Fatalf("have %d presets, want %d", got, want)
	}
}

func TestPresetHeadlineRatios(t *testing.T) {
	if w := OLTPMix().WriteFraction(); math.Abs(w-0.10) > 1e-9 {
		t.Errorf("oltp write fraction %g, want 0.10", w)
	}
	if w := OLAPMix().WriteFraction(); w != 0 {
		t.Errorf("olap write fraction %g, want 0 (read-only)", w)
	}
	ts := TimeseriesMix()
	if !ts.Monotonic {
		t.Error("timeseries preset must be monotonic")
	}
	if ts.WriteFraction() < 0.8 {
		t.Errorf("timeseries write fraction %g, want append-mostly (≥ 0.8)", ts.WriteFraction())
	}
}

func TestRedistribute(t *testing.T) {
	m := OLTPMix()

	full, moves := m.Redistribute(Caps{Delete: true})
	if len(moves) != 0 {
		t.Errorf("full caps produced moves: %v", moves)
	}
	if full.Weights != m.Weights {
		t.Error("full caps changed weights")
	}

	// No Delete (bptree and fdtree): deletes become inserts.
	noDel, moves := m.Redistribute(Caps{})
	if noDel.Weights[OpDelete] != 0 {
		t.Error("delete weight not moved")
	}
	wantIns := m.Weights[OpInsert] + m.Weights[OpDelete]
	if math.Abs(noDel.Weights[OpInsert]-wantIns) > 1e-9 {
		t.Errorf("insert weight %g, want %g", noDel.Weights[OpInsert], wantIns)
	}
	if len(moves) != 1 || moves[0].From != OpDelete || moves[0].To != OpInsert {
		t.Errorf("moves %v, want delete→insert", moves)
	}
	if math.Abs(noDel.TotalWeight()-m.TotalWeight()) > 1e-9 {
		t.Errorf("redistribution changed total weight: %g", noDel.TotalWeight())
	}

	// A mix without deletes runs unchanged on any target.
	ro, moves := ReportingMix().Redistribute(Caps{})
	if len(moves) != 0 || ro.Weights != ReportingMix().Weights {
		t.Errorf("delete-free mix redistributed: %v, %v", moves, ro.Weights)
	}
}

func TestParseDist(t *testing.T) {
	for _, name := range []string{"uniform", "zipf", "latest"} {
		d, err := ParseDist(name)
		if err != nil {
			t.Fatalf("ParseDist(%q): %v", name, err)
		}
		if d.String() != name {
			t.Errorf("round trip %q → %v", name, d)
		}
	}
	if _, err := ParseDist("gauss"); err == nil {
		t.Fatal("unknown dist did not error")
	}
}

func drawOps(t *testing.T, mix Mix, cfg StreamConfig, n int) []Op {
	t.Helper()
	s, err := NewOpStream(mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = s.Next()
	}
	return ops
}

func TestOpStreamDeterminism(t *testing.T) {
	cfg := StreamConfig{Dist: DistZipf, Skew: 1.5, NumKeys: 4096, Worker: 1, Workers: 4, Seed: 42}
	a := drawOps(t, OLTPMix(), cfg, 300)
	b := drawOps(t, OLTPMix(), cfg, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (mix, config) produced different op sequences")
	}
	cfg2 := cfg
	cfg2.Worker = 2
	c := drawOps(t, OLTPMix(), cfg2, 300)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different workers produced identical op sequences")
	}
}

func TestOpStreamDomain(t *testing.T) {
	const n = 1000
	for _, mix := range Presets() {
		cfg := StreamConfig{Dist: DistUniform, NumKeys: n, Workers: 2, Seed: 7}
		if mix.Name == "timeseries" {
			cfg.Dist = DistLatest
		}
		for _, op := range drawOps(t, mix, cfg, 500) {
			check := func(k uint64) {
				if k >= n {
					t.Fatalf("%s: key %d outside domain [0,%d)", mix.Name, k, n)
				}
			}
			check(op.Key)
			if op.Kind == OpRangeScan || op.Kind == OpScanLimit {
				check(op.Hi)
				if op.Hi < op.Key {
					t.Fatalf("%s: inverted range [%d,%d]", mix.Name, op.Key, op.Hi)
				}
			}
			for _, k := range op.Keys {
				check(k)
			}
			if op.Kind == OpScanLimit && op.Limit <= 0 {
				t.Fatalf("%s: scan-limit without a limit", mix.Name)
			}
		}
	}
}

func TestOpStreamMonotonicInserts(t *testing.T) {
	cfg := StreamConfig{Dist: DistLatest, NumKeys: 1 << 20, Worker: 1, Workers: 4, Seed: 9}
	ops := drawOps(t, TimeseriesMix(), cfg, 400)
	want := uint64(1) // worker 1 strides 1, 5, 9, …
	for _, op := range ops {
		if op.Kind != OpInsert {
			continue
		}
		if op.Key != want {
			t.Fatalf("monotonic insert key %d, want %d", op.Key, want)
		}
		want += 4
	}
	if want == 1 {
		t.Fatal("timeseries stream drew no inserts")
	}
}

func TestRanksZipfConcentrates(t *testing.T) {
	const n, draws = 64, 4000
	counts := make([]int, n)
	r := NewRanks(DistZipf, 8, n, SubStream(3, 0))
	for i := 0; i < draws; i++ {
		counts[r.Rank()]++
	}
	if counts[0] < draws/2 {
		t.Errorf("skew 8 put only %d/%d draws on rank 0", counts[0], draws)
	}
	// Skew ≤ 1 is uniform, matching ZipfRanks' convention.
	u := NewRanks(DistZipf, 1, n, SubStream(3, 0))
	hot := 0
	for i := 0; i < draws; i++ {
		if u.Rank() == 0 {
			hot++
		}
	}
	if hot > draws/8 {
		t.Errorf("skew 1 concentrated %d/%d draws on rank 0", hot, draws)
	}
}

func TestRanksLatestFollowsFrontier(t *testing.T) {
	r := NewRanks(DistLatest, 0, 1<<20, SubStream(5, 0))
	r.Observe(100)
	for i := 0; i < 200; i++ {
		k := r.Rank()
		if k > 100 {
			t.Fatalf("latest draw %d above frontier 100", k)
		}
	}
}

func TestSortedDistinct(t *testing.T) {
	got := SortedDistinct(map[uint64]uint64{9: 1, 3: 2, 7: 5})
	want := []uint64{3, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedDistinct = %v, want %v", got, want)
	}
}
