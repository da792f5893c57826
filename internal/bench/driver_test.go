package bench

import (
	"fmt"
	"reflect"
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// driverTestFixture builds a small synthetic PK fixture shared by the
// driver tests (the relation is read-only under mixed driving; each
// test builds its own index over it).
func driverTestFixture(t *testing.T) *mixedFixture {
	t.Helper()
	fx, err := mixedSyntheticFixture(Scale{SyntheticTuples: 4096, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// driverTestIndex builds one backend over the fixture on a fresh store.
func driverTestIndex(t *testing.T, fx *mixedFixture, name string) index.Index {
	t.Helper()
	ix, err := index.New(name, pagestore.New(device.New(device.Memory, PageSize)),
		fx.file, fx.fieldIdx, fx.opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestDriverGoldenModel drives every preset against every backend with
// one worker and replays the executed op sequence against a brute-force
// model: a key the model holds live must be found, a key it deleted
// must be absent on exact backends (approximate backends may still
// surface the physically present tuple — their deletes drop the filter
// claim, not the data page). The redistribution the driver applied must
// match what the mix declares for the target's capabilities.
func TestDriverGoldenModel(t *testing.T) {
	fx := driverTestFixture(t)
	for _, name := range index.Backends() {
		backend, ok := index.Lookup(name)
		if !ok {
			t.Fatalf("registry lost backend %q", name)
		}
		for _, preset := range workload.Presets() {
			t.Run(fmt.Sprintf("%s/%s", name, preset.Name), func(t *testing.T) {
				ix := driverTestIndex(t, fx, name)
				defer ix.Close()

				// live holds the model state of every touched key; keys it
				// has never seen are live from the bulk load.
				live := make(map[uint64]bool)
				const ops = 400
				res, err := DriveMix(ix, MixConfig{
					Mix:            preset,
					Dist:           workload.DistUniform,
					NumKeys:        fx.numKeys,
					Seed:           11,
					Workers:        1,
					Ops:            ops,
					RefOf:          fx.refOf,
					UseSearchFirst: true,
					OnOp: func(_, _ int, op workload.Op) {
						switch op.Kind {
						case workload.OpInsert:
							live[op.Key] = true
						case workload.OpDelete:
							live[op.Key] = false
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops != ops {
					t.Fatalf("measured %d ops, want %d", res.Ops, ops)
				}
				var kindOps int
				for k := workload.OpKind(0); k < workload.NumOpKinds; k++ {
					kindOps += res.Kinds[k].Ops
				}
				if kindOps != ops {
					t.Fatalf("per-kind ops sum to %d, want %d", kindOps, ops)
				}
				_, wantMoves := preset.Redistribute(targetCaps(ix))
				if !reflect.DeepEqual(res.Moves, wantMoves) {
					t.Fatalf("driver moves %v, want %v", res.Moves, wantMoves)
				}

				for k := uint64(0); k < fx.numKeys; k++ {
					r, err := ix.SearchFirst(k)
					if err != nil {
						t.Fatal(err)
					}
					state, seen := live[k]
					switch {
					case !seen || state:
						if len(r.Tuples) == 0 {
							t.Fatalf("key %d live in model but not found", k)
						}
					case !backend.Approximate:
						if len(r.Tuples) != 0 {
							t.Fatalf("key %d deleted in model but %s found %d tuples",
								k, name, len(r.Tuples))
						}
					}
				}
			})
		}
	}
}

// TestDriverDeterminism runs the same seeded mix twice against fresh
// indexes and requires byte-identical per-worker op sequences — the
// reproducibility contract of the splitmix64 sub-streams.
func TestDriverDeterminism(t *testing.T) {
	fx := driverTestFixture(t)
	const workers = 4
	run := func() [][]workload.Op {
		ix := driverTestIndex(t, fx, "bftree")
		defer ix.Close()
		seqs := make([][]workload.Op, workers)
		_, err := DriveMix(ix, MixConfig{
			Mix:     workload.OLTPMix(),
			Dist:    workload.DistZipf,
			Skew:    1.3,
			NumKeys: fx.numKeys,
			Seed:    99,
			Workers: workers,
			Ops:     256,
			RefOf:   fx.refOf,
			OnOp: func(w, _ int, op workload.Op) {
				seqs[w] = append(seqs[w], op)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs with identical (seed, mix, workers) drew different op sequences")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("workers 0 and 1 drew identical sequences; sub-streams not split")
	}
}

// TestDriverConcurrentMixed drives the oltp preset with four workers
// against every backend — concurrent mixed writers and readers on
// backends with the ConcurrentWriters trait, writers Drive serializes
// behind overlapping readers on the rest. Run with -race (the `make mixed`
// target); correctness here is "no data race, no error, full budget".
func TestDriverConcurrentMixed(t *testing.T) {
	fx := driverTestFixture(t)
	for _, name := range index.Backends() {
		t.Run(name, func(t *testing.T) {
			ix := driverTestIndex(t, fx, name)
			defer ix.Close()
			const ops = 256
			res, err := DriveMix(ix, MixConfig{
				Mix:            workload.OLTPMix(),
				Dist:           workload.DistUniform,
				NumKeys:        fx.numKeys,
				Seed:           5,
				Workers:        4,
				Ops:            ops,
				Warmup:         4,
				RefOf:          fx.refOf,
				UseSearchFirst: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != ops {
				t.Fatalf("measured %d ops, want %d", res.Ops, ops)
			}
			if res.Throughput <= 0 {
				t.Fatal("throughput not positive")
			}
		})
	}
}
