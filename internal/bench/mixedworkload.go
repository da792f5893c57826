package bench

import (
	"fmt"
	"strings"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// The mixed-workload experiment is the workload engine end to end: every
// preset Mix × key distribution runs through DriveMix against every
// registered backend, so one table (and BENCH_mixed.json) compares how
// the five structures absorb the same blended load. Backends missing a
// capability still run the preset — the redistribution column says what
// was folded where.

const (
	// mixedWorkloadWorkers is the driver pool of every cell.
	mixedWorkloadWorkers = 4

	// mixedWorkloadLatency is the real per-I/O blocking time imposed
	// during the measured window (see Device.SetRealLatency): turns the
	// mixed pool's concurrency into wall-clock throughput.
	mixedWorkloadLatency = 50 * time.Microsecond

	// mixedWorkloadWarmup ops per worker run off the clock before the
	// measured window opens.
	mixedWorkloadWarmup = 8
)

// mixedFixture is one relation prepared for mixed driving: the key
// domain (ranks → keys), the ref resolver writes need, and the build
// options of every index over it. The data device is shared across
// cells (the relation is read-only under the mixed ops — inserts re-add
// existing associations); each cell builds its index fresh.
type mixedFixture struct {
	file     *heapfile.File
	dataDev  *device.Device
	fieldIdx int
	opts     index.Options
	numKeys  uint64
	keyAt    func(rank uint64) uint64 // nil: dense identity domain
	refOf    func(key uint64) index.Ref
	unique   bool // primary-key domain: probe via SearchFirst
}

// mixedSyntheticFixture prepares the synthetic relation's PK domain:
// dense ranks 0..MaxPK, one tuple per key, refs by tuple ordinal.
func mixedSyntheticFixture(scale Scale) (*mixedFixture, error) {
	dataDev := device.New(device.Memory, PageSize)
	syn, err := workload.GenerateSynthetic(pagestore.New(dataDev), scale.SyntheticTuples, 11, scale.Seed)
	if err != nil {
		return nil, err
	}
	file := syn.File
	per := uint64(file.TuplesPerPage())
	return &mixedFixture{
		file:     file,
		dataDev:  dataDev,
		fieldIdx: 0,
		opts:     index.Options{BFTree: core.Options{FPP: 1e-3}},
		numKeys:  syn.MaxPK + 1,
		refOf: func(k uint64) index.Ref {
			return index.Ref{Page: file.PageOf(k), Slot: uint16(k % per)}
		},
		unique: true,
	}, nil
}

// mixedSHDFixture prepares the SHD timestamp domain for the timeseries
// preset: ranks are the sorted distinct timestamps, refs point at each
// timestamp's first tuple (timestamps are nondecreasing in file order,
// so first occurrences are the cardinality prefix sums).
func mixedSHDFixture(scale Scale) (*mixedFixture, error) {
	dataDev := device.New(device.Memory, PageSize)
	shd, err := workload.GenerateSHD(pagestore.New(dataDev), scale.SHDTuples, scale.Seed)
	if err != nil {
		return nil, err
	}
	keys := workload.SortedDistinct(shd.Cards)
	per := uint64(shd.File.TuplesPerPage())
	refs := make(map[uint64]index.Ref, len(keys))
	ord := uint64(0)
	for _, k := range keys {
		refs[k] = index.Ref{Page: shd.File.PageOf(ord), Slot: uint16(ord % per)}
		ord += shd.Cards[k]
	}
	return &mixedFixture{
		file:     shd.File,
		dataDev:  dataDev,
		fieldIdx: workload.SHDSchema.FieldIndex("timestamp"),
		opts:     index.Options{BFTree: core.Options{FPP: 1e-3}, DedupKeys: true},
		numKeys:  uint64(len(keys)),
		keyAt:    func(rank uint64) uint64 { return keys[rank] },
		refOf:    func(k uint64) index.Ref { return refs[k] },
		unique:   false,
	}, nil
}

// mixedDistSpec is one key-distribution cell of a preset.
type mixedDistSpec struct {
	dist workload.Dist
	skew float64
}

// mixedWorkloadDists returns the distribution cells of a preset: the
// append-mostly timeseries pairs with latest-key tailing readers, every
// other preset runs uniform and Zipfian (skew from -skew when above 1,
// else a default hot-set exponent).
func mixedWorkloadDists(preset workload.Mix, scale Scale) []mixedDistSpec {
	if preset.Monotonic {
		return []mixedDistSpec{{dist: workload.DistLatest}}
	}
	z := scale.Skew
	if z <= 1 {
		z = 1.2
	}
	return []mixedDistSpec{
		{dist: workload.DistUniform},
		{dist: workload.DistZipf, skew: z},
	}
}

// mixedMovesLabel renders a redistribution for the table and JSON rows.
func mixedMovesLabel(moves []workload.Move) string {
	if len(moves) == 0 {
		return "-"
	}
	parts := make([]string, len(moves))
	for i, m := range moves {
		parts[i] = m.String()
	}
	return strings.Join(parts, ", ")
}

// MixedWorkloadCell is one measured (backend, preset, dist) cell.
type MixedWorkloadCell struct {
	Backend string
	Preset  string
	Dist    workload.Dist
	Skew    float64
	Result  *DriverResult
}

// MixedWorkloadSweep runs every requested preset × distribution against
// every requested backend through DriveMix, which serializes the writers
// of backends without the ConcurrentWriters trait (readers still
// overlap); the per-cell index is built fresh on its own Memory device
// and real latency applies only during the measured window.
func MixedWorkloadSweep(scale Scale, names []string, presets []workload.Mix) ([]*MixedWorkloadCell, error) {
	ops := scale.Probes / 4
	if ops < 64 {
		ops = 64
	}
	var synFx, shdFx *mixedFixture
	fixtureFor := func(preset workload.Mix) (*mixedFixture, error) {
		var err error
		if preset.Monotonic {
			if shdFx == nil {
				shdFx, err = mixedSHDFixture(scale)
			}
			return shdFx, err
		}
		if synFx == nil {
			synFx, err = mixedSyntheticFixture(scale)
		}
		return synFx, err
	}

	var out []*MixedWorkloadCell
	for _, name := range names {
		for _, preset := range presets {
			fx, err := fixtureFor(preset)
			if err != nil {
				return nil, err
			}
			for _, ds := range mixedWorkloadDists(preset, scale) {
				idxDev := device.New(device.Memory, PageSize)
				ix, err := index.New(name, pagestore.New(idxDev), fx.file, fx.fieldIdx, fx.opts)
				if err != nil {
					return nil, err
				}
				idxDev.SetRealLatency(mixedWorkloadLatency)
				fx.dataDev.SetRealLatency(mixedWorkloadLatency)
				res, derr := DriveMix(ix, MixConfig{
					Mix:            preset,
					Dist:           ds.dist,
					Skew:           ds.skew,
					NumKeys:        fx.numKeys,
					KeyAt:          fx.keyAt,
					Seed:           scale.Seed,
					Workers:        mixedWorkloadWorkers,
					Ops:            ops,
					Warmup:         mixedWorkloadWarmup,
					RefOf:          fx.refOf,
					UseSearchFirst: fx.unique,
				})
				idxDev.SetRealLatency(0)
				fx.dataDev.SetRealLatency(0)
				cerr := ix.Close()
				if derr != nil {
					return nil, fmt.Errorf("bench: mixed-workload %s/%s/%v: %w", name, preset.Name, ds.dist, derr)
				}
				if cerr != nil {
					return nil, cerr
				}
				out = append(out, &MixedWorkloadCell{
					Backend: name,
					Preset:  preset.Name,
					Dist:    ds.dist,
					Skew:    ds.skew,
					Result:  res,
				})
			}
		}
	}
	return out, nil
}

// RunMixedWorkload is the `mixed-workload` experiment: the preset ×
// distribution matrix across every registered backend (`-index=each` or
// unset; a single name narrows it), driven by the shared workload
// engine. `-mix` narrows to one preset, `-skew` sets the Zipfian cells'
// exponent, and `-json` also writes the rows as BENCH_mixed.json.
func RunMixedWorkload(scale Scale) (*Table, error) {
	names := []string{scale.IndexBackend()}
	if scale.Index == "each" || scale.Index == "" {
		names = index.Backends()
	}
	presets := workload.Presets()
	if scale.Mix != "" {
		m, err := workload.MixByName(scale.Mix)
		if err != nil {
			return nil, err
		}
		presets = []workload.Mix{m}
	}
	cells, err := MixedWorkloadSweep(scale, names, presets)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Mixed workloads: %d workers, %v per page access",
			mixedWorkloadWorkers, mixedWorkloadLatency),
		Header: []string{"backend", "preset", "dist", "ops", "wall", "ops/s", "p50", "p99", "redistributed"},
		Notes: []string{
			"every cell drives the named preset through the shared workload engine",
			"(DriveMix): per-worker deterministic op streams from -seed, capability",
			"redistribution before any op is drawn (the last column reports the",
			"folds), serialized writers for backends without the concurrent-writer",
			"trait. timeseries runs on the SHD timestamp domain with latest-key",
			"readers; the other presets run the synthetic PK domain.",
		},
	}
	var records []Record
	for _, c := range cells {
		r := c.Result
		t.AddRow(
			c.Backend,
			c.Preset,
			c.Dist.String(),
			fmt.Sprint(r.Ops),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			r.P50.Round(10*time.Microsecond).String(),
			r.P99.Round(10*time.Microsecond).String(),
			mixedMovesLabel(r.Moves),
		)
		records = append(records, Record{
			Experiment: "mixed-workload",
			Backend:    c.Backend,
			Preset:     c.Preset,
			Dist:       c.Dist.String(),
			Workers:    r.Workers,
			Ops:        r.Ops,
			Throughput: r.Throughput,
			P50:        r.P50.Seconds(),
			P99:        r.P99.Seconds(),
			Moved:      mixedMovesLabel(r.Moves),
		})
	}
	if err := writeArtifact(scale, "mixed-workload", records); err != nil {
		return nil, err
	}
	return t, nil
}
