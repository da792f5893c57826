// Package bench drives the paper's experiments (Section 6): it builds
// the three workloads on simulated devices, runs the index probes of
// every figure and table, and renders the same rows and series the paper
// reports. Each experiment of DESIGN.md's per-experiment index has a
// Run* function here and a `bfbench -exp` alias.
//
// Every index is built and measured through the unified bftree/index
// API: one cell path (measureCell) serves the BF-Tree and every
// baseline alike, so the paper's comparison experiments are registry
// walks and any point-lookup experiment runs against any registered
// backend (`bfbench -index=...`).
package bench

import (
	"fmt"
	"math"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// PageSize is the fixed page size of all experiments (Section 6.1).
const PageSize = 4096

// StorageConfig names one of the paper's five storage configurations:
// where the index lives × where the data lives.
type StorageConfig struct {
	Name  string
	Index device.Kind
	Data  device.Kind
}

// FiveConfigs returns the paper's five configurations in the order of
// Figures 5 and 8: data on HDD with index in memory/SSD/HDD, then data
// on SSD with index in memory/SSD.
func FiveConfigs() []StorageConfig {
	return []StorageConfig{
		{Name: "mem/HDD", Index: device.Memory, Data: device.HDD},
		{Name: "SSD/HDD", Index: device.SSD, Data: device.HDD},
		{Name: "HDD/HDD", Index: device.HDD, Data: device.HDD},
		{Name: "mem/SSD", Index: device.Memory, Data: device.SSD},
		{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD},
	}
}

// memMem and ssdSSD are the cells of the experiments that fix one
// storage configuration.
var (
	memMem = StorageConfig{Name: "mem/mem", Index: device.Memory, Data: device.Memory}
	ssdSSD = StorageConfig{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD}
)

// WarmConfigs returns the three configurations of the warm-cache
// figures (7, 10, 12b): the memory-resident-index cases are excluded
// because warming changes nothing there.
func WarmConfigs() []StorageConfig {
	return []StorageConfig{
		{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD},
		{Name: "SSD/HDD", Index: device.SSD, Data: device.HDD},
		{Name: "HDD/HDD", Index: device.HDD, Data: device.HDD},
	}
}

// Scale sets the dataset sizes. The paper uses a 1 GB synthetic relation
// (4 194 304 tuples), TPCH SF1 lineitem (≈6 M tuples, ≈2526 ship dates)
// and the full SHD. DefaultScale shrinks each by ~16x to keep harness
// runtimes interactive; ratios (capacity gain, normalized response time)
// are scale-invariant. PaperScale matches the paper.
type Scale struct {
	SyntheticTuples uint64
	TPCHTuples      uint64
	TPCHDates       int
	SHDTuples       uint64
	Probes          int
	Seed            int64

	// Index selects the registered backend the point-lookup experiments
	// probe ("bftree", "bptree", "fdtree", "hash"); empty selects the
	// BF-Tree. The point-lookup and mixed-workload experiments also
	// accept "each", walking the whole registry.
	Index string

	// JSONDir, when non-empty, makes the streaming/batching experiments
	// (scan-stream, batched-probe, point-lookup, mixed-workload) also
	// write their Record rows as JSON files (BENCH_scan.json,
	// BENCH_batch.json, BENCH_point.json, BENCH_mixed.json) into this
	// directory.
	JSONDir string

	// Skew is the Zipfian skew parameter of workloads that support it
	// (shard-scale's writer shard choice, mixed-workload's zipf cells):
	// values above 1 concentrate load on the hottest keys, 0 or 1 keeps
	// the pre-skew uniform spread. Set by bfbench's -skew flag.
	Skew float64

	// Mix narrows the mixed-workload experiment to one preset ("oltp",
	// "olap", "reporting", "timeseries"); empty runs all of them. Set by
	// bfbench's -mix flag.
	Mix string
}

// IndexBackend resolves the Index selection, defaulting to the BF-Tree.
func (s Scale) IndexBackend() string {
	if s.Index == "" {
		return "bftree"
	}
	return s.Index
}

// DefaultScale returns the CI-friendly scale (64 MB synthetic relation).
func DefaultScale() Scale {
	return Scale{
		SyntheticTuples: 262144, // 64 MB at 256 B/tuple
		TPCHTuples:      375000, // ≈2400 tuples per date over 156 dates
		TPCHDates:       156,
		SHDTuples:       250000,
		Probes:          1000,
		Seed:            42,
	}
}

// PaperScale returns the paper's sizes (slow: a 1 GB in-memory relation
// per configuration cell).
func PaperScale() Scale {
	return Scale{
		SyntheticTuples: 4194304,
		TPCHTuples:      6000000,
		TPCHDates:       2526,
		SHDTuples:       2000000,
		Probes:          1000,
		Seed:            42,
	}
}

// Env is one experiment cell's environment: an index store and a data
// store on their configured devices.
type Env struct {
	Config    StorageConfig
	IdxDev    *device.Device
	DataDev   *device.Device
	IdxStore  *pagestore.Store
	DataStore *pagestore.Store
}

// NewEnv builds devices and stores for a configuration. cachePages > 0
// adds a pinned buffer cache in front of the index device: warm-cache
// experiments load the tree's internal pages into it, while leaf and
// data accesses keep paying device cost on every probe, exactly the
// paper's warm-cache semantics (Section 6.2).
func NewEnv(cfg StorageConfig, cachePages int) *Env {
	idxDev := device.New(cfg.Index, PageSize)
	dataDev := device.New(cfg.Data, PageSize)
	var idxStore *pagestore.Store
	if cachePages > 0 {
		idxStore = pagestore.New(idxDev, pagestore.WithPinnedCache(cachePages))
	} else {
		idxStore = pagestore.New(idxDev)
	}
	return &Env{
		Config:    cfg,
		IdxDev:    idxDev,
		DataDev:   dataDev,
		IdxStore:  idxStore,
		DataStore: pagestore.New(dataDev),
	}
}

// ResetIO zeroes both devices' counters (called between build and
// measurement).
func (e *Env) ResetIO() {
	e.IdxDev.ResetStats()
	e.DataDev.ResetStats()
}

// Elapsed returns the total virtual I/O time charged since the last
// reset.
func (e *Env) Elapsed() time.Duration {
	return e.IdxDev.Stats().Elapsed + e.DataDev.Stats().Elapsed
}

// Measurement is the outcome of one probe batch.
type Measurement struct {
	AvgTime       time.Duration // virtual response time per probe
	P50, P99      time.Duration // per-probe virtual latency quantiles
	FalsePerProbe float64       // falsely read data pages per probe
	DataReads     uint64
	IdxReads      uint64
	Tuples        int         // matching tuples found
	Index         index.Stats // the measured index's size and shape
}

// MeasureIndex runs the probe batch against any backend through the
// unified interface; unique selects the primary-key early-exit variant.
// Device-level accounting (virtual I/O time, page reads) comes from the
// cell's devices; false reads from the shared Result stats.
func MeasureIndex(env *Env, ix index.Index, keys []uint64, unique bool) (*Measurement, error) {
	env.ResetIO()
	var falseReads, tuples int
	lats := make([]time.Duration, 0, len(keys))
	prev := time.Duration(0)
	for _, k := range keys {
		var res *index.Result
		var err error
		if unique {
			res, err = ix.SearchFirst(k)
		} else {
			res, err = ix.Search(k)
		}
		if err != nil {
			return nil, err
		}
		falseReads += res.Stats.FalseReads
		tuples += len(res.Tuples)
		// Per-probe virtual latency: the delta of the devices' charged
		// I/O time across this probe (probes run sequentially here).
		now := env.Elapsed()
		lats = append(lats, now-prev)
		prev = now
	}
	p50, p99 := latencyQuantiles(lats)
	return &Measurement{
		AvgTime:       env.Elapsed() / time.Duration(len(keys)),
		P50:           p50,
		P99:           p99,
		FalsePerProbe: float64(falseReads) / float64(len(keys)),
		DataReads:     env.DataDev.Stats().Reads(),
		IdxReads:      env.IdxDev.Stats().Reads(),
		Tuples:        tuples,
		Index:         ix.Stats(),
	}, nil
}

// relation is one generated dataset on a cell's data store: the file,
// the field an experiment indexes, and the probe keys every index over
// it answers — the same keys for every backend and storage
// configuration, as Section 6.1 prescribes.
type relation struct {
	file   *heapfile.File
	field  int
	probes []uint64
	unique bool   // a primary key: probes exit early (SearchFirst)
	maxKey uint64 // largest key of the indexed field
}

// opts returns the build options of an index over r: bf for the
// BF-Tree, and the deduplicated entry layout of the exact tree backends
// when the key is non-unique (the paper's baseline, Section 6.3).
func (r *relation) opts(bf core.Options) index.Options {
	return index.Options{BFTree: bf, DedupKeys: !r.unique}
}

// dataset generates a relation on a cell's data store.
type dataset func(data *pagestore.Store) (*relation, error)

// syntheticRel is relation R of Section 6.1 indexed on field 0, the
// unique PK probed at 100% hits (Section 6.2), or on field 1, ATT1
// probed at 14% hits with misses inside the key domain (Section 6.3).
func syntheticRel(scale Scale, field int) dataset {
	return func(data *pagestore.Store) (*relation, error) {
		syn, err := workload.GenerateSynthetic(data, scale.SyntheticTuples, 11, scale.Seed)
		if err != nil {
			return nil, err
		}
		r := &relation{file: syn.File, field: field}
		var ps *workload.ProbeSet
		if field == 0 {
			r.unique, r.maxKey = true, syn.MaxPK
			existing := make([]uint64, 4096)
			step := max(syn.MaxPK/uint64(len(existing)), 1)
			for i := range existing {
				existing[i] = uint64(i) * step % (syn.MaxPK + 1)
			}
			ps, err = workload.MakeProbes(scale.Probes, 1.0, existing, nil, scale.Seed+1)
		} else {
			r.maxKey = syn.ATT1Keys[len(syn.ATT1Keys)-1]
			absent := workload.AbsentWithin(1, r.maxKey, syn.ATT1Keys, 4096)
			if len(absent) == 0 {
				absent = workload.AbsentKeys(r.maxKey, 4096)
			}
			ps, err = workload.MakeProbes(scale.Probes, 0.14, syn.ATT1Keys, absent, scale.Seed+2)
		}
		if err != nil {
			return nil, err
		}
		r.probes = ps.Keys
		return r, nil
	}
}

// tpchRel is the TPCH-like lineitem table ordered on shipdate, probed
// on shipdate at hitRate; misses are dates past the populated range, as
// every in-range date has lineitems at TPCH densities.
func tpchRel(scale Scale, hitRate float64) dataset {
	return func(data *pagestore.Store) (*relation, error) {
		tp, err := workload.GenerateTPCH(data, scale.TPCHTuples, scale.TPCHDates, scale.Seed)
		if err != nil {
			return nil, err
		}
		absent := workload.AbsentKeys(tp.MaxDate, 4096)
		ps, err := workload.MakeProbes(scale.Probes, hitRate, workload.SortedDistinct(tp.DateCards), absent, scale.Seed+3)
		if err != nil {
			return nil, err
		}
		shipIdx := workload.TPCHSchema.FieldIndex("shipdate")
		return &relation{file: tp.File, field: shipIdx, probes: ps.Keys, maxKey: tp.MaxDate}, nil
	}
}

// shdRel is the smart-home dataset ordered on timestamp, probed on
// timestamp at 100% hits (Section 6.5: the hardest case for BF-Trees).
func shdRel(scale Scale) dataset {
	return func(data *pagestore.Store) (*relation, error) {
		shd, err := workload.GenerateSHD(data, scale.SHDTuples, scale.Seed)
		if err != nil {
			return nil, err
		}
		keys := workload.SortedDistinct(shd.Cards)
		ps, err := workload.MakeProbes(scale.Probes, 1.0, keys, nil, scale.Seed+4)
		if err != nil {
			return nil, err
		}
		tsIdx := workload.SHDSchema.FieldIndex("timestamp")
		return &relation{file: shd.File, field: tsIdx, probes: ps.Keys, maxKey: keys[len(keys)-1]}, nil
	}
}

// keyedSchema is the relation of the write-path experiments: one
// ordered key per 64-byte tuple.
var keyedSchema = heapfile.Schema{
	TupleSize: 64,
	Fields:    []heapfile.Field{{Name: "k", Offset: 0}},
}

// keyedRel is n tuples keyed 0, stride, 2·stride, …; it has no probe
// keys, as the write-path experiments draw their own.
func keyedRel(n, stride uint64) dataset {
	return func(data *pagestore.Store) (*relation, error) {
		b, err := heapfile.NewBuilder(data, keyedSchema)
		if err != nil {
			return nil, err
		}
		tup := make([]byte, keyedSchema.TupleSize)
		for i := uint64(0); i < n; i++ {
			keyedSchema.Set(tup, 0, i*stride)
			if err := b.Append(tup); err != nil {
				return nil, err
			}
		}
		file, err := b.Finish()
		if err != nil {
			return nil, err
		}
		return &relation{file: file, unique: true, maxKey: (n - 1) * stride}, nil
	}
}

// newCell generates gen's relation on a fresh cell of cfg.
func newCell(cfg StorageConfig, cachePages int, gen dataset) (*Env, *relation, error) {
	env := NewEnv(cfg, cachePages)
	rel, err := gen(env.DataStore)
	if err != nil {
		return nil, nil, err
	}
	return env, rel, nil
}

// buildCell generates gen's relation on a fresh cell of cfg and builds
// the named backend over it, with bf as the BF-Tree options.
func buildCell(cfg StorageConfig, cachePages int, gen dataset, backend string, bf core.Options) (*Env, *relation, index.Index, error) {
	env, rel, err := newCell(cfg, cachePages, gen)
	if err != nil {
		return nil, nil, nil, err
	}
	ix, err := index.New(backend, env.IdxStore, rel.file, rel.field, rel.opts(bf))
	if err != nil {
		return nil, nil, nil, err
	}
	return env, rel, ix, nil
}

// measureCell is the procedure behind every cell of the paper's
// figures (Section 6.1): build the named backend on a fresh cell of
// cfg, warm its internal pages when the cell is cached (the warm-cache
// setup of Section 6.2: "the nodes of the higher levels of a B+-Tree
// reside always in memory"), probe it with the relation's keys and
// close it.
func measureCell(cfg StorageConfig, cachePages int, gen dataset, backend string, bf core.Options) (*Measurement, error) {
	env, rel, ix, err := buildCell(cfg, cachePages, gen, backend, bf)
	if err != nil {
		return nil, err
	}
	var m *Measurement
	if env.IdxStore.Cached() {
		err = warm(env, ix)
	}
	if err == nil {
		m, err = MeasureIndex(env, ix, rel.probes, rel.unique)
	}
	if cerr := ix.Close(); err == nil {
		err = cerr
	}
	return m, err
}

// warm loads a built index's internal pages into the cell's index
// cache; backends with nothing to warm (the memory-resident ones) pass
// through.
func warm(env *Env, ix index.Index) error {
	if !env.IdxStore.Cached() {
		return fmt.Errorf("bench: warm requested on an uncached cell")
	}
	w, ok := ix.(index.Warmable)
	if !ok {
		return nil
	}
	internal, err := w.InternalPages()
	if err != nil || len(internal) == 0 {
		return err
	}
	return env.IdxStore.Warm(internal)
}

// fastestBF measures a BF-Tree at every fpp of the sweep, each on a
// fresh cell of cfg, and returns the fastest with its fpp and its
// capacity gain over an index of basePages pages.
func fastestBF(cfg StorageConfig, cachePages int, gen dataset, fpps []float64, basePages uint64) (best time.Duration, bestFPP, gain float64, err error) {
	best = math.MaxInt64
	for _, fpp := range fpps {
		m, err := measureCell(cfg, cachePages, gen, "bftree", core.Options{FPP: fpp})
		if err != nil {
			return 0, 0, 0, err
		}
		if m.AvgTime < best {
			best, bestFPP, gain = m.AvgTime, fpp, float64(basePages)/float64(m.Index.Pages)
		}
	}
	return best, bestFPP, gain, nil
}
