package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file is the operation-stream layer of the workload engine: a Mix
// weights the six operation kinds, a Dist picks the keys they target,
// and an OpStream turns one worker's (mix, dist, sub-stream) triple into
// a reproducible operation sequence. The bench Driver executes streams
// against any index backend; deletes a backend cannot run are
// redistributed before any stream is built (Redistribute), so model and
// measurement always see the same executable mix.

// OpKind enumerates the operation types a Mix can weight.
type OpKind int

const (
	OpSearch OpKind = iota
	OpRangeScan
	OpMultiSearch
	OpInsert
	OpDelete
	OpScanLimit

	// NumOpKinds sizes per-kind arrays.
	NumOpKinds
)

var opKindNames = [NumOpKinds]string{
	"search", "range-scan", "multi-search", "insert", "delete", "scan-limit",
}

func (k OpKind) String() string {
	if k < 0 || k >= NumOpKinds {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opKindNames[k]
}

// Op is one drawn operation. Key is the point key of a search, insert
// or delete, and the low bound of range-scan and scan-limit ops (Hi the
// high bound); Keys is a multi-search batch; Limit is scan-limit's row
// budget.
type Op struct {
	Kind  OpKind
	Key   uint64
	Hi    uint64
	Keys  []uint64
	Limit int
}

// Mix is a weighted blend of operations — the declarative half of a
// workload scenario (the imperative half, key choice, is the Dist of
// the stream that draws from it). Weights need not sum to 1; only their
// ratios matter.
type Mix struct {
	Name    string
	Weights [NumOpKinds]float64

	// Batch is the multi-search batch size; 0 selects 16.
	Batch int
	// RangeFrac is the span of range-scan and scan-limit ops as a
	// fraction of the key domain; 0 selects 1/256.
	RangeFrac float64
	// Limit is scan-limit's row budget k; 0 selects 10.
	Limit int
	// Monotonic makes inserts walk ascending keys in per-worker strides
	// (worker w of W inserts ranks w, w+W, w+2W, …) instead of
	// re-targeting drawn keys — the append-mostly shape of the
	// timeseries preset, reproducible at any worker count without any
	// cross-worker coordination.
	Monotonic bool
}

// TotalWeight returns the sum of all op weights.
func (m Mix) TotalWeight() float64 {
	var t float64
	for _, w := range m.Weights {
		t += w
	}
	return t
}

// WriteFraction returns the weight share of mutating ops.
func (m Mix) WriteFraction() float64 {
	t := m.TotalWeight()
	if t == 0 {
		return 0
	}
	return (m.Weights[OpInsert] + m.Weights[OpDelete]) / t
}

// The named presets. Weight tables are documented in DESIGN.md §8; the
// headline ratios follow the scenario names: oltp is 90 % point
// reads / 10 % writes, olap is 10 % point reads / 90 % scans and
// batches, reporting is dominated by LIMIT-k scans, timeseries is
// append-mostly with monotonic keys.

// OLTPMix is the transactional preset: 90 % point reads (single and
// batched), 10 % writes split between inserts and deletes.
func OLTPMix() Mix {
	m := Mix{Name: "oltp"}
	m.Weights[OpSearch] = 0.72
	m.Weights[OpMultiSearch] = 0.18
	m.Weights[OpInsert] = 0.06
	m.Weights[OpDelete] = 0.04
	return m
}

// OLAPMix is the analytical preset: 10 % point reads, 90 % range scans,
// LIMIT-k scans and batched probes. Read-only.
func OLAPMix() Mix {
	m := Mix{Name: "olap"}
	m.Weights[OpSearch] = 0.10
	m.Weights[OpRangeScan] = 0.50
	m.Weights[OpScanLimit] = 0.20
	m.Weights[OpMultiSearch] = 0.20
	return m
}

// ReportingMix is the range-heavy preset: LIMIT-k page fills and range
// scans dominate, with a trickle of point reads and inserts.
func ReportingMix() Mix {
	m := Mix{Name: "reporting"}
	m.Weights[OpScanLimit] = 0.60
	m.Weights[OpRangeScan] = 0.30
	m.Weights[OpSearch] = 0.05
	m.Weights[OpInsert] = 0.05
	return m
}

// TimeseriesMix is the append-mostly preset: monotonic inserts dominate,
// readers tail the freshest keys (pair it with DistLatest).
func TimeseriesMix() Mix {
	m := Mix{Name: "timeseries", Monotonic: true}
	m.Weights[OpInsert] = 0.85
	m.Weights[OpSearch] = 0.05
	m.Weights[OpScanLimit] = 0.08
	m.Weights[OpRangeScan] = 0.02
	return m
}

// Presets returns the named mixes in their canonical order.
func Presets() []Mix {
	return []Mix{OLTPMix(), OLAPMix(), ReportingMix(), TimeseriesMix()}
}

// MixNames returns the preset names in canonical order.
func MixNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// MixByName resolves a preset name (the -mix flag's values).
func MixByName(name string) (Mix, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q (have %v)", name, MixNames())
}

// Caps declares which optional op kinds a drive target supports. Every
// index backend runs searches, range and streaming scans, batched
// probes and inserts; only deletes vary. The bench layer derives a Caps
// from a target's capability interfaces.
type Caps struct {
	Delete bool
}

// Move records one redistribution step: From's weight folded into To.
type Move struct {
	From, To OpKind
	Weight   float64
}

func (v Move) String() string {
	return fmt.Sprintf("%v→%v %.0f%%", v.From, v.To, v.Weight*100)
}

// Redistribute returns a copy of m executable under caps: on a target
// without deletes, delete weight folds into inserts, keeping the
// read/write split intact. The move is reported so results can say what
// actually ran.
func (m Mix) Redistribute(caps Caps) (Mix, []Move) {
	if caps.Delete || m.Weights[OpDelete] == 0 {
		return m, nil
	}
	out := m
	w := out.Weights[OpDelete]
	out.Weights[OpDelete] = 0
	out.Weights[OpInsert] += w
	return out, []Move{{From: OpDelete, To: OpInsert, Weight: w}}
}

// Dist names a key-choice distribution.
type Dist int

const (
	// DistUniform draws ranks uniformly over the domain.
	DistUniform Dist = iota
	// DistZipf draws Zipfian ranks: rank 0 is hottest, skew above 1
	// concentrates the draw (skew ≤ 1 is uniform, matching ZipfRanks).
	DistZipf
	// DistLatest draws near the most recently inserted rank — the
	// tailing readers of an append-mostly stream.
	DistLatest
)

var distNames = []string{"uniform", "zipf", "latest"}

func (d Dist) String() string {
	if d < 0 || int(d) >= len(distNames) {
		return fmt.Sprintf("Dist(%d)", int(d))
	}
	return distNames[d]
}

// ParseDist resolves a distribution name.
func ParseDist(s string) (Dist, error) {
	for i, n := range distNames {
		if n == s {
			return Dist(i), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown distribution %q (have %v)", s, distNames)
}

// Ranks draws key ranks in [0, n) under a distribution from one
// deterministic sub-stream. It is the single key-choice path of the
// workload engine — OpStream draws through it, and experiments with
// bespoke op shapes (shard-scale's shard choice) use it directly so
// every concurrency experiment seeds the same way.
type Ranks struct {
	n        uint64
	dist     Dist
	rng      *SplitMix64
	zipf     *rand.Zipf
	frontier uint64 // most recently observed written rank
	window   uint64
}

// NewRanks builds a chooser over the domain [0, n) (n of 0 is treated
// as 1). DistZipf with skew ≤ 1 degrades to uniform, the convention of
// ZipfRanks and the -skew flag.
func NewRanks(dist Dist, skew float64, n uint64, rng *SplitMix64) *Ranks {
	if n == 0 {
		n = 1
	}
	r := &Ranks{n: n, dist: dist, rng: rng, frontier: n - 1, window: n/16 + 1}
	if dist == DistZipf && skew > 1 {
		r.zipf = rand.NewZipf(rand.New(rng), skew, 1, n-1)
	}
	return r
}

// Rank draws the next rank.
func (r *Ranks) Rank() uint64 {
	switch {
	case r.zipf != nil:
		return r.zipf.Uint64()
	case r.dist == DistLatest:
		w := r.window
		if f := r.frontier + 1; f < w {
			w = f
		}
		return r.frontier - r.rng.Uint64n(w)
	default:
		return r.rng.Uint64n(r.n)
	}
}

// Observe tells the chooser a rank was just written, moving the
// DistLatest read window to the write frontier. A no-op for the other
// distributions.
func (r *Ranks) Observe(rank uint64) { r.frontier = rank }

// StreamConfig parameterizes one worker's operation stream.
type StreamConfig struct {
	// Dist and Skew pick the key-choice distribution (Skew is DistZipf's
	// exponent; ≤ 1 is uniform).
	Dist Dist
	Skew float64
	// NumKeys is the rank domain: the count of distinct indexable keys.
	NumKeys uint64
	// KeyAt maps a rank to its key; nil is the identity (dense domains).
	KeyAt func(rank uint64) uint64
	// Worker and Workers place this stream in the run's worker
	// population (monotonic inserts stride by Workers starting at
	// Worker). Workers of 0 selects a single-worker run.
	Worker  int
	Workers int
	// Seed is the run seed; the stream draws from SubStream(Seed,
	// Worker).
	Seed int64
}

// OpStream draws one worker's deterministic operation sequence from a
// mix. Two streams with equal (mix, config) yield identical sequences.
type OpStream struct {
	mix     Mix
	cfg     StreamConfig
	rng     *SplitMix64
	ranks   *Ranks
	keyAt   func(uint64) uint64
	total   float64
	span    uint64
	nextIns uint64
}

// NewOpStream validates and builds one worker's stream. Mix defaults
// (Batch 16, RangeFrac 1/256, Limit 10) are applied here.
func NewOpStream(mix Mix, cfg StreamConfig) (*OpStream, error) {
	if cfg.NumKeys == 0 {
		return nil, fmt.Errorf("workload: op stream needs a non-empty key domain")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Worker < 0 || cfg.Worker >= cfg.Workers {
		return nil, fmt.Errorf("workload: worker %d out of [0,%d)", cfg.Worker, cfg.Workers)
	}
	if mix.TotalWeight() <= 0 {
		return nil, fmt.Errorf("workload: mix %q has no positive op weight", mix.Name)
	}
	if mix.Batch <= 0 {
		mix.Batch = 16
	}
	if mix.RangeFrac <= 0 {
		mix.RangeFrac = 1.0 / 256
	}
	if mix.Limit <= 0 {
		mix.Limit = 10
	}
	keyAt := cfg.KeyAt
	if keyAt == nil {
		keyAt = func(rank uint64) uint64 { return rank }
	}
	span := uint64(mix.RangeFrac * float64(cfg.NumKeys))
	if span == 0 {
		span = 1
	}
	rng := SubStream(cfg.Seed, cfg.Worker)
	return &OpStream{
		mix:     mix,
		cfg:     cfg,
		rng:     rng,
		ranks:   NewRanks(cfg.Dist, cfg.Skew, cfg.NumKeys, rng),
		keyAt:   keyAt,
		total:   mix.TotalWeight(),
		span:    span,
		nextIns: uint64(cfg.Worker),
	}, nil
}

// Next draws the next operation.
func (s *OpStream) Next() Op {
	x := s.rng.Float64() * s.total
	kind := OpSearch
	for k := OpKind(0); k < NumOpKinds; k++ {
		if w := s.mix.Weights[k]; w > 0 {
			x -= w
			if x < 0 {
				kind = k
				break
			}
		}
	}
	switch kind {
	case OpRangeScan, OpScanLimit:
		lo := s.ranks.Rank()
		hi := lo + s.span
		if hi >= s.cfg.NumKeys {
			hi = s.cfg.NumKeys - 1
		}
		op := Op{Kind: kind, Key: s.keyAt(lo), Hi: s.keyAt(hi)}
		if kind == OpScanLimit {
			op.Limit = s.mix.Limit
		}
		return op
	case OpMultiSearch:
		keys := make([]uint64, s.mix.Batch)
		for i := range keys {
			keys[i] = s.keyAt(s.ranks.Rank())
		}
		return Op{Kind: kind, Keys: keys}
	case OpInsert:
		var rank uint64
		if s.mix.Monotonic {
			rank = s.nextIns % s.cfg.NumKeys
			s.nextIns += uint64(s.cfg.Workers)
		} else {
			rank = s.ranks.Rank()
		}
		s.ranks.Observe(rank)
		return Op{Kind: kind, Key: s.keyAt(rank)}
	default: // OpSearch, OpDelete
		return Op{Kind: kind, Key: s.keyAt(s.ranks.Rank())}
	}
}

// SortedDistinct returns the sorted distinct keys of a cardinality map
// — the rank→key table (StreamConfig.KeyAt) of non-dense domains like
// the SHD timestamps.
func SortedDistinct(cards map[uint64]uint64) []uint64 {
	keys := make([]uint64, 0, len(cards))
	for k := range cards {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
