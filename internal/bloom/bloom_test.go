package bloom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeysForBitsMatchesEquation1(t *testing.T) {
	// 4KB page = 32768 bits, fpp=0.01: n = -32768*ln²2/ln(0.01) ≈ 3418.
	got := KeysForBits(32768, 0.01)
	want := uint64(-32768 * Ln2Squared / math.Log(0.01))
	if got != want {
		t.Fatalf("KeysForBits(32768, 0.01) = %d, want %d", got, want)
	}
	if got < 3400 || got > 3440 {
		t.Fatalf("KeysForBits(32768, 0.01) = %d, expected ≈3418", got)
	}
}

func TestKeysBitsInverse(t *testing.T) {
	for _, fpp := range []float64{0.2, 0.1, 0.01, 1e-3, 1e-6, 1e-15} {
		for _, keys := range []uint64{1, 10, 1000, 100000} {
			bits := BitsForKeys(keys, fpp)
			back := KeysForBits(bits, fpp)
			// Rounding bits up can only increase capacity.
			if back < keys {
				t.Errorf("fpp=%g keys=%d: bits=%d gives capacity %d < keys", fpp, keys, bits, back)
			}
			// And not by more than one key plus rounding slack.
			if back > keys+keys/100+2 {
				t.Errorf("fpp=%g keys=%d: round trip inflated to %d", fpp, keys, back)
			}
		}
	}
}

func TestKeysForBitsEdgeCases(t *testing.T) {
	if KeysForBits(0, 0.01) != 0 {
		t.Error("zero bits should index zero keys")
	}
	if KeysForBits(100, 0) != 0 || KeysForBits(100, 1) != 0 {
		t.Error("out-of-domain fpp should return 0")
	}
	if BitsForKeys(0, 0.01) != 0 {
		t.Error("zero keys need zero bits")
	}
}

func TestOptimalHashes(t *testing.T) {
	// m/n = 10 bits per key → k ≈ 10·ln2 ≈ 7.
	if k := OptimalHashes(10000, 1000); k != 7 {
		t.Errorf("OptimalHashes(10000,1000) = %d, want 7", k)
	}
	if k := OptimalHashes(100, 0); k != 1 {
		t.Errorf("OptimalHashes with zero keys = %d, want 1", k)
	}
	if k := OptimalHashes(1, 1000); k != 1 {
		t.Errorf("OptimalHashes must be at least 1, got %d", k)
	}
}

func TestExpectedFPP(t *testing.T) {
	if p := ExpectedFPP(0, 3, 10); p != 1 {
		t.Errorf("zero bits: fpp = %g, want 1", p)
	}
	if p := ExpectedFPP(1000, 3, 0); p != 0 {
		t.Errorf("empty filter: fpp = %g, want 0", p)
	}
	// At design load the expected fpp should be close to the target.
	keys := uint64(1000)
	fpp := 0.01
	p, err := ParamsForKeys(keys, fpp, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := ExpectedFPP(p.Bits, p.Hashes, keys)
	if got > fpp*1.25 || got < fpp/4 {
		t.Errorf("ExpectedFPP at design load = %g, want ≈%g", got, fpp)
	}
}

func TestDriftedFPPEquation14(t *testing.T) {
	// From the paper: starting at fpp=0.01%, 1% more elements gives
	// new_fpp ≈ 0.011%, 10% more gives ≈ 0.023%... paper says ≈0.23% for
	// 10x reading; check the formula values directly.
	got := DriftedFPP(1e-4, 0.01)
	want := math.Pow(1e-4, 1/1.01)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("DriftedFPP(1e-4, 0.01) = %g, want %g", got, want)
	}
	// Monotonic in insert ratio.
	prev := DriftedFPP(1e-3, 0)
	for r := 0.01; r < 6; r += 0.05 {
		cur := DriftedFPP(1e-3, r)
		if cur < prev {
			t.Fatalf("DriftedFPP not monotone at ratio %g: %g < %g", r, cur, prev)
		}
		prev = cur
	}
	// Converges towards 1 for huge insert ratios.
	if DriftedFPP(1e-3, 1e6) < 0.99 {
		t.Error("DriftedFPP should approach 1 as inserts dominate")
	}
	// No-op outside the domain.
	if DriftedFPP(0.5, -1) != 0.5 || DriftedFPP(0, 1) != 0 {
		t.Error("DriftedFPP should pass through out-of-domain inputs")
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f, err := New(10000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.AddUint64(keys[i])
	}
	for _, k := range keys {
		if !f.ContainsUint64(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestFilterFPPNearDesign(t *testing.T) {
	const n = 20000
	for _, fpp := range []float64{0.1, 0.01, 0.001} {
		f, err := New(n, fpp)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			f.AddUint64(i)
		}
		falsePos := 0
		const probes = 100000
		for i := uint64(0); i < probes; i++ {
			if f.ContainsUint64(n + 1000 + i) {
				falsePos++
			}
		}
		measured := float64(falsePos) / probes
		if measured > fpp*2 {
			t.Errorf("fpp=%g: measured %g exceeds 2x design", fpp, measured)
		}
	}
}

func TestSplitPropertySection3(t *testing.T) {
	// Property 1 of Section 3: S filters of M/S bits holding N/S keys each
	// have the same fpp as one M-bit filter with N keys.
	const (
		totalKeys = 8000
		s         = 8
		fpp       = 0.01
	)
	big, err := New(totalKeys, fpp)
	if err != nil {
		t.Fatal(err)
	}
	smalls := make([]*Filter, s)
	for i := range smalls {
		smalls[i], err = New(totalKeys/s, fpp)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < totalKeys; i++ {
		big.AddUint64(i)
		smalls[i%s].AddUint64(i)
	}
	// Bit budgets should match within rounding: S small filters use about
	// as many bits as the big one.
	var smallBits uint64
	for _, f := range smalls {
		smallBits += f.Bits()
	}
	ratio := float64(smallBits) / float64(big.Bits())
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("split filters use %d bits vs %d for one filter (ratio %g)", smallBits, big.Bits(), ratio)
	}
	// Measured fpp of each small filter stays near design.
	for i, f := range smalls {
		falsePos := 0
		const probes = 20000
		for j := uint64(0); j < probes; j++ {
			if f.ContainsUint64(totalKeys + 5000 + j) {
				falsePos++
			}
		}
		measured := float64(falsePos) / probes
		if measured > fpp*2.5 {
			t.Errorf("sub-filter %d: measured fpp %g exceeds 2.5x design %g", i, measured, fpp)
		}
	}
}

func TestFilterMarshalRoundTrip(t *testing.T) {
	f, err := New(5000, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		f.AddUint64(i * 3)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Decode the documented layout by hand: header (nbits, hashes,
	// count) then the bit array, little-endian — the bytes BF-leaf pages
	// must match.
	if len(data) != 24+len(f.bits)*8 {
		t.Fatalf("marshaled %d bytes, want 24-byte header + %d words", len(data), len(f.bits))
	}
	g := Filter{
		nbits:  binary.LittleEndian.Uint64(data[0:8]),
		hashes: int(binary.LittleEndian.Uint64(data[8:16])),
		count:  binary.LittleEndian.Uint64(data[16:24]),
		bits:   make([]uint64, len(f.bits)),
	}
	for i := range g.bits {
		g.bits[i] = binary.LittleEndian.Uint64(data[24+i*8:])
	}
	if g.Bits() != f.Bits() || g.Hashes() != f.Hashes() || g.Count() != f.Count() {
		t.Fatal("round trip changed geometry")
	}
	for i := uint64(0); i < 5000; i++ {
		if !g.ContainsUint64(i * 3) {
			t.Fatalf("round trip lost key %d", i*3)
		}
	}
}

func TestParamsErrors(t *testing.T) {
	if _, err := ParamsForKeys(0, 0.01, 0); err == nil {
		t.Error("zero keys should be rejected")
	}
	if _, err := ParamsForKeys(10, 1.5, 0); err == nil {
		t.Error("fpp > 1 should be rejected")
	}
	if _, err := New(0, 0.5); err == nil {
		t.Error("New with zero keys should fail")
	}
}

// Property: no false negatives, for arbitrary byte-string keys.
func TestQuickNoFalseNegatives(t *testing.T) {
	f, err := New(4096, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(key []byte) bool {
		f.Add(key)
		return f.Contains(key)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Equation 1 round trip never loses capacity.
func TestQuickEquation1RoundTrip(t *testing.T) {
	prop := func(rawKeys uint32, rawFpp uint16) bool {
		keys := uint64(rawKeys%1000000) + 1
		fpp := (float64(rawFpp%9998) + 1) / 10000 // (0, 1)
		bits := BitsForKeys(keys, fpp)
		return KeysForBits(bits, fpp) >= keys
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the uint64 convenience wrappers agree with the byte-slice API.
func TestQuickUint64Wrappers(t *testing.T) {
	f, err := New(4096, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(key uint64) bool {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], key)
		f.AddUint64(key)
		return f.Contains(buf[:]) && f.ContainsUint64(key)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHashUint64MatchesFilterPositions checks that HashUint64 yields the
// positions AddUint64 sets: a filter holding one key has exactly the
// bits (h1 + i·h2) mod m set.
func TestHashUint64MatchesFilterPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 3, 30} {
		for trial := 0; trial < 50; trial++ {
			key := rng.Uint64()
			f := NewWithParams(Params{Bits: 1001, Hashes: k})
			f.AddUint64(key)
			want := make([]uint64, len(f.bits))
			h1, h2 := HashUint64(key)
			for i := 0; i < k; i++ {
				p := (h1 + uint64(i)*h2) % 1001
				want[p/64] |= 1 << (p % 64)
			}
			for i := range want {
				if f.bits[i] != want[i] {
					t.Fatalf("k=%d key=%d: word %d = %#x, HashUint64 positions give %#x", k, key, i, f.bits[i], want[i])
				}
			}
		}
	}
}
