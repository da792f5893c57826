// Package bloom implements the Bloom filters of the BF-Tree reproduction:
// the classic Bloom filter of Bloom (1970) with double hashing, counting
// Bloom filters that support deletion, and the parameter mathematics of
// Equation 1 of the paper (n = -m·ln²2 / ln p).
//
// BF-leaves probe their filters in place on the page bytes (HashUint64
// plus the same bit and counter layout); the filter objects here are the
// reference those leaves are tested against. Both kinds share two
// guarantees the BF-Tree relies on: membership tests never produce false
// negatives, and the false positive probability of a filter sized with
// ParamsForKeys holds as long as no more than the design number of keys
// is inserted.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Ln2Squared is ln²(2), the constant of Equation 1 of the paper.
const Ln2Squared = 0.4804530139182014

// ErrInvalidParams reports Bloom filter parameters that are out of domain,
// e.g. a false positive probability outside (0, 1).
var ErrInvalidParams = errors.New("bloom: invalid parameters")

// Params describes the geometry of a Bloom filter: its size in bits, the
// number of hash functions, and the design false positive probability at
// the design key count.
type Params struct {
	Bits   uint64  // m: filter size in bits
	Hashes int     // k: number of hash functions
	Keys   uint64  // n: design number of distinct keys
	FPP    float64 // p: design false positive probability at n keys
}

// KeysForBits solves Equation 1 of the paper for n: the number of distinct
// keys that m bits can index at false positive probability fpp, assuming
// the optimal number of hash functions.
//
//	n = -m · ln²(2) / ln(fpp)
func KeysForBits(bits uint64, fpp float64) uint64 {
	if bits == 0 || fpp <= 0 || fpp >= 1 {
		return 0
	}
	n := -float64(bits) * Ln2Squared / math.Log(fpp)
	if n < 1 {
		return 0
	}
	return uint64(n)
}

// BitsForKeys solves Equation 1 for m: the number of bits needed to index
// n distinct keys at false positive probability fpp.
func BitsForKeys(keys uint64, fpp float64) uint64 {
	if keys == 0 || fpp <= 0 || fpp >= 1 {
		return 0
	}
	m := -float64(keys) * math.Log(fpp) / Ln2Squared
	return uint64(math.Ceil(m))
}

// OptimalHashes returns the number of hash functions that minimizes the
// false positive probability for a filter of m bits holding n keys:
// k = (m/n)·ln 2, at least 1.
func OptimalHashes(bits, keys uint64) int {
	if keys == 0 {
		return 1
	}
	k := int(math.Round(float64(bits) / float64(keys) * math.Ln2))
	if k < 1 {
		return 1
	}
	return k
}

// ExpectedFPP returns the expected false positive probability of a filter
// of m bits with k hash functions after n insertions:
// (1 - e^{-kn/m})^k.
func ExpectedFPP(bits uint64, hashes int, keys uint64) float64 {
	if bits == 0 {
		return 1
	}
	if keys == 0 {
		return 0
	}
	exp := -float64(hashes) * float64(keys) / float64(bits)
	return math.Pow(1-math.Exp(exp), float64(hashes))
}

// DriftedFPP implements Equation 14 of the paper: the effective false
// positive probability of a filter designed for fpp after inserting
// insertRatio·n additional keys beyond its design load:
//
//	new_fpp = fpp^(1 / (1 + insertRatio))
func DriftedFPP(fpp, insertRatio float64) float64 {
	if fpp <= 0 || fpp >= 1 || insertRatio <= 0 {
		return fpp
	}
	return math.Pow(fpp, 1/(1+insertRatio))
}

// ParamsForKeys sizes a filter for n keys at the requested false positive
// probability. If hashes <= 0 the optimal count is used; the BF-Tree paper
// fixes k = 3 in its experiments, which callers request explicitly.
func ParamsForKeys(keys uint64, fpp float64, hashes int) (Params, error) {
	if keys == 0 || fpp <= 0 || fpp >= 1 {
		return Params{}, fmt.Errorf("%w: keys=%d fpp=%g", ErrInvalidParams, keys, fpp)
	}
	bits := BitsForKeys(keys, fpp)
	if hashes <= 0 {
		hashes = OptimalHashes(bits, keys)
	}
	return Params{Bits: bits, Hashes: hashes, Keys: keys, FPP: fpp}, nil
}

// Filter is a classic Bloom filter. It uses the Kirsch–Mitzenmacher double
// hashing scheme: two 64-bit base hashes combined as h1 + i·h2 simulate k
// independent hash functions with no loss in asymptotic false positive
// rate.
//
// The zero value is not usable; construct with New or NewWithParams.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
	count  uint64 // keys inserted so far
}

// New creates a filter sized for the given key count and false positive
// probability with the optimal number of hash functions.
func New(keys uint64, fpp float64) (*Filter, error) {
	p, err := ParamsForKeys(keys, fpp, 0)
	if err != nil {
		return nil, err
	}
	return NewWithParams(p), nil
}

// NewWithParams creates a filter with explicit geometry.
func NewWithParams(p Params) *Filter {
	nb := p.Bits
	if nb == 0 {
		nb = 64
	}
	words := (nb + 63) / 64
	h := p.Hashes
	if h < 1 {
		h = 1
	}
	return &Filter{bits: make([]uint64, words), nbits: nb, hashes: h}
}

// baseHashes produces the two independent 64-bit hashes used for double
// hashing. Key bytes are hashed with two differently-seeded mixers.
func baseHashes(key []byte) (uint64, uint64) {
	h1 := fnv1a(key, 0xcbf29ce484222325)
	h2 := fnv1a(key, 0x84222325cbf29ce4)
	// Mix to decorrelate; h2 must be odd so that the stride cycles the
	// whole table even for power-of-two sizes.
	h2 |= 1
	return h1, h2
}

// fnv1a is FNV-1a with a custom seed, followed by a 64-bit finalizer
// (splitmix64) to break FNV's weak avalanche on short keys.
func fnv1a(key []byte, seed uint64) uint64 {
	const prime = 1099511628211
	h := seed
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// HashUint64 returns the double-hashing pair (h1, h2) that the AddUint64
// and ContainsUint64 methods of Filter and CountingFilter derive for key:
// position i of a filter with m positions is (h1 + i·h2) mod m. It
// exists for embedders that test one key against many equal-geometry
// filters and so hash it once.
func HashUint64(key uint64) (h1, h2 uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], key)
	return baseHashes(buf[:])
}

// Add inserts a key into the filter.
func (f *Filter) Add(key []byte) {
	h1, h2 := baseHashes(key)
	for i := 0; i < f.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % f.nbits
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.count++
}

// AddUint64 inserts a uint64 key using its big-endian encoding. This is
// the key form used throughout the BF-Tree, which indexes integer and
// date-encoded attributes.
func (f *Filter) AddUint64(key uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], key)
	f.Add(buf[:])
}

// Contains reports whether the key may be in the set. A false return is
// definitive; a true return is correct with probability 1-fpp.
func (f *Filter) Contains(key []byte) bool {
	h1, h2 := baseHashes(key)
	for i := 0; i < f.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// ContainsUint64 tests a uint64 key encoded as by AddUint64.
func (f *Filter) ContainsUint64(key uint64) bool {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], key)
	return f.Contains(buf[:])
}

// Count returns the number of Add calls so far.
func (f *Filter) Count() uint64 { return f.count }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.nbits }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() int { return f.hashes }

// SizeBytes returns the memory footprint of the bit array in bytes.
func (f *Filter) SizeBytes() uint64 { return uint64(len(f.bits)) * 8 }

// MarshalBinary serializes the filter: header (nbits, hashes, count)
// followed by the bit array, little-endian. It implements
// encoding.BinaryMarshaler.
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 24+len(f.bits)*8)
	binary.LittleEndian.PutUint64(buf[0:8], f.nbits)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(f.hashes))
	binary.LittleEndian.PutUint64(buf[16:24], f.count)
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(buf[24+i*8:], w)
	}
	return buf, nil
}
