package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bftree/internal/bloom"
	"bftree/internal/device"
)

// diffAssoc is one key→page association added to a leaf under test.
type diffAssoc struct {
	key uint64
	pid device.PageID
}

// Shape of the leaves fillDiffLeaf builds: 8 filters of 2 pages each, at
// a position count that is neither a multiple of 8 nor of 64, so the
// last byte (standard) and last nibble (counting) are partial.
const (
	diffS        = 8
	diffPosPerBF = 1001
	diffMinPid   = 100
)

// fillDiffLeaf builds a leaf of the given kind and hash count from a
// seeded stream of associations, plus one key added 20 times, which
// saturates its counters in a counting leaf.
func fillDiffLeaf(t *testing.T, kind FilterKind, k int) (*bfLeaf, []diffAssoc) {
	t.Helper()
	o, err := Options{FPP: 0.01, Hashes: k, Filter: kind, Granularity: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	l := newBFLeaf(diffMinPid, diffMinPid+2*diffS-1, o, diffPosPerBF, diffS)
	rng := rand.New(rand.NewSource(int64(k)*10 + int64(kind)))
	var added []diffAssoc
	for i := 0; i < 120; i++ {
		a := diffAssoc{key: rng.Uint64() >> 8, pid: device.PageID(diffMinPid + rng.Intn(2*diffS))}
		if err := l.addKey(a.key, a.pid); err != nil {
			t.Fatal(err)
		}
		added = append(added, a)
	}
	hot := diffAssoc{key: 42, pid: 103}
	for i := 0; i < 20; i++ {
		if err := l.addKey(hot.key, hot.pid); err != nil {
			t.Fatal(err)
		}
	}
	added = append(added, hot)
	l.minKey, l.maxKey, l.numKeys, l.next = 0, ^uint64(0)>>8, uint32(len(added)), 7
	return l, added
}

// diffGolden holds the SHA-256 of the 4 KB page that fillDiffLeaf's leaf
// encoded to when each leaf filter was a bloom.Filter or
// bloom.CountingFilter packed by its word/counter array. Matching it
// proves the on-disk format is bit-identical.
var diffGolden = []struct {
	kind   FilterKind
	hashes int
	sha256 string
}{
	{StandardFilter, 1, "564a378eb79268e255ec7a9abf20ca27cd3b9793a880a27ee623ccf271b32239"},
	{StandardFilter, 3, "1ec59f8bb4f9a2a94de3916763641af5a86a3b4ec406b37520a1be62fdef9ebd"},
	{StandardFilter, 10, "f5e28dd90636301b2e0c1323409ef7b582c68c89e20a572e332140a464db5fd0"},
	{StandardFilter, 30, "e952179f254822ab9387ed826b5616484c13385b5ee78bdc9c41fe7e8983ff15"},
	{CountingFilter, 1, "10d45f046cd1579b92bfb92c16705e70541e92437e18d6529231f3c2921bcaeb"},
	{CountingFilter, 3, "452494e07891274bac61b1a8554f783fc3ad964429c656db0b4ad375684b4e5a"},
	{CountingFilter, 10, "ed1c71aa6d7eb9735d35a39eeb4957d5fc14e90a9a828ac9d43c3dfac2af3c4c"},
	{CountingFilter, 30, "65e6a35375ba1da8594e2dfdb1cb7d1b44bf045642f6b9c97913db481ba048cf"},
}

// referenceFilters is the leaf's content rebuilt as one bloom package
// filter per page group.
type referenceFilters struct {
	std []*bloom.Filter
	cnt []*bloom.CountingFilter
}

func newReference(kind FilterKind, k int, added []diffAssoc) *referenceFilters {
	r := &referenceFilters{}
	p := bloom.Params{Bits: diffPosPerBF, Hashes: k}
	for i := 0; i < diffS; i++ {
		if kind == CountingFilter {
			r.cnt = append(r.cnt, bloom.NewCountingWithParams(p))
		} else {
			r.std = append(r.std, bloom.NewWithParams(p))
		}
	}
	for _, a := range added {
		r.add(a)
	}
	for i := 1; i < 20; i++ { // the hot key's repeats
		r.add(added[len(added)-1])
	}
	return r
}

func (r *referenceFilters) bid(pid device.PageID) int { return int(pid-diffMinPid) / 2 }

func (r *referenceFilters) add(a diffAssoc) {
	if r.cnt != nil {
		r.cnt[r.bid(a.pid)].AddUint64(a.key)
	} else {
		r.std[r.bid(a.pid)].AddUint64(a.key)
	}
}

func (r *referenceFilters) contains(bid int, key uint64) bool {
	if r.cnt != nil {
		return r.cnt[bid].ContainsUint64(key)
	}
	return r.std[bid].ContainsUint64(key)
}

func (r *referenceFilters) matches(key uint64) []int {
	var out []int
	for bid := 0; bid < diffS; bid++ {
		if r.contains(bid, key) {
			out = append(out, bid)
		}
	}
	return out
}

// checkAgreement asserts that probe (sequential and parallel) and
// probeOne answer exactly as the reference filters for every added key
// and 10k random ones.
func checkAgreement(t *testing.T, l *bfLeaf, ref *referenceFilters, added []diffAssoc, seed int64) {
	t.Helper()
	keys := make([]uint64, 0, len(added)+10000)
	for _, a := range added {
		keys = append(keys, a.key)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10000; i++ {
		keys = append(keys, rng.Uint64())
	}
	for _, key := range keys {
		want := ref.matches(key)
		if got := l.probe(key, false); !slices.Equal(got, want) {
			t.Fatalf("probe(%d) = %v, reference filters match %v", key, got, want)
		}
		if got := l.probeParallel(l.positions(key, nil)); !slices.Equal(got, want) {
			t.Fatalf("parallel probe(%d) = %v, reference filters match %v", key, got, want)
		}
		for bid := 0; bid < diffS; bid++ {
			if got := l.probeOne(bid, key); got != ref.contains(bid, key) {
				t.Fatalf("probeOne(%d, %d) = %v, reference filter says %v", bid, key, got, !got)
			}
		}
	}
}

// TestLeafFiltersBitCompatible checks the in-place filters against the
// bloom package, for both filter kinds and hash counts up to the
// automatic cap of 30: a leaf filled through addKey encodes to the same
// page as before, its standard filters hold exactly bloom.Filter's bits,
// probes agree with the reference filters on hits and misses, and
// counting removals round-trip.
func TestLeafFiltersBitCompatible(t *testing.T) {
	for _, g := range diffGolden {
		t.Run(fmt.Sprintf("kind%d/k%d", g.kind, g.hashes), func(t *testing.T) {
			l, added := fillDiffLeaf(t, g.kind, g.hashes)
			page := make([]byte, 4096)
			if err := encodeBFLeaf(page, l); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(page)); got != g.sha256 {
				t.Fatalf("encoded page sha256 %s, want %s", got, g.sha256)
			}
			ref := newReference(g.kind, g.hashes, added)
			for bid, f := range ref.std {
				words, err := f.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if want := words[24 : 24+l.fb]; !bytes.Equal(l.filter(bid), want) {
					t.Fatalf("filter %d bytes differ from bloom.Filter's bit array", bid)
				}
			}
			back, err := decodeBFLeaf(slices.Clone(page)) // back aliases its page
			if err != nil {
				t.Fatal(err)
			}
			checkAgreement(t, back, ref, added, int64(g.hashes))
			if g.kind != CountingFilter {
				return
			}

			// Add fresh associations, then remove them and one copy of the
			// saturated hot key: the page returns to its original bytes
			// and the leaf keeps agreeing with the reference filters put
			// through the same removals.
			rng := rand.New(rand.NewSource(99))
			var extra []diffAssoc
			for i := 0; i < 50; i++ {
				a := diffAssoc{key: 1<<60 + rng.Uint64()>>8, pid: device.PageID(diffMinPid + rng.Intn(2*diffS))}
				if err := back.addKey(a.key, a.pid); err != nil {
					t.Fatal(err)
				}
				ref.add(a)
				extra = append(extra, a)
			}
			for _, a := range append(extra, added[len(added)-1]) {
				lastGone, err := back.removeKey(a.key, a.pid)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.cnt[ref.bid(a.pid)].RemoveUint64(a.key); err != nil {
					t.Fatal(err)
				}
				if want := len(ref.matches(a.key)) == 0; lastGone != want {
					t.Fatalf("removeKey(%d) lastGone = %v, reference says %v", a.key, lastGone, want)
				}
			}
			again := make([]byte, 4096)
			if err := encodeBFLeaf(again, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, page) {
				t.Fatal("add-then-remove did not restore the leaf's bytes")
			}
			checkAgreement(t, back, ref, added, 7)
			if _, err := back.removeKey(1<<62, diffMinPid); !errors.Is(err, ErrNotIndexed) {
				t.Errorf("removing an absent key: err = %v, want ErrNotIndexed", err)
			}
		})
	}
}

// TestLeafDecodeRejectsCorruptHeaders mutates single header fields of a
// valid leaf; each must decode to ErrCorrupt rather than a leaf whose
// probes or updates would index out of range or divide by zero.
func TestLeafDecodeRejectsCorruptHeaders(t *testing.T) {
	l, _ := fillDiffLeaf(t, StandardFilter, 3)
	valid := make([]byte, 4096)
	if err := encodeBFLeaf(valid, l); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"not a leaf", func(b []byte) { b[0] = nodeInternal }},
		{"zero positions per filter", func(b []byte) { le.PutUint32(b[51:55], 0) }},
		{"zero filters", func(b []byte) { le.PutUint16(b[1:3], 0) }},
		{"filters cover too few pages", func(b []byte) { le.PutUint16(b[1:3], diffS-1) }},
		{"page range past the filters", func(b []byte) { le.PutUint64(b[11:19], diffMinPid+2*diffS) }},
		{"page range of 2^64 pages", func(b []byte) {
			le.PutUint64(b[3:11], 0)
			le.PutUint64(b[11:19], ^uint64(0))
		}},
		{"min pid above max pid", func(b []byte) { le.PutUint64(b[3:11], diffMinPid+2*diffS) }},
		{"zero granularity", func(b []byte) { le.PutUint16(b[49:51], 0) }},
		{"zero hashes", func(b []byte) { b[47] = 0 }},
		{"unknown filter kind", func(b []byte) { b[48] = 7 }},
		{"filters overflow the page", func(b []byte) { le.PutUint32(b[51:55], 1<<20) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf := slices.Clone(valid)
			c.mutate(buf)
			if _, err := decodeBFLeaf(buf); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode: err = %v, want ErrCorrupt", err)
			}
		})
	}
	if _, err := decodeBFLeaf(valid[:leafHeaderSize-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short page: err = %v, want ErrCorrupt", err)
	}
	if _, err := decodeBFLeaf(valid); err != nil {
		t.Errorf("unmutated page: %v", err)
	}
}

// TestDecodedLeafAliasesPageCopy pins the aliasing contract: a decoded
// leaf's filters are the bytes of the page copy ReadPage returned, so
// mutating the leaf changes that copy but not the stored page until the
// leaf is written back.
func TestDecodedLeafAliasesPageCopy(t *testing.T) {
	fx := newFixture(t, 5000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.01})
	pid := tr.loadMeta().firstLeaf
	stored, err := fx.idxStore.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	buf := slices.Clone(stored)
	l, err := decodeBFLeaf(buf)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1 << 40); ; key++ {
		if !l.probeOne(0, key) {
			if err := l.addKey(key, l.minPid); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if bytes.Equal(buf, stored) {
		t.Fatal("addKey did not write through to the decoded page copy")
	}
	if now, err := fx.idxStore.ReadPage(pid); err != nil || !bytes.Equal(now, stored) {
		t.Fatalf("stored page changed before write-back (err %v)", err)
	}
	if err := tr.writeLeaf(pid, l); err != nil {
		t.Fatal(err)
	}
	if now, err := fx.idxStore.ReadPage(pid); err != nil || !bytes.Equal(now, buf) {
		t.Fatalf("stored page after write-back differs from the mutated leaf (err %v)", err)
	}
}

// TestLeafProbeAllocations gates the per-probe cost: decoding a leaf
// allocates only the leaf header whatever S is, and probing an absent
// key allocates nothing. It covers a one-filter leaf and a bulk-loaded
// leaf of 127 filters, so a per-filter allocation cannot come back
// unnoticed.
func TestLeafProbeAllocations(t *testing.T) {
	o, _ := Options{FPP: 0.01, Hashes: 3}.withDefaults()
	one := newBFLeaf(0, 0, o, 4096, 1)
	for k := uint64(0); k < 100; k++ {
		if err := one.addKey(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	onePage := make([]byte, 4096)
	if err := encodeBFLeaf(onePage, one); err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, 20000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-3})
	bulkPage, err := fx.idxStore.ReadPage(tr.loadMeta().firstLeaf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s    int
		page []byte
	}{{1, onePage}, {127, bulkPage}} {
		l, err := decodeBFLeaf(c.page)
		if err != nil {
			t.Fatal(err)
		}
		if l.numBFs() != c.s {
			t.Fatalf("leaf has %d filters, want %d", l.numBFs(), c.s)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = decodeBFLeaf(c.page) }); n > 1 {
			t.Errorf("S=%d: decodeBFLeaf allocates %v objects, want <= 1", c.s, n)
		}
		absent := uint64(1 << 50)
		for len(l.probe(absent, false)) > 0 {
			absent++
		}
		if n := testing.AllocsPerRun(100, func() { _ = l.probe(absent, false) }); n != 0 {
			t.Errorf("S=%d: probing an absent key allocates %v objects, want 0", c.s, n)
		}
	}
}
