package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"bftree/internal/bloom"
	"bftree/internal/branch"
	"bftree/internal/device"
)

// diffAssoc is one key→page association added to a leaf under test.
type diffAssoc struct {
	key uint64
	pid device.PageID
}

// diffShape is the shape of a leaf fillDiffLeaf builds: S filters of 2
// pages each, with the given positions per filter, in a 4 KB page.
// Positions 0 takes what a 4 KB page gives S filters of the kind
// (Geometry.positionsFor), so the filter region fills the page as a
// bulk-loaded leaf's does.
type diffShape struct {
	name      string
	s         int
	positions uint64
}

const (
	diffPageSize = 4096
	diffMinPid   = 100
)

var diffShapes = []diffShape{
	// 1001 positions are neither a multiple of 8 nor of 64: rows end
	// mid-byte and the region ends in padding.
	{"S8x1001", 8, 1001},
	// One filter past a word: every row spans two words, the second
	// holding one filter.
	{"S65", 65, 0},
	// bfperf's leaf: 127 filters of 248 standard positions, two words
	// per row.
	{"S127", 127, 0},
	// One filter over the whole page: the region ends at the page's last
	// byte, so the last rows' windows take the tail path.
	{"S1", 1, 0},
}

// diffGolden holds, per filter kind and hash count up to the automatic
// cap of 30, the SHA-256 of the pages the diffShapes leaves encode to,
// in diffShapes order. Each page is first checked against the bloom
// filters transposed independently of leaf.go, so the pins record the
// reference layout, not whatever the encoder wrote.
var diffGolden = []struct {
	kind   FilterKind
	hashes int
	sha256 string
}{
	{StandardFilter, 1, "da60f241f99ae3d3b811f6eab37e54183420e78feef4a89aa72cb345936798b9"},
	{StandardFilter, 3, "9e5cde225719ab48f15fbd5d5d2eb0dddf6383be9de379455ce23f47b900f9f2"},
	{StandardFilter, 10, "d5d227402f1889dece8346d988c26846d6270f5f6c355425d39679f3c8c7436e"},
	{StandardFilter, 30, "49abd22a7e9463341e6eb4484f1149b387d2e5d6a7a1959d52c1605fbe69d042"},
	{CountingFilter, 1, "97ac8a7e32e7868837cb8d4d20b5862cea86848e494857fa4e94924a40b203ea"},
	{CountingFilter, 3, "b2d065388f4154df928c6cac92e20f1e5a6456bc73edbaf0bbb7db021f0a68c0"},
	{CountingFilter, 10, "d66d9f6edc41ba522aa7085fbe456923606303712007207965b5902434d9925c"},
	{CountingFilter, 30, "249c0685a47459d72f2e621e1ab9695a27bb12756d7199255dd393c111ba69f9"},
}

// positionsFor resolves the shape's positions per filter for kind.
func (sh diffShape) positionsFor(kind FilterKind) uint64 {
	if sh.positions != 0 {
		return sh.positions
	}
	return Geometry{PageSize: diffPageSize}.positionsFor(sh.s, kind)
}

// fillDiffLeaf builds a leaf of the given shape, kind and hash count
// from a seeded stream of associations, plus one key added 20 times,
// which saturates its counters in a counting leaf.
func fillDiffLeaf(t *testing.T, sh diffShape, kind FilterKind, k int) (*bfLeaf, []diffAssoc) {
	t.Helper()
	o, err := Options{FPP: 0.01, Hashes: k, Filter: kind, Granularity: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	l := newBFLeaf(diffMinPid, diffMinPid+device.PageID(2*sh.s-1), o, sh.positionsFor(kind), sh.s, diffPageSize)
	rng := rand.New(rand.NewSource(int64(k)*10 + int64(kind)))
	var added []diffAssoc
	for i := 0; i < 120; i++ {
		a := diffAssoc{key: rng.Uint64() >> 8, pid: device.PageID(diffMinPid + rng.Intn(2*sh.s))}
		if err := l.addKey(a.key, a.pid); err != nil {
			t.Fatal(err)
		}
		added = append(added, a)
	}
	hot := diffAssoc{key: 42, pid: diffMinPid + 1}
	for i := 0; i < 20; i++ {
		if err := l.addKey(hot.key, hot.pid); err != nil {
			t.Fatal(err)
		}
	}
	added = append(added, hot)
	l.minKey, l.maxKey, l.numKeys, l.next = 0, ^uint64(0)>>8, uint32(len(added)), 7
	return l, added
}

// referenceFilters is the leaf's content rebuilt as one bloom package
// filter per page group.
type referenceFilters struct {
	positions uint64
	std       []*bloom.Filter
	cnt       []*bloom.CountingFilter
}

func newReference(s int, positions uint64, kind FilterKind, k int, added []diffAssoc) *referenceFilters {
	r := &referenceFilters{positions: positions}
	p := bloom.Params{Bits: positions, Hashes: k}
	for i := 0; i < s; i++ {
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

func (r *referenceFilters) s() int { return len(r.std) + len(r.cnt) }

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
	for bid := 0; bid < r.s(); bid++ {
		if r.contains(bid, key) {
			out = append(out, bid)
		}
	}
	return out
}

// region transposes the reference filters into the bit-sliced layout of
// leaf.go, written out here from its definition: region bit row·S+b is
// bit b of the row, bit i of the region is bit i%8 of byte i/8; row p
// holds bit p of each bloom.Filter, and rows 4p…4p+3 hold the four bits
// of each bloom.CountingFilter's counter p, low bit first.
func (r *referenceFilters) region(size int) []byte {
	out := make([]byte, size)
	set := func(row uint64, b int) {
		i := row*uint64(r.s()) + uint64(b)
		out[i/8] |= 1 << (i % 8)
	}
	for b, f := range r.std {
		words, err := f.MarshalBinary()
		if err != nil {
			panic(err)
		}
		bitArray := words[24:] // little-endian words: bit p is bit p%8 of byte p/8
		for p := uint64(0); p < r.positions; p++ {
			if bitArray[p/8]>>(p%8)&1 == 1 {
				set(p, b)
			}
		}
	}
	for b, f := range r.cnt {
		for p := uint64(0); p < r.positions; p++ {
			for c, j := f.Counter(p), uint64(0); j < 4; j++ {
				if c>>j&1 == 1 {
					set(4*p+j, b)
				}
			}
		}
	}
	return out
}

// checkAgreement asserts that probe and probeOne answer exactly as the
// reference filters for every added key and 10k random ones.
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
		if got := l.probe(key); !slices.Equal(got, want) {
			t.Fatalf("probe(%d) = %v, reference filters match %v", key, got, want)
		}
		for bid := 0; bid < ref.s(); bid++ {
			if got := l.probeOne(bid, key); got != ref.contains(bid, key) {
				t.Fatalf("probeOne(%d, %d) = %v, reference filter says %v", bid, key, got, !got)
			}
		}
	}
}

// TestLeafFiltersBitCompatible checks the bit-sliced filter region
// against the bloom package, for both filter kinds, hash counts up to
// the automatic cap of 30 and every shape of diffShapes: a leaf filled
// through addKey encodes to exactly the region that transposing
// bloom.Filter's bits (bloom.CountingFilter's counters) gives, with
// nothing after it, and the pages hash to the pinned digest; probes
// agree with the reference filters on hits and misses; and counting
// removals round-trip.
func TestLeafFiltersBitCompatible(t *testing.T) {
	for _, g := range diffGolden {
		t.Run(fmt.Sprintf("kind%d/k%d", g.kind, g.hashes), func(t *testing.T) {
			digest := sha256.New()
			for _, sh := range diffShapes {
				t.Run(sh.name, func(t *testing.T) {
					checkFiltersBitCompatible(t, sh, g.kind, g.hashes, digest)
				})
			}
			if got := fmt.Sprintf("%x", digest.Sum(nil)); got != g.sha256 {
				t.Fatalf("encoded pages sha256 %s, want %s", got, g.sha256)
			}
		})
	}
}

// checkFiltersBitCompatible runs TestLeafFiltersBitCompatible's checks
// on one leaf and adds its encoded page to digest.
func checkFiltersBitCompatible(t *testing.T, sh diffShape, kind FilterKind, k int, digest hash.Hash) {
	l, added := fillDiffLeaf(t, sh, kind, k)
	encoded, err := encodeBFLeaf(l)
	if err != nil {
		t.Fatal(err)
	}
	page := slices.Clone(encoded) // encoded is the leaf's own page
	digest.Write(page)
	ref := newReference(sh.s, sh.positionsFor(kind), kind, k, added)
	want := ref.region(sh.s * filterBytes(kind, ref.positions))
	got := page[leafHeaderSize:]
	if !bytes.Equal(got[:len(want)], want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("filter region byte %d is %#x, the transposed bloom filters give %#x", i, got[i], want[i])
	}
	if slices.ContainsFunc(got[len(want):], func(b byte) bool { return b != 0 }) {
		t.Fatal("the page is not zero past the filter region")
	}
	back, err := decodeBFLeaf(slices.Clone(page)) // back aliases its page
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, back, ref, added, int64(k))
	if kind != CountingFilter {
		return
	}

	// Add fresh associations, then remove them and one copy of the
	// saturated hot key: the page returns to its original bytes and the
	// leaf keeps agreeing with the reference filters put through the
	// same removals.
	rng := rand.New(rand.NewSource(99))
	var extra []diffAssoc
	for i := 0; i < 50; i++ {
		a := diffAssoc{key: 1<<60 + rng.Uint64()>>8, pid: device.PageID(diffMinPid + rng.Intn(2*sh.s))}
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
	again, err := encodeBFLeaf(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, page) {
		t.Fatal("add-then-remove did not restore the leaf's bytes")
	}
	checkAgreement(t, back, ref, added, 7)
	if _, err := back.removeKey(1<<62, diffMinPid); !errors.Is(err, ErrNotIndexed) {
		t.Errorf("removing an absent key: err = %v, want ErrNotIndexed", err)
	}
}

// TestLeafDecodeRejectsCorruptHeaders mutates single header fields of a
// valid leaf; each must decode to ErrCorrupt rather than a leaf whose
// probes or updates would index out of range or divide by zero.
func TestLeafDecodeRejectsCorruptHeaders(t *testing.T) {
	sh := diffShapes[0]
	l, _ := fillDiffLeaf(t, sh, StandardFilter, 3)
	valid, err := encodeBFLeaf(l)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"not a leaf", func(b []byte) { b[0] = branch.Kind }},
		{"zero positions per filter", func(b []byte) { le.PutUint32(b[51:55], 0) }},
		{"zero filters", func(b []byte) { le.PutUint16(b[1:3], 0) }},
		{"filters cover too few pages", func(b []byte) { le.PutUint16(b[1:3], uint16(sh.s-1)) }},
		{"page range past the filters", func(b []byte) { le.PutUint64(b[11:19], uint64(diffMinPid+2*sh.s)) }},
		{"page range of 2^64 pages", func(b []byte) {
			le.PutUint64(b[3:11], 0)
			le.PutUint64(b[11:19], ^uint64(0))
		}},
		{"min pid above max pid", func(b []byte) { le.PutUint64(b[3:11], uint64(diffMinPid+2*sh.s)) }},
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

// TestDecodedLeafCopiesOnWrite pins the copy-on-write contract: a
// decoded leaf aliases the shared page image ReadPage returned, and
// mutating it (addKey, removeKey) changes neither that image nor the
// stored page until the leaf is written back.
func TestDecodedLeafCopiesOnWrite(t *testing.T) {
	fx := newFixture(t, 5000, 11)
	for _, kind := range []FilterKind{StandardFilter, CountingFilter} {
		tr := fx.build(t, 0, Options{FPP: 0.01, Filter: kind})
		pid := tr.loadMeta().firstLeaf
		image, err := tr.store.ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		orig := slices.Clone(image)
		l, err := decodeBFLeaf(image)
		if err != nil {
			t.Fatal(err)
		}
		key := uint64(1 << 40)
		for l.probeOne(0, key) {
			key++
		}
		if err := l.addKey(key, l.minPid); err != nil {
			t.Fatal(err)
		}
		if kind == CountingFilter {
			if _, err := l.removeKey(key, l.minPid); err != nil {
				t.Fatal(err)
			}
			if err := l.addKey(key, l.minPid); err != nil {
				t.Fatal(err)
			}
		}
		if !l.probeOne(0, key) {
			t.Fatalf("%v: the leaf lost the key it absorbed", kind)
		}
		if !bytes.Equal(image, orig) {
			t.Fatalf("%v: mutating the decoded leaf wrote into the image it was decoded from", kind)
		}
		if now, err := tr.store.ReadPage(pid); err != nil || !bytes.Equal(now, orig) {
			t.Fatalf("%v: stored page changed before write-back (err %v)", kind, err)
		}
		if err := tr.writeLeaf(pid, l); err != nil {
			t.Fatal(err)
		}
		now, err := tr.store.ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeBFLeaf(now)
		if err != nil || !back.probeOne(0, key) {
			t.Fatalf("%v: the written-back leaf lacks the key (err %v)", kind, err)
		}
		if !bytes.Equal(image, orig) {
			t.Fatalf("%v: writeLeaf changed an image read before it", kind)
		}
	}
}

// TestLeafProbeAllocations gates the per-probe cost: decoding a leaf
// allocates only the leaf header whatever S is, and probing an absent
// key allocates nothing. It covers a one-filter leaf and a bulk-loaded
// leaf of 127 filters, so a per-filter allocation cannot come back
// unnoticed.
func TestLeafProbeAllocations(t *testing.T) {
	o, _ := Options{FPP: 0.01, Hashes: 3}.withDefaults()
	one := newBFLeaf(0, 0, o, 4096, 1, 4096)
	for k := uint64(0); k < 100; k++ {
		if err := one.addKey(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	onePage, err := encodeBFLeaf(one)
	if err != nil {
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
		for len(l.probe(absent)) > 0 {
			absent++
		}
		if n := testing.AllocsPerRun(100, func() { _ = l.probe(absent) }); n != 0 {
			t.Errorf("S=%d: probing an absent key allocates %v objects, want 0", c.s, n)
		}
	}
}
