package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"bftree/internal/bloom"
	"bftree/internal/branch"
	"bftree/internal/device"
)

// nodeBFLeaf is the kind byte of a BF-leaf. Internal nodes are the
// B+-Tree nodes of package branch, of kind branch.Kind.
const nodeBFLeaf = byte(3)

// nodeKind returns the kind byte of an index page: branch.Kind or
// nodeBFLeaf.
func nodeKind(buf []byte) (byte, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("%w: empty page", ErrCorrupt)
	}
	k := buf[0]
	if k != branch.Kind && k != nodeBFLeaf {
		return 0, fmt.Errorf("%w: unknown node kind %d", ErrCorrupt, k)
	}
	return k, nil
}

// Serialized BF-leaf layout (little-endian):
//
//	byte 0      kind (3)
//	bytes 1-2   S, the number of Bloom filters (uint16)
//	bytes 3-10  min pid
//	bytes 11-18 max pid
//	bytes 19-26 min key
//	bytes 27-34 max key
//	bytes 35-38 #keys (uint32)
//	bytes 39-46 next-leaf pid
//	byte 47     hash-function count
//	byte 48     filter kind
//	bytes 49-50 granularity (uint16, data pages per filter)
//	bytes 51-54 positions per filter (uint32)
//	bytes 55-58 drift inserts (uint32, keys absorbed since build/compaction)
//	bytes 59-62 drift deletes (uint32, associations deleted since build/compaction)
//	bytes 63+   the filter region
//
// The filter region is bit-sliced: it stores the S filters transposed,
// one row per filter position, so a row is a bitmap over the filters.
// Region bit r·S+b is bit b of row r, and region bit i is bit i%8 of
// byte i/8. On a standard leaf, row p holds bit p of every filter. On a
// counting leaf, rows 4p…4p+3 hold the four bit-planes of position p's
// 4-bit counters, low bit first. Rows are packed at an S-bit stride, and
// the region is S·filterBytes(kind, positions) bytes long, the size of S
// filters stored one after another, so the leaf geometry does not
// depend on the layout. Column b of the region holds exactly the bits
// (or counters) of a bloom.Filter (bloom.CountingFilter) with the
// leaf's positions and hash count, and every position is derived as
// those filters derive it.
const leafHeaderSize = 63

// counterMax is the value at which a counting filter's 4-bit counters
// saturate; a saturated counter is never decremented, as in
// bloom.CountingFilter.
const counterMax = 15

// posBufLen sizes the stack buffer that holds a key's filter positions.
// It covers every hash count hashesFor picks; a larger explicit count
// spills to the heap rather than being truncated.
const posBufLen = 32

// bfLeaf is the in-memory form of a BF-leaf (Section 4.1): a page range,
// a key range, the indexed-key count that guards the fpp, the next-leaf
// pointer for range scans, and S Bloom filters each covering granularity
// consecutive data pages.
//
// The leaf stays in page layout: page is a whole page image and filters
// its filter region, and every probe and update works on those bytes. A
// decoded leaf aliases the page image it was decoded from, which is
// shared and read-only (pagestore.ReadPage hands every reader the same
// image), so probing a leaf copies nothing. Writers copy on write: the
// first addKey, removeKey or encodeBFLeaf on a decoded leaf clones the
// image once, so a mutation never reaches an image a lock-free reader
// may hold, and the stored page changes only when the leaf is written
// back. A leaf built in memory owns its page from the start.
//
// driftIns and driftDel are this leaf's contribution to the tree-wide
// Equation 14 drift counters (treeMeta.inserts/deletes): every published
// global increment is charged to exactly one leaf, under that leaf's
// latch, in the same page write that records the mutation itself — so
// sum(leaf drift) == global drift at quiescence, which is what lets a
// partial rebuild (compactLeafLocked) decrement the global counters by
// exactly the compacted leaves' contributions.
type bfLeaf struct {
	minPid, maxPid device.PageID
	minKey, maxKey uint64
	numKeys        uint32
	next           device.PageID
	hashes         int
	kind           FilterKind
	shared         bool // page is a shared image; ownPage before writing
	granularity    int
	posPerBF       uint64
	driftIns       uint32
	driftDel       uint32

	s       int    // number of filters
	page    []byte // the page image: header, filter region, zero tail
	filters []byte // the filter region of page; its capacity ends with it
}

// ownPage gives the leaf its own copy of the page image before the
// first write into it (see bfLeaf).
func (l *bfLeaf) ownPage() {
	if l.shared {
		end := leafHeaderSize + len(l.filters)
		l.page = slices.Clone(l.page)
		l.filters = l.page[leafHeaderSize:end:end]
		l.shared = false
	}
}

// numBFs returns S.
func (l *bfLeaf) numBFs() int { return l.s }

// numPages returns the number of data pages the leaf covers.
func (l *bfLeaf) numPages() int {
	return int(l.maxPid-l.minPid) + 1
}

// bfIndexOf maps a data page to the filter covering it.
func (l *bfLeaf) bfIndexOf(pid device.PageID) int {
	return int(pid-l.minPid) / l.granularity
}

// pageRangeOf returns the data pages covered by filter bid.
func (l *bfLeaf) pageRangeOf(bid int) (lo, hi device.PageID) {
	lo = l.minPid + device.PageID(bid*l.granularity)
	hi = lo + device.PageID(l.granularity) - 1
	if hi > l.maxPid {
		hi = l.maxPid
	}
	return lo, hi
}

// positions appends key's k filter positions to pos. Every filter of a
// leaf shares one geometry, so a key is hashed once per leaf rather than
// once per filter.
func (l *bfLeaf) positions(key uint64, pos []uint32) []uint32 {
	h1, h2 := bloom.HashUint64(key)
	for i := 0; i < l.hashes; i++ {
		pos = append(pos, uint32((h1+uint64(i)*h2)%l.posPerBF))
	}
	return pos
}

// counter returns the 4-bit counter whose lowest plane is region bit i;
// its other planes follow at an S-bit stride.
func (l *bfLeaf) counter(i uint64) uint8 {
	var c uint8
	for j := 0; j < 4; j++ {
		c |= (l.filters[i>>3] >> (i & 7) & 1) << j
		i += uint64(l.s)
	}
	return c
}

// setCounter stores c in the four planes of the counter at region bit i.
func (l *bfLeaf) setCounter(i uint64, c uint8) {
	for j := 0; j < 4; j++ {
		if m := byte(1) << (i & 7); c>>j&1 != 0 {
			l.filters[i>>3] |= m
		} else {
			l.filters[i>>3] &^= m
		}
		i += uint64(l.s)
	}
}

// window returns the 64 region bits that start at bit i, low bit first.
// Bits past the region's end read as zero: a window that would load
// beyond its last byte is assembled from the bytes that are left.
func (l *bfLeaf) window(i uint64) uint64 {
	at, sh := i>>3, i&7
	if at+9 <= uint64(len(l.filters)) {
		b := l.filters[at : at+9]
		return binary.LittleEndian.Uint64(b)>>sh | uint64(b[8])<<(64-sh)
	}
	var tail [8]byte
	copy(tail[:], l.filters[at:])
	return binary.LittleEndian.Uint64(tail[:]) >> sh
}

// match returns the filters w·64 … w·64+63 that hold every position in
// pos, as a bitmap: the AND of the positions' rows over that word of
// filters, where a counting leaf's row is the OR of its four planes. It
// stops once the word is zero, which for an absent key usually takes a
// few positions.
func (l *bfLeaf) match(pos []uint32, w int) uint64 {
	s, lo := uint64(l.s), uint64(w)*64
	acc := ^uint64(0)
	if n := s - lo; n < 64 {
		acc >>= 64 - n
	}
	if l.kind == CountingFilter {
		for _, p := range pos {
			i := 4*uint64(p)*s + lo
			if acc &= l.window(i) | l.window(i+s) | l.window(i+2*s) | l.window(i+3*s); acc == 0 {
				return 0
			}
		}
		return acc
	}
	for _, p := range pos {
		if acc &= l.window(uint64(p)*s + lo); acc == 0 {
			return 0
		}
	}
	return acc
}

// contains tests filter bid at the given positions.
func (l *bfLeaf) contains(bid int, pos []uint32) bool {
	s, b := uint64(l.s), uint64(bid)
	if l.kind == CountingFilter {
		for _, p := range pos {
			if l.counter(4*uint64(p)*s+b) == 0 {
				return false
			}
		}
		return true
	}
	for _, p := range pos {
		if at := uint64(p)*s + b; l.filters[at>>3]&(1<<(at&7)) == 0 {
			return false
		}
	}
	return true
}

// addKey inserts key into the filter covering data page pid. Bulk load
// and compaction call it once per tuple, so it derives each position
// inline and sets its bit directly.
func (l *bfLeaf) addKey(key uint64, pid device.PageID) error {
	if pid < l.minPid || pid > l.maxPid {
		return fmt.Errorf("%w: pid %d outside [%d,%d]", ErrKeyRange, pid, l.minPid, l.maxPid)
	}
	l.ownPage()
	s, b := uint64(l.s), uint64(l.bfIndexOf(pid))
	h1, h2 := bloom.HashUint64(key)
	if l.kind == CountingFilter {
		for i := 0; i < l.hashes; i++ {
			at := 4*((h1+uint64(i)*h2)%l.posPerBF)*s + b
			if c := l.counter(at); c < counterMax {
				l.setCounter(at, c+1)
			}
		}
		return nil
	}
	f := l.filters
	for i := 0; i < l.hashes; i++ {
		at := (h1+uint64(i)*h2)%l.posPerBF*s + b
		f[at>>3] |= 1 << (at & 7)
	}
	return nil
}

// removeKey deletes the key→page association from the filter covering
// pid; only counting leaves support this. It reports whether that was
// the key's last association in the leaf — no filter claims the key
// afterwards — which is when (and only when) the caller may decrement
// the leaf's distinct-key count. The check is a membership test, so a
// false positive in another filter keeps numKeys conservatively high;
// that errs on the safe side of the Equation 5 capacity check.
func (l *bfLeaf) removeKey(key uint64, pid device.PageID) (lastGone bool, err error) {
	if l.kind != CountingFilter {
		return false, fmt.Errorf("%w: standard filters cannot delete", ErrOptions)
	}
	if pid < l.minPid || pid > l.maxPid {
		return false, fmt.Errorf("%w: pid %d outside [%d,%d]", ErrKeyRange, pid, l.minPid, l.maxPid)
	}
	var buf [posBufLen]uint32
	pos := l.positions(key, buf[:0])
	bid := l.bfIndexOf(pid)
	// Removing a key the filter does not hold would decrement other
	// keys' counters and introduce false negatives.
	if !l.contains(bid, pos) {
		return false, fmt.Errorf("%w: key %d not in the filter of page %d", ErrNotIndexed, key, pid)
	}
	l.ownPage()
	s, b := uint64(l.s), uint64(bid)
	for _, p := range pos {
		at := 4*uint64(p)*s + b
		if c := l.counter(at); c > 0 && c < counterMax {
			l.setCounter(at, c-1)
		}
	}
	for w := 0; w*64 < l.s; w++ {
		if l.match(pos, w) != 0 {
			return false, nil
		}
	}
	return true, nil
}

// probeOne tests a single filter.
func (l *bfLeaf) probeOne(bid int, key uint64) bool {
	var buf [posBufLen]uint32
	return l.contains(bid, l.positions(key, buf[:0]))
}

// probe tests every filter for key and returns the matching filter
// indices in ascending order — the candidate page groups of Algorithm 1.
func (l *bfLeaf) probe(key uint64) []int { return l.appendProbe(nil, key) }

// appendProbe appends the indices of the filters matching key to dst, in
// ascending order, and returns the extended slice. It ANDs the key's k
// rows one word of 64 filters at a time: the parallel probe of a leaf's
// many filters that Section 8 proposes, done with word operations
// instead of goroutines.
func (l *bfLeaf) appendProbe(dst []int, key uint64) []int {
	var buf [posBufLen]uint32
	pos := l.positions(key, buf[:0])
	for w := 0; w*64 < l.s; w++ {
		for m := l.match(pos, w); m != 0; m &= m - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(m))
		}
	}
	return dst
}

// filterBytes returns the filter region's bytes per filter: the size
// one filter of the given positions takes on its own.
func filterBytes(kind FilterKind, positions uint64) int {
	if kind == CountingFilter {
		return int((positions + 1) / 2) // 4-bit counters
	}
	return int((positions + 7) / 8)
}

// newBFLeaf constructs an empty leaf covering [minPid, maxPid] with S
// filters of posPerBF positions each, in a page of pageSize bytes that
// the leaf owns. The filters must fit the page, as Geometry.positionsFor
// guarantees.
func newBFLeaf(minPid, maxPid device.PageID, o Options, posPerBF uint64, s, pageSize int) *bfLeaf {
	end := leafHeaderSize + s*filterBytes(o.Filter, posPerBF)
	page := make([]byte, pageSize)
	return &bfLeaf{
		minPid:      minPid,
		maxPid:      maxPid,
		minKey:      ^uint64(0),
		maxKey:      0,
		next:        device.InvalidPage,
		hashes:      o.Hashes,
		kind:        o.Filter,
		granularity: o.Granularity,
		posPerBF:    posPerBF,
		s:           s,
		page:        page,
		filters:     page[leafHeaderSize:end:end],
	}
}

// encodeBFLeaf writes the leaf's header into the page the leaf owns
// (taking its own copy first if it still aliases a shared image) and
// returns that page. The page stays the leaf's: a caller writes it out
// before the leaf changes again.
func encodeBFLeaf(l *bfLeaf) ([]byte, error) {
	if l.s > 0xffff {
		return nil, fmt.Errorf("%w: %d filters exceed uint16", ErrCorrupt, l.s)
	}
	l.ownPage()
	buf := l.page
	buf[0] = nodeBFLeaf
	binary.LittleEndian.PutUint16(buf[1:3], uint16(l.s))
	binary.LittleEndian.PutUint64(buf[3:11], uint64(l.minPid))
	binary.LittleEndian.PutUint64(buf[11:19], uint64(l.maxPid))
	binary.LittleEndian.PutUint64(buf[19:27], l.minKey)
	binary.LittleEndian.PutUint64(buf[27:35], l.maxKey)
	binary.LittleEndian.PutUint32(buf[35:39], l.numKeys)
	binary.LittleEndian.PutUint64(buf[39:47], uint64(l.next))
	buf[47] = byte(l.hashes)
	buf[48] = byte(l.kind)
	binary.LittleEndian.PutUint16(buf[49:51], uint16(l.granularity))
	binary.LittleEndian.PutUint32(buf[51:55], uint32(l.posPerBF))
	binary.LittleEndian.PutUint32(buf[55:59], l.driftIns)
	binary.LittleEndian.PutUint32(buf[59:63], l.driftDel)
	clear(buf[leafHeaderSize+len(l.filters):])
	return buf, nil
}

// leafMinKey reads the minKey of the BF-leaf image buf from its header
// alone; ok is false when buf is not a BF-leaf.
func leafMinKey(buf []byte) (minKey uint64, ok bool) {
	if len(buf) < leafHeaderSize || buf[0] != nodeBFLeaf {
		return 0, false
	}
	return binary.LittleEndian.Uint64(buf[19:27]), true
}

// decodeBFLeaf parses a BF-leaf's header and returns a leaf that aliases
// buf until its first write (see bfLeaf); buf itself is never written.
// It checks every invariant the probe and update paths index by, so a
// corrupt header is an ErrCorrupt, never a panic.
func decodeBFLeaf(buf []byte) (*bfLeaf, error) {
	if len(buf) < leafHeaderSize || buf[0] != nodeBFLeaf {
		return nil, fmt.Errorf("%w: not a BF-leaf", ErrCorrupt)
	}
	s := int(binary.LittleEndian.Uint16(buf[1:3]))
	l := &bfLeaf{
		minPid:      device.PageID(binary.LittleEndian.Uint64(buf[3:11])),
		maxPid:      device.PageID(binary.LittleEndian.Uint64(buf[11:19])),
		minKey:      binary.LittleEndian.Uint64(buf[19:27]),
		maxKey:      binary.LittleEndian.Uint64(buf[27:35]),
		numKeys:     binary.LittleEndian.Uint32(buf[35:39]),
		next:        device.PageID(binary.LittleEndian.Uint64(buf[39:47])),
		hashes:      int(buf[47]),
		kind:        FilterKind(buf[48]),
		granularity: int(binary.LittleEndian.Uint16(buf[49:51])),
		posPerBF:    uint64(binary.LittleEndian.Uint32(buf[51:55])),
		driftIns:    binary.LittleEndian.Uint32(buf[55:59]),
		driftDel:    binary.LittleEndian.Uint32(buf[59:63]),
		s:           s,
	}
	if l.granularity < 1 || l.hashes < 1 || l.posPerBF < 1 {
		return nil, fmt.Errorf("%w: BF-leaf header granularity=%d hashes=%d positions=%d",
			ErrCorrupt, l.granularity, l.hashes, l.posPerBF)
	}
	if l.kind != StandardFilter && l.kind != CountingFilter {
		return nil, fmt.Errorf("%w: unknown filter kind %d", ErrCorrupt, l.kind)
	}
	// The filters must cover every page of the range, or bfIndexOf would
	// index past the last one.
	if l.minPid > l.maxPid || uint64(l.maxPid-l.minPid) >= uint64(s)*uint64(l.granularity) {
		return nil, fmt.Errorf("%w: %d filters of %d pages cannot cover pages [%d,%d]",
			ErrCorrupt, s, l.granularity, l.minPid, l.maxPid)
	}
	fb := filterBytes(l.kind, l.posPerBF)
	end := leafHeaderSize + s*fb
	if end > len(buf) {
		return nil, fmt.Errorf("%w: %d filters of %d bytes overflow page", ErrCorrupt, s, fb)
	}
	l.page = buf
	l.filters = buf[leafHeaderSize:end:end]
	l.shared = true
	return l, nil
}
