package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"bftree/internal/bloom"
	"bftree/internal/device"
)

// Node kinds on disk. Internal nodes share the B+-Tree layout; BF-leaves
// are specific to this package.
const (
	nodeInternal = byte(2)
	nodeBFLeaf   = byte(3)
)

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
//	bytes 63+   S packed filter arrays
//
// Each filter array is filterBytes long. A standard filter's position p
// is bit p%8 of byte p/8; a counting filter's is the 4-bit counter in
// byte p/2, the low nibble for even p. Both match the in-memory layout
// of bloom.Filter (little-endian words) and bloom.CountingFilter, and
// every position is derived as those filters derive it.
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
// The filters stay in page layout: filters holds S arrays of fb bytes
// back to back, and every probe and update works on those bytes. A
// decoded leaf aliases the page image it was decoded from, which is
// shared and read-only (pagestore.ReadPage hands every reader the same
// image), so probing a leaf copies nothing. Writers copy on write: the
// first addKey or removeKey on a decoded leaf clones its filters, so a
// mutation never reaches an image a lock-free reader may hold, and the
// stored page changes only when the leaf is written back.
//
// driftIns and driftDel are this leaf's contribution to the tree-wide
// Equation 14 drift counters (treeMeta.inserts/deletes): every published
// global increment is charged to exactly one leaf, under that leaf's
// latch, in the same page write that records the mutation itself — so
// sum(leaf drift) == global drift at quiescence, which is what lets a
// partial rebuild (CompactLeaves) decrement the global counters by
// exactly the compacted leaves' contributions.
type bfLeaf struct {
	minPid, maxPid device.PageID
	minKey, maxKey uint64
	numKeys        uint32
	next           device.PageID
	hashes         int
	kind           FilterKind
	granularity    int
	posPerBF       uint64
	driftIns       uint32
	driftDel       uint32

	s       int    // number of filters
	fb      int    // bytes per filter, filterBytes(kind, posPerBF)
	filters []byte // s*fb bytes in page layout
	shared  bool   // filters alias a page image; ownFilters before writing
}

// ownFilters gives the leaf its own copy of the filters before the
// first write into them (see bfLeaf).
func (l *bfLeaf) ownFilters() {
	if l.shared {
		l.filters = slices.Clone(l.filters)
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

// filter returns the bytes of filter bid.
func (l *bfLeaf) filter(bid int) []byte {
	return l.filters[bid*l.fb : (bid+1)*l.fb]
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

// contains tests filter bid at the given positions.
func (l *bfLeaf) contains(bid int, pos []uint32) bool {
	f := l.filter(bid)
	if l.kind == CountingFilter {
		for _, p := range pos {
			if f[p>>1]>>((p&1)<<2)&0x0f == 0 {
				return false
			}
		}
		return true
	}
	for _, p := range pos {
		if f[p>>3]&(1<<(p&7)) == 0 {
			return false
		}
	}
	return true
}

// addKey inserts key into the filter covering data page pid. Bulk load
// calls it once per tuple, so it derives each position inline.
func (l *bfLeaf) addKey(key uint64, pid device.PageID) error {
	if pid < l.minPid || pid > l.maxPid {
		return fmt.Errorf("%w: pid %d outside [%d,%d]", ErrKeyRange, pid, l.minPid, l.maxPid)
	}
	l.ownFilters()
	f := l.filter(l.bfIndexOf(pid))
	h1, h2 := bloom.HashUint64(key)
	if l.kind == CountingFilter {
		for i := 0; i < l.hashes; i++ {
			p := (h1 + uint64(i)*h2) % l.posPerBF
			sh := (p & 1) << 2
			if f[p>>1]>>sh&0x0f < counterMax {
				f[p>>1] += 1 << sh
			}
		}
		return nil
	}
	for i := 0; i < l.hashes; i++ {
		p := (h1 + uint64(i)*h2) % l.posPerBF
		f[p>>3] |= 1 << (p & 7)
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
	l.ownFilters()
	f := l.filter(bid)
	for _, p := range pos {
		sh := (p & 1) << 2
		if c := f[p>>1] >> sh & 0x0f; c > 0 && c < counterMax {
			f[p>>1] -= 1 << sh
		}
	}
	for b := 0; b < l.s; b++ {
		if l.contains(b, pos) {
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
// When parallel is true the probes fan out over goroutines (the Section 8
// optimization for leaves with hundreds of filters).
func (l *bfLeaf) probe(key uint64, parallel bool) []int {
	var buf [posBufLen]uint32
	pos := l.positions(key, buf[:0])
	if parallel && l.s >= 16 {
		// The workers share one heap copy of the positions, which keeps
		// buf on the sequential path's stack.
		return l.probeParallel(append([]uint32(nil), pos...))
	}
	var out []int
	for bid := 0; bid < l.s; bid++ {
		if l.contains(bid, pos) {
			out = append(out, bid)
		}
	}
	return out
}

// probeParallel is probe's fan-out over 8 workers.
func (l *bfLeaf) probeParallel(pos []uint32) []int {
	const workers = 8
	s := l.s
	matched := make([]bool, s)
	var wg sync.WaitGroup
	chunk := (s + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= s {
			break
		}
		hi := lo + chunk
		if hi > s {
			hi = s
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for bid := lo; bid < hi; bid++ {
				if l.contains(bid, pos) {
					matched[bid] = true
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	var out []int
	for bid, m := range matched {
		if m {
			out = append(out, bid)
		}
	}
	return out
}

// filterBytes returns the serialized size of one filter.
func filterBytes(kind FilterKind, positions uint64) int {
	if kind == CountingFilter {
		return int((positions + 1) / 2) // 4-bit counters
	}
	return int((positions + 7) / 8)
}

// newBFLeaf constructs an empty leaf covering [minPid, maxPid] with S
// filters of posPerBF positions each.
func newBFLeaf(minPid, maxPid device.PageID, o Options, posPerBF uint64, s int) *bfLeaf {
	fb := filterBytes(o.Filter, posPerBF)
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
		fb:          fb,
		filters:     make([]byte, s*fb),
	}
}

// encodeBFLeaf serializes the leaf into a page buffer.
func encodeBFLeaf(buf []byte, l *bfLeaf) error {
	need := leafHeaderSize + len(l.filters)
	if need > len(buf) {
		return fmt.Errorf("%w: BF-leaf needs %d bytes > page %d", ErrCorrupt, need, len(buf))
	}
	if l.s > 0xffff {
		return fmt.Errorf("%w: %d filters exceed uint16", ErrCorrupt, l.s)
	}
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
	copy(buf[leafHeaderSize:], l.filters)
	clear(buf[need:])
	return nil
}

// decodeBFLeaf parses a BF-leaf's header and returns a leaf whose filters
// alias buf until its first write (see bfLeaf); buf itself is never
// written. It checks every invariant the probe and update paths index
// by, so a corrupt header is an ErrCorrupt, never a panic.
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
	l.fb = filterBytes(l.kind, l.posPerBF)
	end := leafHeaderSize + s*l.fb
	if end > len(buf) {
		return nil, fmt.Errorf("%w: %d filters of %d bytes overflow page", ErrCorrupt, s, l.fb)
	}
	l.filters = buf[leafHeaderSize:end:end]
	l.shared = true
	return l, nil
}
