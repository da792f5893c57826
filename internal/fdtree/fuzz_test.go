package fdtree

import (
	"errors"
	"reflect"
	"testing"

	"bftree/internal/bptree"
	"bftree/internal/device"
)

// FuzzDecodeRunPage fuzzes the run-page decoder. No input may panic it,
// every rejection must wrap ErrInvalid, an accepted page holds only
// record and fence entries, and it re-encodes, into a page of its
// length, to the same entries. The seed corpus — run pages of 0, 1, 5
// and a full page of mixed records and fences, their truncations, and
// single-byte flips of the page kind, the count and the first entry's
// key and kind — runs under plain go test.
func FuzzDecodeRunPage(f *testing.F) {
	for _, size := range []int{64, 256} {
		for _, count := range []int{0, 1, 5, entriesPerPage(size)} {
			if count > entriesPerPage(size) {
				continue
			}
			entries := make([]entry, count)
			for i := range entries {
				entries[i] = entry{key: uint64(2 * i), kind: kindRecord,
					ref: bptree.TupleRef{Page: device.PageID(100 + i), Slot: uint16(i)}}
				if i%3 == 0 {
					entries[i] = entry{key: uint64(2 * i), kind: kindFence, next: device.PageID(500 + i)}
				}
			}
			buf := make([]byte, size)
			encodeRunPage(buf, entries)
			f.Add(buf)
			f.Add(buf[:len(buf)/2])
			f.Add(buf[:runHeaderSize-1])
			for _, at := range []int{0, 1, 2, runHeaderSize, runHeaderSize + 8} {
				flipped := append([]byte(nil), buf...)
				flipped[at] ^= 0xff
				f.Add(flipped)
			}
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		entries, err := decodeRunPage(buf)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection %v does not wrap ErrInvalid", err)
			}
			return
		}
		for i, e := range entries {
			if e.kind != kindRecord && e.kind != kindFence {
				t.Fatalf("accepted entry %d of kind %d", i, e.kind)
			}
		}
		out := make([]byte, len(buf))
		encodeRunPage(out, entries)
		back, err := decodeRunPage(out)
		if err != nil || !reflect.DeepEqual(back, entries) {
			t.Fatalf("re-encoded page decodes to %+v (err %v), want %+v", back, err, entries)
		}
	})
}
