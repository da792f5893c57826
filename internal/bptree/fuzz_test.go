package bptree

import (
	"errors"
	"reflect"
	"testing"

	"bftree/internal/branch"
	"bftree/internal/device"
)

// seedPages adds to f every encoded page of pages, each truncated to
// half its length and to one byte short of its header, and with one
// byte flipped at every offset in flips.
func seedPages(f *testing.F, pages [][]byte, headerSize int, flips []int) {
	for _, buf := range pages {
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
		f.Add(buf[:headerSize-1])
		for _, at := range flips {
			flipped := append([]byte(nil), buf...)
			flipped[at] ^= 0xff
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
}

// FuzzDecodeLeaf fuzzes the leaf decoder. No input may panic it, every
// rejection must wrap ErrCorrupt, and an accepted page must re-encode,
// into a page of its length, to the same next link and entries. The
// seed corpus — leaves of 0, 1, 3 and a full page of entries, their
// truncations, and single-byte flips of the kind, the count and the
// first entry — runs under plain go test.
func FuzzDecodeLeaf(f *testing.F) {
	var pages [][]byte
	for _, size := range []int{64, 256} {
		for _, count := range []int{0, 1, 3, LeafCapacity(size)} {
			if count > LeafCapacity(size) {
				continue
			}
			n := &leafNode{next: device.PageID(7), entries: make([]Entry, count)}
			for i := range n.entries {
				n.entries[i] = Entry{Key: uint64(3 * i), Ref: TupleRef{Page: device.PageID(100 + i), Slot: uint16(i)}}
			}
			buf := make([]byte, size)
			if err := encodeLeaf(buf, n); err != nil {
				f.Fatal(err)
			}
			pages = append(pages, buf)
		}
	}
	seedPages(f, pages, leafHeaderSize, []int{0, 1, 2, leafHeaderSize})
	f.Fuzz(func(t *testing.T, buf []byte) {
		n, err := decodeLeaf(buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		out := make([]byte, len(buf))
		if err := encodeLeaf(out, n); err != nil {
			t.Fatalf("accepted leaf does not re-encode: %v", err)
		}
		back, err := decodeLeaf(out)
		if err != nil || !reflect.DeepEqual(back, n) {
			t.Fatalf("re-encoded leaf decodes to %+v (err %v), want %+v", back, err, n)
		}
	})
}

// FuzzDecodeInternal fuzzes the internal pages the B+-Tree shares with
// the BF-Tree, decoded as this package reads them (branch.Decode with
// this package's ErrCorrupt), with the properties of FuzzDecodeLeaf: no
// panic, ErrCorrupt for every rejection, and an accepted page
// re-encodes, into a page of its length, to the same keys and children.
// The seed corpus — nodes of 0, 1, 4 keys and a full fanout, their
// truncations, and single-byte flips of the kind, the count and the
// first key — runs under plain go test. core's FuzzRoute fuzzes the
// same pages' in-place routing under the BF-Tree's sentinel.
func FuzzDecodeInternal(f *testing.F) {
	var pages [][]byte
	for _, size := range []int{64, 256} {
		for _, count := range []int{0, 1, 4, branch.Capacity(size) - 1} {
			if count >= branch.Capacity(size) {
				continue
			}
			n := &branch.Node{Keys: make([]uint64, count), Children: make([]device.PageID, count+1)}
			for i := range n.Children {
				n.Children[i] = device.PageID(200 + i)
				if i < count {
					n.Keys[i] = uint64(10 * (i + 1))
				}
			}
			buf := make([]byte, size)
			if err := branch.Encode(buf, n); err != nil {
				f.Fatal(err)
			}
			pages = append(pages, buf)
		}
	}
	seedPages(f, pages, nodeHeaderSize, []int{0, 1, 2, nodeHeaderSize})
	f.Fuzz(func(t *testing.T, buf []byte) {
		n, err := branch.Decode(buf, ErrCorrupt)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		out := make([]byte, len(buf))
		if err := branch.Encode(out, n); err != nil {
			t.Fatalf("accepted node does not re-encode: %v", err)
		}
		back, err := branch.Decode(out, ErrCorrupt)
		if err != nil || !reflect.DeepEqual(back, n) {
			t.Fatalf("re-encoded node decodes to %+v (err %v), want %+v", back, err, n)
		}
	})
}
