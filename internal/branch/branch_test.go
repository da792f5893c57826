package branch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bftree/internal/device"
)

// errCorrupt stands in for the ErrCorrupt sentinel of a tree.
var errCorrupt = errors.New("test: corrupt node")

// TestPageGolden pins the layout both trees store: one internal page as
// literal bytes, its kind and key count, the keys, the children and the
// zero tail. Encode writes exactly these bytes over a dirty buffer, and
// Decode and Route read them back, so a change to the layout has to
// change this test too.
func TestPageGolden(t *testing.T) {
	const page = "\x02\x02\x00" + // kind, 2 keys
		"\x05\x00\x00\x00\x00\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00" + // keys 5, 10
		"\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00" + // children 1, 2,
		"\x03\x00\x00\x00\x00\x00\x00\x00" + // and 3
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	n := &Node{Keys: []uint64{5, 10}, Children: []device.PageID{1, 2, 3}}
	buf := bytes.Repeat([]byte{0xff}, len(page))
	if err := Encode(buf, n); err != nil || string(buf) != page {
		t.Fatalf("Encode(%+v) = %q, %v; want %q", n, buf, err, page)
	}
	if back, err := Decode([]byte(page), errCorrupt); err != nil || !reflect.DeepEqual(back, n) {
		t.Errorf("Decode = %+v, %v; want %+v", back, err, n)
	}
	for _, c := range []struct {
		key       uint64
		rightmost bool
		slot      int
	}{{4, false, 0}, {5, false, 0}, {5, true, 1}, {10, false, 1}, {10, true, 2}, {11, false, 2}} {
		slot, pid, err := Route([]byte(page), c.key, c.rightmost, errCorrupt)
		if err != nil || slot != c.slot || pid != n.Children[c.slot] {
			t.Errorf("Route(key %d, rightmost %v) = slot %d child %d, %v; want slot %d child %d",
				c.key, c.rightmost, slot, pid, err, c.slot, n.Children[c.slot])
		}
	}
}

// TestNode checks the codec: Capacity is the Equation 2 fanout, nodes
// up to a full page round-trip, Encode refuses a node whose children
// are not one more than its keys or that overflows the page, and every
// page the readers reject is the caller's corrupt sentinel.
func TestNode(t *testing.T) {
	// 4096: (4096-11)/16+1 = 256 children, 3 + 255·8 + 256·8 = 4091 bytes.
	if c := Capacity(4096); c != 256 {
		t.Errorf("Capacity(4096) = %d, want 256 (Equation 2)", c)
	}
	full := &Node{Keys: make([]uint64, 255), Children: make([]device.PageID, 256)}
	for i := range full.Children {
		full.Children[i] = device.PageID(i + 1)
		if i < len(full.Keys) {
			full.Keys[i] = uint64(2 * i)
		}
	}
	buf := make([]byte, 4096)
	for _, n := range []*Node{
		{Keys: []uint64{}, Children: []device.PageID{7}},
		{Keys: []uint64{5, 10}, Children: []device.PageID{1, 2, 3}},
		full,
	} {
		if err := Encode(buf, n); err != nil {
			t.Fatalf("Encode(%d keys): %v", len(n.Keys), err)
		}
		if back, err := Decode(buf, errCorrupt); err != nil || !reflect.DeepEqual(back, n) {
			t.Errorf("round trip of %d keys: %+v, %v", len(n.Keys), back, err)
		}
	}
	for _, n := range []*Node{
		{Keys: []uint64{1}, Children: []device.PageID{1}},
		{Keys: append(slices.Clone(full.Keys), 1000), Children: append(slices.Clone(full.Children), 1000)},
	} {
		if err := Encode(buf, n); err == nil {
			t.Errorf("Encode accepted %d keys and %d children into %d bytes", len(n.Keys), len(n.Children), len(buf))
		}
	}

	overflow := make([]byte, 64)
	overflow[0] = Kind
	binary.LittleEndian.PutUint16(overflow[1:3], uint16(Capacity(64)))
	for name, page := range map[string][]byte{
		"empty":        {},
		"short":        {Kind, 0},
		"zero page":    make([]byte, 64),
		"another kind": {Kind + 1, 0, 0},
		"overflow":     overflow,
	} {
		_, cerr := Count(page, errCorrupt)
		_, derr := Decode(page, errCorrupt)
		_, _, rerr := Route(page, 0, false, errCorrupt)
		for _, err := range []error{cerr, derr, rerr} {
			if !errors.Is(err, errCorrupt) {
				t.Errorf("%s page: err = %v, want the corrupt sentinel", name, err)
			}
		}
	}
}

// TestInsert runs one child split up a two-level path under both kinds
// of writer. Written in place, as the B+-Tree writes, propagation stops
// at the first node that passes no separator up; written copy-on-write,
// as the BF-Tree writes, every node of the path moves to a fresh page.
// Fresh pages are numbered from 1000. The frames hold encoded pages, as
// a descent records them, and Insert leaves those images unchanged.
func TestInsert(t *testing.T) {
	encode := func(n *Node) []byte {
		buf := make([]byte, 64)
		if err := Encode(buf, n); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	rootNode := &Node{Keys: []uint64{50}, Children: []device.PageID{1, 2}}
	for _, c := range []struct {
		name     string
		inPlace  bool
		capacity int
		writes   []device.PageID
		root     device.PageID
		added    int
		grew     int
	}{
		{"in place", true, 4, []device.PageID{1}, 100, 0, 0},
		{"copy-on-write", false, 4, []device.PageID{1000, 1001}, 1001, 0, 0},
		{"in place, split", true, 3, []device.PageID{1, 1000, 100}, 100, 1, 0},
		{"copy-on-write, split", false, 3, []device.PageID{1000, 1001, 1002}, 1002, 1, 0},
		{"in place, root growth", true, 2, []device.PageID{1, 1000, 100, 1001, 1002}, 1002, 3, 1},
		{"copy-on-write, root growth", false, 2, []device.PageID{1000, 1001, 1002, 1003, 1004}, 1004, 3, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Root 100 routes keys below 50 to node 1, whose child 12
			// (keys from 20) split: its right half 13 starts at 30.
			path := []Frame{
				{Pid: 100, Image: encode(rootNode), Slot: 0},
				{Pid: 1, Image: encode(&Node{Keys: []uint64{10, 20}, Children: []device.PageID{10, 11, 12}}), Slot: 2},
			}
			images := [][]byte{bytes.Clone(path[0].Image), bytes.Clone(path[1].Image)}
			var writes []device.PageID
			pages := map[device.PageID]*Node{}
			fresh := device.PageID(1000)
			write := func(old device.PageID, n *Node) (device.PageID, error) {
				pid := old
				if pid == device.InvalidPage || !c.inPlace {
					pid, fresh = fresh, fresh+1
				}
				writes = append(writes, pid)
				pages[pid] = &Node{Keys: slices.Clone(n.Keys), Children: slices.Clone(n.Children)}
				return pid, nil
			}
			root, added, grew, err := Insert(path, 12, Child{MinKey: 30, Pid: 13}, c.capacity, write)
			if err != nil || root != c.root || added != c.added || grew != c.grew || !slices.Equal(writes, c.writes) {
				t.Fatalf("Insert = root %d, added %d, grew %d, %v, writes %v; want root %d, added %d, grew %d, writes %v",
					root, added, grew, err, writes, c.root, c.added, c.grew, c.writes)
			}
			for i, f := range path {
				if !bytes.Equal(f.Image, images[i]) {
					t.Errorf("Insert changed the image of frame %d", i)
				}
			}
			// Every key still routes to the child that holds it.
			for key, want := range map[uint64]device.PageID{0: 10, 10: 11, 20: 12, 29: 12, 30: 13, 49: 13, 50: 2} {
				pid := root
				for {
					n, ok := pages[pid]
					if !ok && pid == path[0].Pid {
						n, ok = rootNode, true // a root left as it was
					}
					if !ok {
						break
					}
					pid = n.Children[sort.Search(len(n.Keys), func(i int) bool { return key < n.Keys[i] })]
				}
				if pid != want {
					t.Errorf("key %d routes to %d, want %d", key, pid, want)
				}
			}
		})
	}
}
