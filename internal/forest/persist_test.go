package forest_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"bftree/internal/core"
	"bftree/internal/forest"
	"bftree/internal/pagestore"
)

// sepAt is the offset of separator i in a forest blob: after the magic
// and the shard count.
func sepAt(i int) int { return 8 + 8*i }

// TestOpenRejectsBadLayout feeds Open a valid 4-shard blob with one
// defect each. Separators that do not rise strictly from above 0 route
// keys to shards that do not hold them: with a zeroed first separator,
// Search(5) found none of the key's 3 tuples. Bytes after the last
// shard blob mean MarshalMeta did not write the blob. Each is
// ErrCorrupt.
func TestOpenRejectsBadLayout(t *testing.T) {
	file, _ := buildRelation(t, 4096, 3)
	f, idxStore := buildForest(t, file, 4)
	if n := len(f.Separators()); n != 3 {
		t.Fatalf("fixture has %d separators, want 3", n)
	}
	blob := f.MarshalMeta()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(b []byte) []byte
	}{
		{"zero first separator", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[sepAt(0):], 0)
			return b
		}},
		{"equal separators", func(b []byte) []byte {
			copy(b[sepAt(1):sepAt(2)], b[sepAt(0):sepAt(1)])
			return b
		}},
		{"descending separators", func(b []byte) []byte {
			s1 := slices.Clone(b[sepAt(1):sepAt(2)])
			copy(b[sepAt(1):sepAt(2)], b[sepAt(2):sepAt(3)])
			copy(b[sepAt(2):sepAt(3)], s1)
			return b
		}},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := forest.Open(idxStore, file, c.edit(slices.Clone(blob)))
			if err == nil {
				g.Close()
				t.Fatal("Open accepted the blob")
			}
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("Open rejected the blob with %v, want ErrCorrupt", err)
			}
		})
	}
	// The unedited blob opens, so each case fails for its own defect.
	g, err := forest.Open(idxStore, file, blob)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
}

// FuzzOpenForest feeds Open arbitrary forest blobs over a freshly built
// 4-shard forest. No blob may panic; a rejected blob must fail with
// ErrCorrupt or ErrOptions; an accepted forest must report separators
// that rise strictly from above 0, and re-marshal to a blob that
// reopens to the same bytes. The seed corpus — a valid blob, each of
// its truncations, and each single-byte flip — runs under plain go
// test.
func FuzzOpenForest(f *testing.F) {
	file, _ := buildRelation(f, 1024, 3)
	// Every input gets its own index store: an auto-maintenance shard
	// blob starts a maintainer that may compact, rewriting pages.
	build := func(tb testing.TB) (*pagestore.Store, []byte) {
		fr, store := buildForest(tb, file, 4)
		fr.Close()
		return store, fr.MarshalMeta()
	}
	_, valid := build(f)
	f.Add(valid)
	for n := range valid {
		f.Add(valid[:n])
	}
	for i := range valid {
		flipped := slices.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		store, _ := build(t)
		fr, err := forest.Open(store, file, blob)
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrOptions) {
				t.Fatalf("rejected with %v, want ErrCorrupt or ErrOptions", err)
			}
			return
		}
		fr.Close()
		prev := uint64(0)
		for i, sep := range fr.Separators() {
			if sep <= prev {
				t.Fatalf("accepted separator %d is %d, not above %d", i, sep, prev)
			}
			prev = sep
		}
		again := fr.MarshalMeta()
		back, err := forest.Open(store, file, again)
		if err != nil {
			t.Fatalf("re-marshaled blob rejected: %v", err)
		}
		back.Close()
		// A maintainer that compacted between reopen and Close changed
		// a shard itself; only an untouched forest must match.
		st := back.MaintenanceStats()
		if st.Compactions+st.IncrementalPasses+st.CompactionFailures > 0 {
			return
		}
		if got := back.MarshalMeta(); !bytes.Equal(got, again) {
			t.Fatalf("reopened blob differs:\n got %x\nwant %x", got, again)
		}
	})
}
