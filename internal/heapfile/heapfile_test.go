package heapfile

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

var testSchema = Schema{
	TupleSize: 64,
	Fields: []Field{
		{Name: "pk", Offset: 0},
		{Name: "att1", Offset: 8},
	},
}

func newStore(pageSize int) *pagestore.Store {
	return pagestore.New(device.New(device.Memory, pageSize))
}

func makeTuple(pk, att1 uint64) []byte {
	t := make([]byte, 64)
	binary.BigEndian.PutUint64(t[0:8], pk)
	binary.BigEndian.PutUint64(t[8:16], att1)
	return t
}

func buildFile(t *testing.T, n int) *File {
	t.Helper()
	b, err := NewBuilder(newStore(4096), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Append(makeTuple(uint64(i), uint64(i/11))); err != nil {
			t.Fatal(err)
		}
	}
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schema
		ok   bool
	}{
		{"valid", testSchema, true},
		{"tiny tuple", Schema{TupleSize: 4, Fields: []Field{{Name: "k"}}}, false},
		{"no fields", Schema{TupleSize: 64}, false},
		{"field overflows", Schema{TupleSize: 16, Fields: []Field{{Name: "k", Offset: 12}}}, false},
		{"negative offset", Schema{TupleSize: 16, Fields: []Field{{Name: "k", Offset: -1}}}, false},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestFieldIndex(t *testing.T) {
	if testSchema.FieldIndex("att1") != 1 {
		t.Error("att1 should be field 1")
	}
	if testSchema.FieldIndex("nope") != -1 {
		t.Error("missing field should return -1")
	}
}

func TestSchemaGetSet(t *testing.T) {
	tup := make([]byte, 64)
	testSchema.Set(tup, 0, 12345)
	testSchema.Set(tup, 1, 678)
	if testSchema.Get(tup, 0) != 12345 || testSchema.Get(tup, 1) != 678 {
		t.Error("get/set round trip failed")
	}
}

func TestTuplesPerPage(t *testing.T) {
	// 4096-byte page, 2-byte header, 64-byte tuples → 63.
	if got := TuplesPerPage(4096, 64); got != 63 {
		t.Errorf("TuplesPerPage(4096,64) = %d, want 63", got)
	}
	// Paper's synthetic workload: 256-byte tuples → 15 per 4 KB page.
	if got := TuplesPerPage(4096, 256); got != 15 {
		t.Errorf("TuplesPerPage(4096,256) = %d, want 15", got)
	}
}

func TestBuildAndScan(t *testing.T) {
	const n = 1000
	f := buildFile(t, n)
	if f.NumTuples() != n {
		t.Fatalf("NumTuples = %d, want %d", f.NumTuples(), n)
	}
	wantPages := uint64((n + 62) / 63)
	if f.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", f.NumPages(), wantPages)
	}
	var seen uint64
	err := f.Scan(func(id device.PageID, slot int, tup []byte) bool {
		if f.Schema().Get(tup, 0) != seen {
			t.Fatalf("scan out of order at %d", seen)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scanned %d tuples, want %d", seen, n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := buildFile(t, 500)
	count := 0
	f.Scan(func(device.PageID, int, []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop scanned %d, want 10", count)
	}
}

func TestPageOf(t *testing.T) {
	f := buildFile(t, 200) // 63 per page
	if f.PageOf(0) != f.FirstPage() {
		t.Error("ordinal 0 must be on the first page")
	}
	if f.PageOf(62) != f.FirstPage() {
		t.Error("ordinal 62 must be on the first page")
	}
	if f.PageOf(63) != f.FirstPage()+1 {
		t.Error("ordinal 63 must be on the second page")
	}
}

func TestSearchPage(t *testing.T) {
	f := buildFile(t, 300)
	// Key 100 lives at ordinal 100 → page 1 (63 per page).
	id := f.PageOf(100)
	got, err := f.SearchPage(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || f.Schema().Get(got[0], 0) != 100 {
		t.Fatalf("SearchPage found %d tuples", len(got))
	}
	// ATT1 = 5 repeats 11 times (ordinals 55..65), spanning pages 0 and 1.
	matches := 0
	for _, pid := range []device.PageID{f.PageOf(55), f.PageOf(65)} {
		tuples, err := f.SearchPage(pid, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		matches += len(tuples)
	}
	if matches != 11 {
		t.Errorf("ATT1=5 matches = %d, want 11", matches)
	}
	// Absent key.
	none, err := f.SearchPage(id, 0, 99999999)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Error("absent key should match nothing")
	}
}

// TestAppendMatches checks the page scan's selection against a brute
// force over the page: a key range, a range narrowed to a sorted key
// set, and that matches append after what out already holds.
func TestAppendMatches(t *testing.T) {
	f := buildFile(t, 300)
	id := f.PageOf(100) // pks 63..125
	cases := []struct {
		keys Keys
		want func(pk uint64) bool
	}{
		{Keys{Lo: 70, Hi: 80}, func(pk uint64) bool { return pk >= 70 && pk <= 80 }},
		{Keys{Lo: 0, Hi: ^uint64(0)}, func(uint64) bool { return true }},
		{Keys{Lo: 200, Hi: 300}, func(uint64) bool { return false }},
		{Keys{Lo: 60, Hi: 125, In: []uint64{60, 63, 64, 99, 125}},
			func(pk uint64) bool { return pk == 63 || pk == 64 || pk == 99 || pk == 125 }},
	}
	for _, c := range cases {
		prefix := [][]byte{[]byte("kept")}
		got, err := f.AppendMatches(prefix, id, 0, c.keys)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, tup := range pageTuples(t, f, id) {
			if pk := f.Schema().Get(tup, 0); c.want(pk) {
				want = append(want, pk)
			}
		}
		if string(got[0]) != "kept" || len(got)-1 != len(want) {
			t.Fatalf("%+v: got %d tuples after the prefix, want %d", c.keys, len(got)-1, len(want))
		}
		for i, pk := range want {
			if g := f.Schema().Get(got[i+1], 0); g != pk {
				t.Errorf("%+v: match %d has key %d, want %d", c.keys, i, g, pk)
			}
		}
	}
}

// TestSearchPageAllocations gates the data-page step of a probe:
// SearchPage scans the shared page image in place, so a miss allocates
// nothing and a hit only its one-element result.
func TestSearchPageAllocations(t *testing.T) {
	f := buildFile(t, 300)
	id := f.PageOf(100)
	if n := testing.AllocsPerRun(100, func() { _, _ = f.SearchPage(id, 0, 100) }); n > 1 {
		t.Errorf("a matching SearchPage allocates %v objects, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = f.SearchPage(id, 0, 99999999) }); n != 0 {
		t.Errorf("a missing SearchPage allocates %v objects, want 0", n)
	}
}

func TestPageKeyRange(t *testing.T) {
	f := buildFile(t, 200)
	minKey, maxKey, err := f.PageKeyRange(f.FirstPage(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if minKey != 0 || maxKey != 62 {
		t.Errorf("first page key range = [%d,%d], want [0,62]", minKey, maxKey)
	}
	minKey, maxKey, err = f.PageKeyRange(f.FirstPage()+3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if minKey != 189 || maxKey != 199 {
		t.Errorf("last page key range = [%d,%d], want [189,199]", minKey, maxKey)
	}
}

// pageTuples returns every tuple of page id, in slot order.
func pageTuples(t *testing.T, f *File, id device.PageID) [][]byte {
	t.Helper()
	tuples, err := f.AppendMatches(nil, id, 0, Keys{Hi: math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

func TestAppendMatchesOutOfRange(t *testing.T) {
	f := buildFile(t, 100)
	if _, err := f.AppendMatches(nil, f.FirstPage()+device.PageID(f.NumPages()), 0, Keys{Hi: math.MaxUint64}); err == nil {
		t.Error("read past end of file should fail")
	}
	if f.FirstPage() > 0 {
		if _, err := f.AppendMatches(nil, f.FirstPage()-1, 0, Keys{Hi: math.MaxUint64}); err == nil {
			t.Error("read before start of file should fail")
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(newStore(4096), Schema{TupleSize: 4}); err == nil {
		t.Error("invalid schema should be rejected")
	}
	// Tuple larger than page.
	big := Schema{TupleSize: 8192, Fields: []Field{{Name: "k", Offset: 0}}}
	if _, err := NewBuilder(newStore(4096), big); err == nil {
		t.Error("tuple larger than page should be rejected")
	}
	b, err := NewBuilder(newStore(4096), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(make([]byte, 10)); err == nil {
		t.Error("wrong-size tuple should be rejected")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("empty relation should be rejected")
	}
}

func TestPartialLastPage(t *testing.T) {
	f := buildFile(t, 64) // 63 + 1
	if f.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", f.NumPages())
	}
	tuples := pageTuples(t, f, f.FirstPage()+1)
	if len(tuples) != 1 {
		t.Fatalf("last page holds %d tuples, want 1", len(tuples))
	}
	if f.Schema().Get(tuples[0], 0) != 63 {
		t.Error("last tuple has wrong key")
	}
}

func TestSizeBytes(t *testing.T) {
	f := buildFile(t, 1000)
	if f.SizeBytes() != f.NumPages()*4096 {
		t.Error("SizeBytes must be pages times page size")
	}
}

func TestMultipleFilesShareStore(t *testing.T) {
	store := newStore(4096)
	b1, _ := NewBuilder(store, testSchema)
	for i := 0; i < 100; i++ {
		b1.Append(makeTuple(uint64(i), 0))
	}
	f1, err := b1.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := NewBuilder(store, testSchema)
	for i := 0; i < 100; i++ {
		b2.Append(makeTuple(uint64(1000+i), 0))
	}
	f2, err := b2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f2.FirstPage() != f1.FirstPage()+device.PageID(f1.NumPages()) {
		t.Error("second file should follow the first")
	}
	got, err := f2.SearchPage(f2.PageOf(0), 0, 1000)
	if err != nil || len(got) != 1 {
		t.Error("second file content wrong")
	}
}

// Property: every appended (pk, att1) pair is found on the page PageOf
// predicts, with exactly the stored values.
func TestQuickAppendFetchRoundTrip(t *testing.T) {
	b, err := NewBuilder(newStore(1024), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct{ pk, att1 uint64 }
	var recs []rec
	n := 0
	gen := func(pk, att1 uint64) bool {
		recs = append(recs, rec{pk, att1})
		n++
		return b.Append(makeTuple(pk, att1)) == nil
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		id := f.PageOf(uint64(i))
		tuples := pageTuples(t, f, id)
		slot := i % f.TuplesPerPage()
		if f.Schema().Get(tuples[slot], 0) != r.pk || f.Schema().Get(tuples[slot], 1) != r.att1 {
			t.Fatalf("record %d mismatched on read back", i)
		}
	}
}
