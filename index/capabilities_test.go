package index_test

import (
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// TestCapabilitiesMatchAssertions pins the CapSet helper to the ground
// truth: for every registered backend, Capabilities must agree with the
// direct type assertions the rest of the codebase performs.
func TestCapabilitiesMatchAssertions(t *testing.T) {
	file, _ := goldenRelation(t, 300)
	for _, name := range index.Backends() {
		idxStore := pagestore.New(device.New(device.Memory, 4096))
		ix, err := index.New(name, idxStore, file, 0, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := index.Capabilities(ix)
		want := index.CapSet{}
		_, want.Delete = ix.(index.Deleter)
		_, want.Flush = ix.(index.Flusher)
		_, want.Persist = ix.(index.Persister)
		_, want.Maintain = ix.(index.Maintainer)
		_, want.Warm = ix.(index.Warmable)
		if got != want {
			t.Errorf("%s: Capabilities = %+v, want %+v", name, got, want)
		}
		ix.Close()
	}
	// A non-index value has no capabilities.
	if got := (index.Capabilities(struct{}{})); got != (index.CapSet{}) {
		t.Errorf("empty value reported capabilities: %+v", got)
	}
}
