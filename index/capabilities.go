package index

// CapSet is the discovered optional-capability surface of one index
// value — the type-assertion matrix of DESIGN.md §5 as data. The
// workload engine keys operation redistribution on it (a backend
// without Delete has its deletes folded into inserts), and the server
// reports it at GET /stats.
type CapSet struct {
	Delete   bool
	Flush    bool
	Persist  bool
	Maintain bool
	Warm     bool
}

// Capabilities reports which optional interfaces v implements. It
// accepts any value (not just Index) so adapters over the internal
// tree types can be probed through the same helper.
func Capabilities(v any) CapSet {
	var c CapSet
	_, c.Delete = v.(Deleter)
	_, c.Flush = v.(Flusher)
	_, c.Persist = v.(Persister)
	_, c.Maintain = v.(Maintainer)
	_, c.Warm = v.(Warmable)
	return c
}
