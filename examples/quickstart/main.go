// Quickstart: build an ordered relation on a simulated SSD, then index
// it with EVERY registered backend — the BF-Tree and the paper's three
// competitors — through the unified index API, swapping backends by
// registry name only. One probe loop serves all of them; the output is
// the paper's headline comparison: the BF-Tree answers within a small
// factor of the exact indexes at a fraction of their footprint.
//
// Run with: go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"bftree"
	"bftree/index"
)

func main() {
	// A relation of 100 000 ordered events: 64-byte tuples keyed by a
	// sparse, increasing event id (think: time-ordered log records).
	schema := bftree.Schema{
		TupleSize: 64,
		Fields: []bftree.Field{
			{Name: "event_id", Offset: 0},
			{Name: "payload", Offset: 8},
		},
	}

	dataDev := bftree.NewDevice(bftree.SSD, 4096)
	dataStore := bftree.NewStore(dataDev, 0)
	builder, err := bftree.NewRelationBuilder(dataStore, schema)
	if err != nil {
		log.Fatal(err)
	}
	tuple := make([]byte, schema.TupleSize)
	const n = 100000
	for i := uint64(0); i < n; i++ {
		binary.BigEndian.PutUint64(tuple[0:8], i*7) // sparse ordered ids
		binary.BigEndian.PutUint64(tuple[8:16], i)
		if err := builder.Append(tuple); err != nil {
			log.Fatal(err)
		}
	}
	file, err := builder.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relation: %d tuples on %d pages (%.1f MB)\n\n",
		file.NumTuples(), file.NumPages(), float64(file.SizeBytes())/(1<<20))

	probes := []uint64{0, 7 * 1234, 7 * 99999}
	miss := uint64(7*1234 + 1)

	// One loop, four backends: the registry is the only thing that
	// changes between an approximate BF-Tree and an exact baseline.
	for _, name := range index.Backends() {
		// Each backend gets its own simulated SSD so footprints and I/O
		// are directly comparable.
		idxDev := bftree.NewDevice(bftree.SSD, 4096)
		idxStore := bftree.NewStore(idxDev, 0)
		ix, err := index.NewByField(name, idxStore, file, "event_id", index.Options{})
		if err != nil {
			log.Fatal(err)
		}

		st := ix.Stats()
		fmt.Printf("%-7s %7.1f KB (%.4f%% of the data), height %d\n",
			name, float64(st.SizeBytes)/1024,
			100*float64(st.SizeBytes)/float64(file.SizeBytes()), st.Height)

		// Point probes: identical answers from every backend; the cost
		// accounting shows where the approximation pays its rent.
		for _, key := range probes {
			res, err := ix.SearchFirst(key)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  probe %-8d → %d tuple(s); %d index reads, %d data pages (%d false)\n",
				key, len(res.Tuples), res.Stats.IndexReads,
				res.Stats.DataPagesRead, res.Stats.FalseReads)
		}
		if res, err := ix.Search(miss); err != nil {
			log.Fatal(err)
		} else {
			fmt.Printf("  probe miss     → %d tuple(s); %d data pages read\n",
				len(res.Tuples), res.Stats.DataPagesRead)
		}

		// Range scan: every backend answers it (the hash via its bucket
		// walk). Exact backends return key order; the BF-trees return
		// each tuple once, in no defined order.
		scan, err := ix.RangeScan(700, 1400)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  range [700,1400] → %d tuples from %d data pages\n",
			len(scan.Tuples), scan.Stats.DataPagesRead)

		// LIMIT-k, the streaming way: a cursor over a much larger range
		// stops after 5 tuples and pays only for the pages behind them —
		// compare its data-page count to the materialized scan above.
		it, err := ix.Scan(700, 70000)
		if err != nil {
			log.Fatal(err)
		}
		got := 0
		for got < 5 && it.Next() {
			got++
		}
		limitStats := it.Stats()
		if err := it.Close(); err != nil { // releases the cursor's resources
			log.Fatal(err)
		}
		fmt.Printf("  limit 5 of [700,70000] → %d tuples from %d data pages (streamed)\n",
			got, limitStats.DataPagesRead)

		// Batched probes: one MultiSearch call answers many keys while
		// sharing index descents — fewer index reads than key-at-a-time.
		batch, err := ix.MultiSearch([]uint64{0, 7 * 1234, 7 * 5000, 7 * 99999})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  batch of 4 keys → %d tuples; %d index reads for the whole batch\n",
			len(batch.Tuples), batch.Stats.IndexReads)

		// Capability discovery: ask the index what it can do beyond
		// lookups, scans and inserts, which every backend answers.
		caps := ""
		if _, ok := ix.(index.Deleter); ok {
			caps += " delete"
		}
		if _, ok := ix.(index.Flusher); ok {
			caps += " flush"
		}
		if _, ok := ix.(index.Persister); ok {
			caps += " persist"
		}
		if _, ok := ix.(index.Maintainer); ok {
			caps += " maintain"
		}
		if _, ok := ix.(index.Warmable); ok {
			caps += " warm"
		}
		fmt.Printf("  optional capabilities:%s\n", caps)
		fmt.Printf("  device time charged: %v\n\n", idxDev.Stats().Elapsed)

		if err := ix.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
