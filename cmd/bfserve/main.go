// Command bfserve mounts a registered index backend behind the HTTP
// serving layer (internal/server): it generates the synthetic relation,
// bulk-loads the chosen index over its primary key, and serves the full
// capability surface — point lookups, range scans, LIMIT-streamed
// scans, batched probes, and (where the backend supports them) inserts,
// deletes and flushes — until interrupted.
//
// Usage:
//
//	bfserve                                  # bftree on :8080, 100k tuples
//	bfserve -index bfforest -shards 8        # sharded forest
//	bfserve -index bptree -tuples 500000     # exact baseline, bigger relation
//	bfserve -addr 127.0.0.1:9000 -fpp 0.01   # custom bind and design point
//	bfserve -latency 200us                   # real device waits
//
// Probe it with curl (see the README quickstart). /stats and every
// error body are JSON, so curl shows what is mounted and why a request
// failed; tuple answers are binary frames (internal/server/wire.go), so
// pipe them through xxd:
//
//	curl -s localhost:8080/stats | jq .caps
//	curl -s -XPOST localhost:8080/range -d '{"lo":9,"hi":1}'
//	curl -s -XPOST localhost:8080/search -d '{"key":42}' | xxd | head
//	curl -s -XPOST localhost:8080/scan -d '{"lo":100,"hi":200,"limit":5}' | xxd
//	printf '{"lo":100,"hi":200,"credit":2}\n3\n' | curl -s -XPOST localhost:8080/scan -T - | xxd
//
// Writes against a backend without concurrent-writer support are
// serialized server-side (the registry trait decides). A BF-tree's
// background maintainer bounds the drift that writes cause, so every
// valid write is accepted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/server"
	"bftree/internal/workload"
)

// The connection bounds of the served http.Server. A client has
// readHeaderTimeout to send its request headers, and a kept-alive
// connection may idle idleTimeout between requests. idleTimeout also
// bounds how long a credit /scan stream waits for its client's next
// grant (see server.ScanRequest), since a waiting stream holds an index
// iterator. No ReadTimeout or WriteTimeout is set: either would cut a
// long scan stream.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 30 * time.Second
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		backend = flag.String("index", "bftree", "index backend to mount (see registry names)")
		tuples  = flag.Uint64("tuples", 100000, "synthetic relation size in tuples")
		fpp     = flag.Float64("fpp", 1e-3, "BF-tree false positive design point")
		shards  = flag.Int("shards", 0, "bfforest shard count (0: forest default)")
		latency = flag.Duration("latency", 0, "real blocking time per page access (0: none)")
		seed    = flag.Int64("seed", 42, "relation generator seed")
	)
	flag.Parse()

	b, ok := index.Lookup(*backend)
	if !ok {
		fail(fmt.Errorf("unknown index backend %q (have %v)", *backend, index.Backends()))
	}

	// The served dataset: the synthetic relation's dense primary-key
	// domain, one tuple per key, exactly as the serve-load experiment
	// mounts it.
	dataDev := device.New(device.Memory, 4096)
	syn, err := workload.GenerateSynthetic(pagestore.New(dataDev), *tuples, 11, *seed)
	fail(err)
	file := syn.File

	idxDev := device.New(device.Memory, 4096)
	ix, err := index.New(*backend, pagestore.New(idxDev), file, 0, index.Options{
		BFTree: core.Options{
			FPP: *fpp,
			// A served index must drain its own drift: the background
			// maintainer's compaction is what bounds the false-read
			// rate under sustained writes.
			Maintenance: core.MaintenancePolicy{
				Mode:             core.MaintenanceAuto,
				ReclaimInterval:  time.Millisecond,
				IncrementalBatch: 8,
			},
		},
		ForestShards: *shards,
	})
	fail(err)
	idxDev.SetRealLatency(*latency)
	dataDev.SetRealLatency(*latency)

	// Writes on a backend without the concurrent-writers trait are
	// serialized against all reads by the server itself.
	srv := server.New(ix, server.Options{})
	ln, err := net.Listen("tcp", *addr)
	fail(err)

	fmt.Printf("bfserve: %s over %d tuples (%d index pages) on %s; caps %v\n",
		b.Name, file.NumTuples(), ix.Stats().Pages, ln.Addr(), srv.Caps())

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain
	// in-flight requests, then close the index (which stops the
	// maintainer after a final reclaim).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("bfserve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = hs.Shutdown(ctx)
		cancel()
	case err = <-done:
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
	}
	if cerr := ix.Close(); err == nil {
		err = cerr
	}
	fail(err)

	served := srv.Served()
	fmt.Printf("bfserve: served %d requests (%d errors), %d tuples\n",
		served.Requests, served.Errors, served.TuplesSent)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfserve: %v\n", err)
		os.Exit(1)
	}
}
