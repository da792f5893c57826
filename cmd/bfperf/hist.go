package main

import (
	"math"
	"time"
)

// histogram counts latencies in log-spaced buckets 0.1% wide: quantiles
// are exact to 0.1%, rounds and workers merge by adding counts, and the
// memory stays fixed however many ops a run makes, so heap_mb measures
// the system under test rather than the benchmark's samples.
type histogram struct {
	counts []uint64
	n      uint64
}

// bucketWidth is the natural log of one bucket's upper/lower ratio.
var bucketWidth = math.Log(1.001)

func (h *histogram) grow(n int) {
	if n > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
	}
}

func (h *histogram) record(d time.Duration) {
	i := 0
	if d > 1 {
		i = int(math.Log(float64(d)) / bucketWidth)
	}
	h.grow(i + 1)
	h.counts[i]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	h.grow(len(o.counts))
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in microseconds,
// interpolated within its bucket; 0 for an empty histogram.
func (h *histogram) quantile(q float64) float64 {
	rank := max(1, uint64(math.Ceil(q*float64(h.n))))
	var below uint64
	for i, c := range h.counts {
		if below+c >= rank {
			lo := math.Exp(float64(i) * bucketWidth)
			frac := (float64(rank-below) - 0.5) / float64(c)
			return lo * (1 + (math.Exp(bucketWidth)-1)*frac) / 1e3
		}
		below += c
	}
	return 0
}

// latencies are the successful ops of a window, or of every window of a
// run: throughput and the percentiles pool the run's rounds, because a
// slow workload's single round has too few samples for a steady p99.
type latencies struct {
	all, reads, writes histogram
	elapsed            time.Duration
}

func (l *latencies) record(d time.Duration, write bool) {
	l.all.record(d)
	if write {
		l.writes.record(d)
	} else {
		l.reads.record(d)
	}
}

func (l *latencies) merge(o *latencies) {
	l.all.merge(&o.all)
	l.reads.merge(&o.reads)
	l.writes.merge(&o.writes)
	l.elapsed += o.elapsed
}

// metrics sets throughput, the percentiles and their sample counts.
func (l *latencies) metrics(v map[string]float64) {
	v["throughput_ops_s"] = float64(l.all.n) / l.elapsed.Seconds()
	v["latency_p50_us"] = l.all.quantile(0.50)
	v["latency_p99_us"] = l.all.quantile(0.99)
	v["read_p99_us"] = l.reads.quantile(0.99)
	v["samples"] = float64(l.all.n)
	v["read_samples"] = float64(l.reads.n)
	if l.writes.n > 0 {
		v["write_p99_us"] = l.writes.quantile(0.99)
		v["write_samples"] = float64(l.writes.n)
	}
}
