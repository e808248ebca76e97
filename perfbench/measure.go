package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// latencies is a sample buffer preallocated to the op schedule's length, so
// recording never allocates and the harness adds nothing to
// alloc_kb_per_query.
type latencies struct {
	d []time.Duration
}

func newLatencies(capacity int) *latencies {
	return &latencies{d: make([]time.Duration, 0, capacity)}
}

func (l *latencies) add(d time.Duration) { l.d = append(l.d, d) }

func (l *latencies) merge(o *latencies) { l.d = append(l.d, o.d...) }

func (l *latencies) sum() time.Duration {
	var s time.Duration
	for _, d := range l.d {
		s += d
	}
	return s
}

// summary is a sample's count, quartiles and tail, all in milliseconds.
// Tail is the mean of the samples at or above the nearest-rank p99. A
// window holds about a thousand searches, so their p99 order statistic
// rests on the ten or so samples beyond it and jumps between runs; their
// tail mean does not. Point lookups number 10,000 or more, so their p99
// has 100 samples beyond it and is steady, while their tail mean would
// follow the odd host stall that lasts a hundred lookups.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1_ms"`
	Median float64 `json:"median_ms"`
	Q3     float64 `json:"q3_ms"`
	P99    float64 `json:"p99_ms"`
	Tail   float64 `json:"p99_tail_mean_ms"`
	Beyond int     `json:"beyond_p99"` // samples above the p99 rank
	Mean   float64 `json:"mean_ms"`
}

func (l *latencies) summarize() summary {
	n := len(l.d)
	if n == 0 {
		return summary{}
	}
	sort.Slice(l.d, func(i, j int) bool { return l.d[i] < l.d[j] })
	rank := func(q float64) int { // nearest-rank percentile index
		i := int(math.Ceil(q*float64(n))) - 1
		return max(0, min(n-1, i))
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	p99 := rank(0.99)
	var tail time.Duration
	for _, d := range l.d[p99:] {
		tail += d
	}
	return summary{
		N: n, Q1: ms(l.d[rank(0.25)]), Median: ms(l.d[rank(0.5)]), Q3: ms(l.d[rank(0.75)]),
		P99: ms(l.d[p99]), Tail: ms(tail) / float64(n-p99), Beyond: n - 1 - p99, Mean: ms(l.sum()) / float64(n),
	}
}

// meter reads process CPU time, cumulative heap allocation and GC count
// without allocating, so it can bracket single operations.
type meter struct {
	samples []metrics.Sample
}

type reading struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

func newMeter() *meter {
	return &meter{samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}}
}

func (m *meter) read() reading {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(m.samples)
	return reading{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.samples[0].Value.Uint64(),
		gcs:   m.samples[1].Value.Uint64(),
	}
}

// cost accumulates reading deltas.
type cost struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

func (c *cost) add(a, b reading) {
	c.cpu += b.cpu - a.cpu
	c.alloc += b.alloc - a.alloc
	c.gcs += b.gcs - a.gcs
}

func (c *cost) sub(o cost) {
	c.cpu -= o.cpu
	c.alloc -= o.alloc
	c.gcs -= o.gcs
}

// heapLive forces a collection and returns the live heap in bytes.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
