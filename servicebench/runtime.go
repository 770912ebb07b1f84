package main

import (
	"math"
	"runtime/metrics"
)

// allocSampler reads the cumulative heap allocation count from
// runtime/metrics. The runtime credits small-object allocations when a
// span is refilled, so one short call's delta is coarse, but over many
// calls the deltas sum to the true count.
type allocSampler struct{ samples []metrics.Sample }

func newAllocSampler() *allocSampler {
	return &allocSampler{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}}
}

func (s *allocSampler) read() uint64 {
	metrics.Read(s.samples)
	return s.samples[0].Value.Uint64() + s.samples[1].Value.Uint64()
}

// gcStats is a cumulative GC reading.
type gcStats struct {
	cycles   uint64
	pauseSec float64 // bucket-midpoint estimate: runtime/metrics exports a histogram
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	st := gcStats{cycles: s[0].Value.Uint64()}
	h := s[1].Value.Float64Histogram()
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		st.pauseSec += float64(n) * (lo + hi) / 2
	}
	return st
}

func (a gcStats) sub(b gcStats) gcStats {
	return gcStats{cycles: a.cycles - b.cycles, pauseSec: a.pauseSec - b.pauseSec}
}
