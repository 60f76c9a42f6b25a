package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHist is a lock-free log-bucketed latency histogram: 16
// sub-buckets per power-of-two octave (≤ ~6% relative error), sized
// for the full nanosecond range, safe for concurrent use from many
// goroutines. The zero value is ready to use. It exists so long soak
// runs can report p50/p99/p999 with bounded memory instead of keeping
// every sample — a reservoir would blunt exactly the tail the p999
// gate watches.
//
// The histogram keeps two tallies. Count is the exact number of events
// (Tick, or Record); the buckets hold sample weight (RecordWeighted, or
// Record with weight 1), and percentiles rank over that weight. A hot
// path that times only 1 in N events ticks every event and records
// each timed one with weight N, so Count stays exact while the clock
// is read rarely. The total weight is summed from the buckets at read
// time, so a weighted record writes one word.
type LatencyHist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

const (
	histSubBits = 4 // 16 sub-buckets per octave
	histSub     = 1 << histSubBits
	// Values below 2^(histSubBits+1) get exact buckets; above, one
	// bucket per (octave, mantissa-top-4-bits) pair up to 64-bit ns.
	histExact   = 2 * histSub
	histBuckets = histExact + (63-histSubBits)*histSub
)

// histBucket maps a nanosecond value onto its bucket index.
func histBucket(ns uint64) int {
	if ns < histExact {
		return int(ns)
	}
	exp := bits.Len64(ns) // ≥ histSubBits+2
	i := histExact + (exp-histSubBits-2)*histSub + int(ns>>(exp-histSubBits-1)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histValue is the representative (midpoint) value of bucket i.
func histValue(i int) uint64 {
	if i < histExact {
		return uint64(i)
	}
	exp := (i-histExact)/histSub + histSubBits + 2
	m := uint64((i-histExact)%histSub + histSub)
	lo := m << (exp - histSubBits - 1)
	return lo + (uint64(1)<<(exp-histSubBits-1))/2
}

// Record counts one event and adds its sample with weight 1.
func (h *LatencyHist) Record(d time.Duration) {
	h.RecordWeighted(d, 1)
	h.n.Add(1)
}

// Tick counts one event without recording a sample.
func (h *LatencyHist) Tick() { h.n.Add(1) }

// RecordWeighted adds a sample standing for weight events, without
// counting an event (the caller Ticks each event separately).
func (h *LatencyHist) RecordWeighted(d time.Duration, weight uint64) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[histBucket(ns)].Add(weight)
}

// Count returns the exact number of events (Ticks and Records).
func (h *LatencyHist) Count() uint64 { return h.n.Load() }

// Weight returns the total recorded sample weight.
func (h *LatencyHist) Weight() uint64 {
	var w uint64
	for i := range h.counts {
		w += h.counts[i].Load()
	}
	return w
}

// Merge adds o's events and sample weights into h (o keeps its own).
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// LatencyStats is a JSON-ready percentile snapshot of a LatencyHist,
// the shape every latency surface (vm.StatsSnapshot, machine.Snapshot,
// benchjson) reports.
type LatencyStats struct {
	Count  uint64 `json:"count"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
	MaxNs  int64  `json:"max_ns"`
}

// Stats snapshots the histogram's event count and the p50/p99/p999/
// max of its sample weight. Safe concurrently with recording; the
// percentiles are consistent to within the samples that land
// mid-snapshot, and all come from one read of the buckets.
func (h *LatencyHist) Stats() LatencyStats {
	s := LatencyStats{Count: h.n.Load()}
	c, total := h.load()
	if total == 0 {
		return s
	}
	s.P50Ns = int64(percentileOf(&c, total, 50))
	s.P99Ns = int64(percentileOf(&c, total, 99))
	s.P999Ns = int64(percentileOf(&c, total, 99.9))
	for i := histBuckets - 1; i >= 0; i-- {
		if c[i] != 0 {
			s.MaxNs = int64(histValue(i))
			break
		}
	}
	return s
}

// Percentile returns the approximate p-th percentile (0 < p ≤ 100) of
// the recorded sample weight, or 0 when no sample was recorded.
func (h *LatencyHist) Percentile(p float64) time.Duration {
	c, total := h.load()
	return percentileOf(&c, total, p)
}

// load copies the bucket weights and returns them with their sum.
func (h *LatencyHist) load() (c [histBuckets]uint64, total uint64) {
	for i := range h.counts {
		c[i] = h.counts[i].Load()
		total += c[i]
	}
	return c, total
}

// percentileOf ranks p over bucket weights c summing to total.
func percentileOf(c *[histBuckets]uint64, total uint64, p float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i, w := range c {
		seen += w
		if seen >= rank {
			return time.Duration(histValue(i))
		}
	}
	return time.Duration(histValue(histBuckets - 1))
}
