package main

import (
	"slices"
	"time"
)

// The host reference corrects the timed end-to-end metrics for the
// speed of the host. The benchmark runs on a VM that shares its
// physical cores with other tenants, and the speed the host gives it
// drifts by ±20 % over minutes: runs of the same code taken a few
// minutes apart differ on every timed metric at once, in the same
// direction. So each worker times a fixed reference computation, one
// slice of it every refEvery, and the run reports each timed metric as
// it would read on a host where a slice takes refNominal:
// rates are multiplied by (median slice / refNominal), times divided by
// it. The uncorrected values are printed in the metadata line.
//
// The slice is pure core work — a multiply-add chain storing into a
// 32 KiB table, no allocation, nothing of the program under test — so
// a change to the program does not change it. It tracked the drift: the
// run's median slice correlated 0.80–0.96 with the six timed metrics
// over eight 40 s map-churn runs, and 0.70–0.93 over eight 30 s
// anon-fault runs. A 4 MiB pointer chase, also tried, tracked
// map-churn's drift poorly (0.46–0.66).

// refIters is the length of one slice, about 120 µs on the 2-vCPU Xeon
// VM the benchmark was written on.
const refIters = 1 << 16

// refEvery is how often a worker runs a slice, at its first round end
// past the time: about 160 slices per worker in a 40 s run, for 0.05 %
// of its time.
const refEvery = 250 * time.Millisecond

// refNominal is the slice length the corrected metrics are stated at,
// the typical slice on that VM.
const refNominal = 120 * time.Microsecond

var refSink uint64

// refSlice runs one slice of the reference and returns its length in
// ns. x carries the chain from slice to slice.
func refSlice(x *uint64) int64 {
	var tab [4096]uint64
	v := *x | 1
	t0 := time.Now()
	for i := 0; i < refIters; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		tab[(v>>52)&4095] += v
	}
	d := time.Since(t0)
	*x = v
	refSink += tab[v&4095]
	return int64(d)
}

// hostSlowdown is the median slice of the phase's workers over
// refNominal: above 1 the host ran slower than nominal.
func hostSlowdown(recs []*recorder) (float64, int) {
	var all []int64
	for _, r := range recs {
		all = append(all, r.refs...)
	}
	if len(all) == 0 {
		return 1, 0
	}
	slices.Sort(all)
	return float64(all[len(all)/2]) / float64(refNominal), len(all)
}
