package main

import (
	"math"
	"slices"
	"time"
)

// window is the length of the measured phase's windows. Every
// end-to-end rate and latency percentile is computed per window and
// reported as the median over the windows, so a burst of load from
// outside the benchmark (a busy neighbour on the host) moves a few
// windows, not the result.
const window = time.Second

// mark is a worker's counts at the first round end past a window
// boundary.
type mark struct {
	t              int64
	faults, mapops uint64
}

// latHists is one window's latency histograms.
type latHists struct{ fault, mapop hist }

// closeWindow marks the end of the current window at t.
func (r *recorder) closeWindow(t int64) {
	r.marks = append(r.marks, mark{t: t, faults: r.faults, mapops: r.mapops})
	r.wins = append(r.wins, r.cur)
	r.cur = new(latHists)
}

// windowStats is one window of a phase, every worker merged.
type windowStats struct {
	faultsPerS, mapopsPerS float64
	latHists
}

// windows splits a finished phase into its windows. Window k of a
// worker runs from its mark k to mark k+1; a phase shorter than one
// window is one window, closed at the worker's last round.
func windows(recs []*recorder) []windowStats {
	n := len(recs[0].marks)
	for _, r := range recs {
		n = min(n, len(r.marks))
	}
	ws := make([]windowStats, n-1)
	for k := range ws {
		w := &ws[k]
		for _, r := range recs {
			a, b := r.marks[k], r.marks[k+1]
			secs := float64(b.t-a.t) / 1e9
			w.faultsPerS += float64(b.faults-a.faults) / secs
			w.mapopsPerS += float64(b.mapops-a.mapops) / secs
			w.fault.merge(&r.wins[k].fault)
			w.mapop.merge(&r.wins[k].mapop)
		}
	}
	return ws
}

// medianOver returns the median over windows of f.
func medianOver(ws []windowStats, f func(*windowStats) float64) float64 {
	v := make([]float64, len(ws))
	for i := range ws {
		v[i] = f(&ws[i])
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// perWindow returns f of every window, rounded to four significant
// digits, for the metadata line.
func perWindow(ws []windowStats, f func(*windowStats) float64) []float64 {
	v := make([]float64, len(ws))
	for i := range ws {
		x := f(&ws[i])
		if x > 0 {
			p := math.Pow(10, 3-math.Floor(math.Log10(x)))
			x = math.Round(x*p) / p
		}
		v[i] = x
	}
	return v
}
