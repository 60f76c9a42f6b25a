// Command vmbench is the repository benchmark: three seeded closed-loop
// workloads (anon-fault, map-churn, file-pressure) driven against the
// public API of internal/vm with the PureRCU design, default range locks
// and transparent huge pages on. An untraced run (-trace=0) reports the
// end-to-end metrics; a traced run (-trace=1) times every vm call as a
// span and reports the per-layer metrics. See ../README.md.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when an
// oracle found a mismatch, 2 on a set-up or usage error.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"bonsai/internal/vm"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order for the printed table.
type metrics struct {
	names []string
	vals  map[string]metric
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) add(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{v, unit}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "anon-fault", "workload: anon-fault, map-churn or file-pressure")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		traced  = flag.Int("trace", 0, "1 for the traced per-layer run")
		out     = flag.String("out", ".bench_build/vmbench", "directory for the traced run's spans and layer table")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the metadata")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "vmbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	b := bench{
		name: *name, seed: *seed, d: time.Duration(*seconds * float64(time.Second)),
		out: *out, wl: mk(*seed), m: newMetrics(),
	}
	var err error
	if *traced == 1 {
		err = b.runTraced()
	} else {
		err = b.runMeasured()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		os.Exit(2)
	}
	b.report(*commit, *traced == 1)
	if !b.correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	name string
	seed uint64
	d    time.Duration
	out  string
	wl   workload
	m    *metrics

	correct           bool
	attempted, failed uint64
	problems          []string
	meta              map[string]any
}

// phase runs every worker's closed loop for d and returns the workers'
// recorders and the phase's wall-clock length.
func (b *bench) phase(d time.Duration, traced bool) ([]*recorder, time.Duration) {
	recs := make([]*recorder, b.wl.workers())
	var stop atomic.Bool
	var wg sync.WaitGroup
	epoch := time.Now()
	for w := range recs {
		recs[w] = newRecorder(w, traced, b.wl.expectSegv(w), epoch)
	}
	for w, r := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				b.wl.round(w, r)
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(epoch)
	for _, r := range recs {
		if len(r.marks) < 2 { // shorter than one window: the phase is the window
			r.closeWindow(int64(elapsed))
		}
		b.tally(r)
	}
	return recs, elapsed
}

// tally folds a recorder's outcome counts into the run's.
func (b *bench) tally(r *recorder) {
	b.attempted += r.attempted
	b.failed += r.failed
	b.problems = append(b.problems, r.errs...)
	b.problems = append(b.problems, r.mismatch1...)
	if r.mismatches > 0 {
		b.correct = false
	}
}

// finish runs the quiesced oracles and closes the machine; Close
// returning an error is the frame-leak check.
func (b *bench) finish() {
	r := newRecorder(0, false, false, time.Now())
	b.wl.verify(r)
	b.tally(r)
	if err := b.wl.close(); err != nil {
		b.correct = false
		b.problems = append(b.problems, "Close: "+err.Error())
	}
}

func sum(recs []*recorder, f func(*recorder) uint64) uint64 {
	var n uint64
	for _, r := range recs {
		n += f(r)
	}
	return n
}

// setups is the number of set-ups per untraced run; setup_s is their
// median. A set-up takes tens of milliseconds, so one alone is at the
// mercy of a single scheduling hiccup.
const setups = 21

// runMeasured is the untraced run: it times set-up, then one-in-64
// faults and every mapping op of the measured phase.
func (b *bench) runMeasured() error {
	b.correct = true
	var setupS []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := b.wl.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := b.wl.close(); err != nil {
				return fmt.Errorf("set-up %d close: %w", i, err)
			}
		}
	}
	runtime.GC() // the closed set-ups' garbage is not the measured phase's
	recs, _ := b.phase(b.d, false)
	rss := peakRSSMB() // before the oracles and Close, which are not the workload
	b.finish()

	ws := windows(recs)
	phaseAttempted := sum(recs, func(r *recorder) uint64 { return r.attempted })
	phaseFailed := sum(recs, func(r *recorder) uint64 { return r.failed })
	slices.Sort(setupS)

	// Every timed metric is stated at the nominal host speed (see
	// hostref.go); the uncorrected values go to the metadata line.
	slow, nref := hostSlowdown(recs)
	raw := map[string]float64{}
	m := b.m
	rate := func(name string, v float64) { raw[name] = v; m.add(name, v*slow, "1/s") }
	dur := func(name string, v float64, unit string) { raw[name] = v; m.add(name, v/slow, unit) }
	rate("faults_per_s", medianOver(ws, func(w *windowStats) float64 { return w.faultsPerS }))
	dur("fault_p50_ns", medianOver(ws, func(w *windowStats) float64 { return w.fault.quantile(0.50) }), "ns")
	dur("fault_p99_ns", medianOver(ws, func(w *windowStats) float64 { return w.fault.quantile(0.99) }), "ns")
	rate("mapops_per_s", medianOver(ws, func(w *windowStats) float64 { return w.mapopsPerS }))
	dur("mapop_p50_ns", medianOver(ws, func(w *windowStats) float64 { return w.mapop.quantile(0.50) }), "ns")
	dur("mapop_p99_ns", medianOver(ws, func(w *windowStats) float64 { return w.mapop.quantile(0.99) }), "ns")
	dur("setup_s", setupS[len(setupS)/2], "s")
	m.add("peak_rss_mb", rss, "MB")
	minF, minM := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for _, w := range ws {
		minF, minM = min(minF, w.fault.n), min(minM, w.mapop.n)
	}
	b.meta = map[string]any{
		"windows":                      len(ws),
		"window_s":                     window.Seconds(),
		"fault_samples":                sum(recs, func(r *recorder) uint64 { return r.faultSamples }),
		"mapop_samples":                sum(recs, func(r *recorder) uint64 { return r.mapops }),
		"fault_samples_per_window_min": minF,
		"mapop_samples_per_window_min": minM,
		"ops_failed_ratio":             ratio(float64(phaseFailed), float64(phaseAttempted)),
		"expected_segv":                sum(recs, func(r *recorder) uint64 { return r.segv }),
		"setups":                       setups,
		"host_slowdown":                slow,
		"host_ref_slices":              nref,
		"uncorrected":                  raw,
		"window_faults_per_s":          perWindow(ws, func(w *windowStats) float64 { return w.faultsPerS }),
		"window_mapops_per_s":          perWindow(ws, func(w *windowStats) float64 { return w.mapopsPerS }),
		"window_fault_p50_ns":          perWindow(ws, func(w *windowStats) float64 { return w.fault.quantile(0.50) }),
	}
	return nil
}

// runTraced is the traced run: an untraced half for reference, then a
// traced half that times every vm call as a span under its worker's
// round, with the layer counters read before and after it; then the
// layer probes.
func (b *bench) runTraced() error {
	b.correct = true
	if err := b.wl.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	half := b.d / 2
	recsU, elU := b.phase(half, false)
	spaces := b.wl.spaces()
	before := takeSnap(spaces)
	recs, elT := b.phase(half, true)
	after := takeSnap(spaces)
	var regions []uint64
	for _, r := range spaces[0].Regions() {
		regions = append(regions, r.Start)
	}
	b.finish()

	m := b.m
	faults := float64(sum(recs, func(r *recorder) uint64 { return r.faults }))
	mapops := float64(sum(recs, func(r *recorder) uint64 { return r.mapops }))
	var h [numOps]hist
	var busy [numOps]int64
	for _, r := range recs {
		for o := range h {
			h[o].merge(&r.hist[o])
			busy[o] += r.busy[o]
		}
	}
	for o := op(0); o < opRound; o++ {
		p := "vm." + opNames[o]
		m.add(p+".count", float64(h[o].n), "count")
		m.add(p+".busy_s", float64(busy[o])/1e9, "s")
		m.add(p+".p50_ns", h[o].quantile(0.50), "ns")
		m.add(p+".p99_ns", h[o].quantile(0.99), "ns")
		m.add(p+".p999_ns", h[o].quantile(0.999), "ns")
	}
	m.add("vm.fault.samples", float64(sum(recsU, func(r *recorder) uint64 { return r.faultSamples })), "count")
	m.add("vm.segv_per_kfault", ratio(float64(sum(recs, func(r *recorder) uint64 { return r.segv })), faults/1000), "1/kfault")
	layerMetrics(m, before, after, faults, mapops)
	m.add("core.regions", float64(len(regions)), "count")

	var addrs []uint64
	if n := recs[0].nfault; n > 0 {
		addrs = recs[0].addrs[:min(n, addrRing)]
	}
	runProbes(m, probeShape{
		regions: regions, faultAddrs: addrs, seed: b.seed,
		pagesPerFlush: int(m.vals["tlb.pages_per_flush"].Value + 0.5),
		shootdown:     b.wl.shootdown(),
	})
	faultBudget(m)

	fpsU := float64(sum(recsU, func(r *recorder) uint64 { return r.faults })) / elU.Seconds()
	fpsT := faults / elT.Seconds()
	m.add("trace.overhead_pct", (ratio(fpsU, fpsT)-1)*100, "%")
	var calls int64
	for o := op(0); o < opRound; o++ {
		calls += busy[o]
	}
	m.add("trace.driver_self_pct", ratio(float64(busy[opRound]-calls), float64(busy[opRound]))*100, "%")
	nspans := sum(recs, func(r *recorder) uint64 { return uint64(len(r.spans)) })
	m.add("trace.spans", float64(nspans), "count")
	m.add("trace.spans_dropped", float64(sum(recs, func(r *recorder) uint64 { return r.dropped })), "count")

	spansPath := filepath.Join(b.out, "spans-"+b.name+".bin")
	if err := writeSpans(spansPath, recs); err != nil {
		return err
	}
	slow, _ := hostSlowdown(append(recsU, recs...))
	b.meta = map[string]any{
		"spans_file":    spansPath,
		"layer_table":   filepath.Join(b.out, "layers-"+b.name+".txt"),
		"host_slowdown": slow,
	}
	return nil
}

// writeSpans writes the traced phase's spans: one JSON header line
// naming the ops and the record layout, then fixed 24-byte
// little-endian records.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	hdr, _ := json.Marshal(map[string]any{
		"format": "vmbench-spans/1",
		"record": "start_ns:i64 end_ns:i64 round:u32 op:u8 worker:u8 pad:u16, little-endian; " +
			"a call's parent is the round span with the same (worker, round)",
		"ops": opNames,
	})
	w.Write(append(hdr, '\n'))
	var rec [24]byte
	for _, r := range recs {
		for _, s := range r.spans {
			binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
			binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
			binary.LittleEndian.PutUint32(rec[16:], s.round)
			rec[20], rec[21] = byte(s.op), s.worker
			w.Write(rec[:])
		}
	}
	return errors.Join(w.Flush(), f.Close())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the metric table, the run metadata line and, last, the
// result line. The traced run also writes the table next to its spans.
func (b *bench) report(commit string, traced bool) {
	var tbl strings.Builder
	tw := tabwriter.NewWriter(&tbl, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, n := range b.m.names {
		v := b.m.vals[n]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", n, v.Value, v.Unit)
	}
	tw.Flush()
	mode := "measured"
	if traced {
		mode = "traced"
	}
	fmt.Printf("# vmbench %s %s seed=%d seconds=%g\n%s", b.name, mode, b.seed, b.d.Seconds(), tbl.String())
	for _, p := range b.problems {
		fmt.Println("# problem:", p)
	}
	if traced {
		path := filepath.Join(b.out, "layers-"+b.name+".txt")
		if err := os.WriteFile(path, []byte(tbl.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vmbench:", err)
		}
	}
	meta := map[string]any{
		"workload": b.name, "mode": mode, "seed": b.seed, "seconds": b.d.Seconds(),
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "cpu": cpuModel(), "design": vm.PureRCU.String(),
		"fault_sample_rate": fmt.Sprintf("1/%d", sampleRate),
	}
	for k, v := range b.meta {
		meta[k] = v
	}
	line, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(line))
	res := result{Correct: b.correct, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: b.m.vals}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}
