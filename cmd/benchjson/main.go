// Command benchjson runs the repository's headline benchmarks and
// emits a machine-readable BENCH_<short-sha>.json snapshot: ns/op plus
// every custom metric the benchmarks report (pending-hw, gp-avg-ns,
// disjoint-scaling-x, mapops/s, ...). CI runs it on every push and
// uploads the file as an artifact, so the benchmark trajectory across
// commits can be assembled without re-running anything.
//
//	go run ./cmd/benchjson                 # headline set, BENCH_<sha>.json in .
//	go run ./cmd/benchjson -out /tmp -bench 'BenchmarkDisjointMmap' -benchtime 3x
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// headlineBenchmarks is the default -bench pattern: the reclamation
// benchmarks whose pending-hw/gp-avg-ns metrics anchor the RCU
// trajectory, the disjoint-mapping benchmarks whose scaling factor and
// range-acquires/range-conflicts counters anchor the range-lock
// trajectory, the shared-file benchmarks whose faults/s and
// pc-hits/pc-fills/pc-coalesced/pc-dirty counters anchor the page-cache
// trajectory (file-fault scaling vs the global-sem baseline), the
// memory-pressure benchmarks whose pc-evict/pc-refault/pc-writeback
// counters anchor the page-reclaim trajectory (fault throughput with
// the working set at 2x physical memory), and the munmap-batching
// benchmarks whose tlb-flushes/pages-per-flush counters anchor the
// shootdown-batching trajectory (one gather flush per 1024-page unmap
// vs the per-page baseline), the torture smoke whose
// torture-ops/fail-fires/oom-kills counters anchor the robustness
// trajectory (fault-injected churn with zero invariant violations),
// and the multi-tenant soak whose soak-p99-ns/soak-p999-ns latency
// percentiles and tenant-fairness count (evictions suffered by
// under-limit tenants, gated at zero) anchor the tenant-isolation
// trajectory. BenchmarkTraceOverhead's trace-overhead-pct and
// BenchmarkIntrospectOverhead's introspect-overhead-pct (plus the
// fault/map-op/range-wait/gp percentile metrics the other headline
// benchmarks now report) anchor the observability trajectory: the
// disarmed flight recorder and the disarmed contention profiler must
// both stay free, and the percentiles are the tail-latency record
// across PRs. BenchmarkRangeContention's top-range-wait-ns /
// range-wait-max-ns are the lock-contention attribution headline: the
// cumulative and worst-case wall-clock the most contended address
// interval costs an overlapping-madvise workload. The huge-fault-storm
// pair anchors the transparent-huge-page trajectory: faults/s of a
// 2 MB-chunk population storm with THP on vs the base-page baseline
// (the ≥5x claim), pages-per-flush on the huge teardown path, and the
// thp-huge-faults/thp-fallbacks counters; the torture smoke's
// thp-collapses/thp-splits record the promotion/demotion machinery
// exercised under fault injection.
const headlineBenchmarks = `^(BenchmarkRCUDefer|BenchmarkMunmapRetire|BenchmarkDisjointMmap|BenchmarkDisjointMmapRangeLocks|BenchmarkDisjointMmapGlobalSem|BenchmarkSharedFileFault|BenchmarkSharedFileFaultGlobalSem|BenchmarkMemoryPressure|BenchmarkMemoryPressureGlobalSem|BenchmarkMunmapBatched|BenchmarkMunmapBatchedPerPage|BenchmarkHugeFaultStorm|BenchmarkHugeFaultStormBasePages|BenchmarkTortureSmoke|BenchmarkMultiTenantSoak|BenchmarkTraceOverhead|BenchmarkIntrospectOverhead|BenchmarkRangeContention)$`

// timedHeadlineBenchmarks complete the default headline set with the
// benchmarks whose ns/op is itself the tracked number:
// BenchmarkFaultPureRCU is the cost of one lock-free fault, the figure
// per-CPU fault counters and sampled fault timing halved. One iteration
// of a sub-µs operation times the timer, so the default run gives them
// timedBenchtime whatever -benchtime says.
const (
	timedHeadlineBenchmarks = `^BenchmarkFaultPureRCU$`
	timedBenchtime          = "1s"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the emitted JSON document.
type Snapshot struct {
	Commit     string      `json:"commit"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	BenchTime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	outDir := flag.String("out", ".", "directory to write BENCH_<short-sha>.json into")
	pattern := flag.String("bench", headlineBenchmarks, "benchmark pattern passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "value passed to go test -benchtime")
	flag.Parse()

	sha := shortSHA()
	benches, err := runBenchmarks(*pattern, *benchtime)
	if err == nil && *pattern == headlineBenchmarks {
		var timed []Benchmark
		timed, err = runBenchmarks(timedHeadlineBenchmarks, timedBenchtime)
		benches = append(benches, timed...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	snap := Snapshot{
		Commit:     sha,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		BenchTime:  *benchtime,
		Benchmarks: benches,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*outDir, "BENCH_"+sha+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(path)
}

// runBenchmarks runs the root package's benchmarks matching pattern
// and parses their result lines.
func runBenchmarks(pattern, benchtime string) ([]Benchmark, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchtime", benchtime, "-count", "1", ".")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test failed: %v\n%s", err, out.String())
	}
	benches, err := parseBenchOutput(out.String())
	if err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmark matched %q\n%s", pattern, out.String())
	}
	return benches, nil
}

// shortSHA returns the current commit's short hash, falling back to
// GITHUB_SHA (detached CI checkouts) and then to "worktree".
func shortSHA() string {
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			return s
		}
	}
	if sha := os.Getenv("GITHUB_SHA"); len(sha) >= 7 {
		return sha[:7]
	}
	return "worktree"
}

// parseBenchOutput extracts benchmark lines from go test -bench output.
// A line has the shape:
//
//	BenchmarkName-8   3   87824394 ns/op   6.863 disjoint-scaling-x   ...
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchOutput(out string) ([]Benchmark, error) {
	var benches []Benchmark
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // PASS/ok lines and headers
		}
		b := Benchmark{Name: fields[0], Metrics: map[string]float64{}}
		// Strip the -N GOMAXPROCS suffix go test appends to the name.
		if i := strings.LastIndex(fields[0], "-"); i > 0 {
			if _, err := strconv.Atoi(fields[0][i+1:]); err == nil {
				b.Name = fields[0][:i]
			}
		}
		b.Iterations = iters
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			if fields[i+1] == "ns/op" {
				b.NsPerOp = val
			} else {
				b.Metrics[fields[i+1]] = val
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		benches = append(benches, b)
	}
	return benches, nil
}
