// Command asplos12 regenerates every table and figure of the paper's
// evaluation (§7) on the simulated 80-core machine:
//
//	asplos12 -experiment all            # everything (default)
//	asplos12 -experiment fig17          # one figure
//	asplos12 -experiment table1
//	asplos12 -experiment rotations      # §3.3 tree statistics
//	asplos12 -quick                     # coarser sweeps for a fast pass
//	asplos12 -csv                       # machine-readable series output
//
// See EXPERIMENTS.md for the paper-versus-reproduction comparison.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"bonsai/internal/coherence"
	"bonsai/internal/core"
	"bonsai/internal/sim"
	"bonsai/internal/stats"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"which result to regenerate: fig13|fig14|fig15|fig16|fig17|fig18|table1|rotations|workarounds|ablations|all")
		quick = flag.Bool("quick", false, "coarser core sweeps for a fast run")
		csv   = flag.Bool("csv", false, "emit CSV instead of tables and charts")
		chart = flag.Bool("chart", true, "render ASCII charts for figures")
	)
	flag.Parse()

	m := &coherence.E78870
	p := sim.DefaultParams

	corePoints := sim.DefaultCorePoints
	appCores := sim.AppCorePoints
	fractions := sim.DefaultFractionPoints
	cycles := uint64(25_000_000)
	if *quick {
		corePoints = []int{1, 10, 40, 80}
		appCores = []int{1, 16, 48, 80}
		fractions = []float64{0, 0.25, 0.5, 1.0}
		cycles = 8_000_000
	}

	emit := func(s *stats.Series) {
		if *csv {
			fmt.Print(s.CSV())
			return
		}
		fmt.Println(s.TableString())
		if *chart {
			fmt.Println(s.Chart(64, 18))
		}
	}

	run := func(name string) bool {
		return *experiment == "all" || strings.EqualFold(*experiment, name)
	}
	ran := false

	if run("fig13") {
		ran = true
		emit(sim.FigApp(m, p, sim.Metis, appCores))
	}
	if run("fig14") {
		ran = true
		emit(sim.FigApp(m, p, sim.Psearchy, appCores))
	}
	if run("fig15") {
		ran = true
		emit(sim.FigApp(m, p, sim.Dedup, appCores))
	}
	if run("table1") {
		ran = true
		fmt.Println(sim.Table1(m, p))
	}
	if run("fig16") {
		ran = true
		emit(sim.Fig16(m, p, corePoints, cycles))
	}
	if run("fig17") {
		ran = true
		emit(sim.Fig17(m, p, corePoints, cycles))
	}
	if run("fig18") {
		ran = true
		emit(sim.Fig18(m, p, fractions, cycles))
	}
	if run("rotations") {
		ran = true
		rotationStats()
	}
	if run("workarounds") {
		ran = true
		fmt.Println(sim.Workarounds(m, p))
	}
	if run("ablations") {
		ran = true
		weightAblation()
		mmapCacheAblation()
		pteLockAblation()
		statsLineAblation(m, p, cycles)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// rotationStats reproduces the §3.3 numbers: with weight 4, insertion
// performs ~0.35 rotations and, with the path-copy-elimination
// optimization, ~2 allocations and ~1 free per insert — independent of
// tree size. The ablation column shows O(log n) growth without it.
func rotationStats() {
	t := &stats.Table{
		Title: "BONSAI §3.3 statistics: per-insert cost at steady state (weight 4)",
		Columns: []string{"Tree size", "rotations/insert",
			"allocs/insert (opt)", "frees/insert (opt)", "allocs/insert (no-opt)"},
	}
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		rot, aOpt, fOpt := measure(n, true)
		_, aNo, _ := measure(n, false)
		t.AddRow(stats.FormatFloat(float64(n)),
			fmt.Sprintf("%.3f", rot),
			fmt.Sprintf("%.2f", aOpt), fmt.Sprintf("%.2f", fOpt),
			fmt.Sprintf("%.2f", aNo))
	}
	fmt.Println(t)
	fmt.Println("Paper: ~0.35 rotations, ~2 allocations and ~1 free per insert (O(1));")
	fmt.Println("without the optimization garbage grows as O(log n).")
}

func measure(n int, opt bool) (rotPerInsert, allocsPerInsert, freesPerInsert float64) {
	tr := core.NewTree[int](core.Options{UpdateInPlace: opt})
	rng := rand.New(rand.NewSource(1))
	for tr.Len() < n {
		tr.Insert(rng.Uint64(), 0)
	}
	tr.ResetStats()
	probe := n / 10
	if probe > 50_000 {
		probe = 50_000
	}
	if probe < 1000 {
		probe = 1000
	}
	fresh := 0
	for fresh < probe {
		if tr.Insert(rng.Uint64(), 0) {
			fresh++
		}
	}
	st := tr.Stats()
	return float64(st.Rotations()) / float64(fresh),
		float64(st.Allocs) / float64(fresh),
		float64(st.Frees) / float64(fresh)
}
