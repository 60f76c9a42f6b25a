package main

import (
	"fmt"
	"math/rand"
	"sync"

	"bonsai/internal/coherence"
	"bonsai/internal/core"
	"bonsai/internal/sim"
	"bonsai/internal/stats"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// weightAblation sweeps the BONSAI weight parameter (§3.1: bounded-
// balance trees "exchange a certain degree of imbalance — controlled by
// a weight parameter — for fewer rotations"). The paper uses 4.
func weightAblation() {
	t := &stats.Table{
		Title:   "Ablation: BONSAI weight parameter (100k random inserts)",
		Columns: []string{"Weight", "rotations/insert", "height", "height/log2(n)"},
	}
	const n = 100_000
	log2n := 16.6
	for _, w := range []int{3, 4, 8, 16, 32} {
		tr := core.NewTree[int](core.Options{Weight: w, UpdateInPlace: true})
		rng := rand.New(rand.NewSource(1))
		for tr.Len() < n {
			tr.Insert(rng.Uint64(), 0)
		}
		st := tr.Stats()
		h := tr.Height()
		t.AddRow(fmt.Sprint(w),
			fmt.Sprintf("%.3f", float64(st.Rotations())/float64(n)),
			fmt.Sprint(h),
			fmt.Sprintf("%.2f", float64(h)/log2n))
	}
	fmt.Println(t)
	fmt.Println("Larger weights rotate less but allow deeper trees; the paper's 4")
	fmt.Println("balances garbage production against lookup depth.")
	fmt.Println()
}

// mmapCacheAblation measures the §6 mmap cache: with one thread it
// hits almost always; with many threads faulting on different regions
// its hit rate collapses ("below 1% in our benchmarks"), which is why
// the RCU designs disable it.
func mmapCacheAblation() {
	t := &stats.Table{
		Title:   "Ablation: mmap cache hit rate (§6), PureRCU with the cache forced on",
		Columns: []string{"Workload", "hits", "misses", "hit rate"},
	}

	// The interleaving of faults from concurrent threads is emulated
	// deterministically: the "8 threads" row issues the globally
	// interleaved fault sequence that 8 threads walking 8 regions
	// produce, which is what the single shared cache actually observes.
	measure := func(name string, regions int) {
		as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: 1, MmapCache: vm.MmapCacheOn})
		if err != nil {
			fmt.Println(err)
			return
		}
		defer as.Close()
		bases := make([]uint64, regions)
		for i := range bases {
			// Alternate Exec so adjacent regions stay distinct VMAs
			// instead of merging.
			prot := vma.ProtRead | vma.ProtWrite
			if i%2 == 1 {
				prot |= vma.ProtExec
			}
			b, err := as.Mmap(0, 64*vm.PageSize, prot, 0, nil, 0)
			if err != nil {
				fmt.Println(err)
				return
			}
			bases[i] = b
		}
		cpu := as.NewCPU(0)
		for p := 0; p < 64; p++ {
			for r := 0; r < 8; r++ { // refaults within each page
				for _, base := range bases { // interleave across "threads"
					_ = cpu.Fault(base+uint64(p)*vm.PageSize, true)
				}
			}
		}
		st := as.Stats()
		total := st.MmapCacheHits + st.MmapCacheMisses
		rate := 0.0
		if total > 0 {
			rate = float64(st.MmapCacheHits) / float64(total) * 100
		}
		t.AddRow(name,
			stats.FormatFloat(float64(st.MmapCacheHits)),
			stats.FormatFloat(float64(st.MmapCacheMisses)),
			fmt.Sprintf("%.1f%%", rate))
	}

	measure("1 thread, 1 region", 1)
	measure("8 threads, 8 regions (interleaved)", 8)
	fmt.Println(t)
	fmt.Println("With many threads on distinct regions every fault misses and then")
	fmt.Println("*writes* the shared cache line — why §6 disables the cache for RCU designs.")
	fmt.Println()
}

// pteLockAblation compares per-page-table PTE locks against a single
// shared PTE lock (§2/§4.1: fine-grained per-table locks keep faults to
// addresses more than 2 MB apart contention-free).
func pteLockAblation() {
	t := &stats.Table{
		Title:   "Ablation: PTE locking granularity (4 threads faulting distinct 2 MB regions)",
		Columns: []string{"Configuration", "faults", "locks used", "acquisitions/lock"},
	}
	for _, single := range []bool{false, true} {
		as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: 4, SinglePTELock: single})
		if err != nil {
			fmt.Println(err)
			return
		}
		base, err := as.Mmap(0, 4*512*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
		if err != nil {
			fmt.Println(err)
			return
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cpu := as.NewCPU(id)
				// Each worker stays inside its own leaf page table.
				region := base + uint64(id)*512*vm.PageSize
				for p := 0; p < 512; p++ {
					_ = cpu.Fault(region+uint64(p)*vm.PageSize, true)
				}
			}(w)
		}
		wg.Wait()
		name := "per-page-table PTE locks"
		if single {
			name = "single shared PTE lock"
		}
		st := as.Stats()
		acq, _ := as.Tables().PTELockStats()
		locks := uint64(4) // one leaf table per 2 MB region
		if single {
			locks = 1
		}
		t.AddRow(name, stats.FormatFloat(float64(st.Faults)),
			stats.FormatFloat(float64(locks)),
			stats.FormatFloat(float64(acq/locks)))
		as.Close()
	}
	fmt.Println(t)
	fmt.Println("Per-table locks spread the fill traffic over one lock per 2 MB region, so")
	fmt.Println("faults more than 2 MB apart never share a lock cache line; the single-lock")
	fmt.Println("configuration (pre-fine-grained kernels) funnels every fill through one line.")
	fmt.Println()
}

// statsLineAblation prices the fault path's statistics counters on the
// simulated 80-core machine (§4, Fig. 17's cycles-per-fault terms): a
// pure-RCU fault plus one update of a counter line shared by every
// core, against per-CPU counter shards, where each core updates its
// own line.
func statsLineAblation(m *coherence.Machine, p sim.Params, cycles uint64) {
	t := &stats.Table{
		Title:   "Ablation: fault statistics counters, one shared line vs per-CPU shards (Pure RCU)",
		Columns: []string{"Cores", "shared line cycles/fault", "per-CPU shards cycles/fault", "shared/sharded"},
	}
	for _, n := range []int{10, 20, 40, 80} {
		shared := sim.RunMicroStatsLine(m, p, n, true, cycles).CyclesPerFault
		sharded := sim.RunMicroStatsLine(m, p, n, false, cycles).CyclesPerFault
		t.AddRow(fmt.Sprint(n), stats.FormatFloat(shared), stats.FormatFloat(sharded),
			fmt.Sprintf("%.2fx", shared/sharded))
	}
	fmt.Println(t)
	fmt.Println("Every fault writing one per-address-space counter turns the counter's")
	fmt.Println("cache line into the serialization point the lock-free fault path removed;")
	fmt.Println("per-CPU shards keep the fault at its no-contention cost.")
	fmt.Println()
}
