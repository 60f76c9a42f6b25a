package main

import (
	"runtime"

	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/rcu"
	"bonsai/internal/reclaim"
	"bonsai/internal/tlb"
	"bonsai/internal/vm"
)

// layerSnap is every layer counter the benchmark reads, through each
// layer's public functions. Per-space counters are summed over the
// workload's spaces; machine- and family-wide ones are read once.
type layerSnap struct {
	faults, alreadyMapped, retries uint64
	cacheHits, cacheMisses         uint64
	splits, merges                 uint64
	thpHuge, thpFallback           uint64
	thpSplits, thpZaps             uint64
	rangeAcquires, rangeConflicts  uint64
	rangeMaxHeld                   int
	pteLocks, pteContended         uint64
	tlb                            tlb.Stats
	rcu                            rcu.Stats
	alloc                          physmem.Stats
	cache                          pagecache.Stats
	reclaim                        reclaim.Stats
	gcCycles                       uint32
	gcPauseNs                      uint64
	latency                        vm.LatencySnapshot
}

func takeSnap(spaces []*vm.AddressSpace) layerSnap {
	var s layerSnap
	for _, as := range spaces {
		st := as.Stats()
		s.faults += st.Faults
		s.alreadyMapped += st.FaultsAlreadyMapped
		s.retries += st.Retries()
		s.cacheHits += st.MmapCacheHits
		s.cacheMisses += st.MmapCacheMisses
		s.splits += st.Splits
		s.merges += st.Merges
		s.thpHuge += st.THPHugeFaults
		s.thpFallback += st.THPFallbacks
		s.thpSplits += st.THPSplits
		s.thpZaps += st.THPZaps
		s.tlb = tlb.Stats{Flushes: st.TLBFlushes, PagesFlushed: st.TLBPagesFlushed}
		rs := as.RangeStats()
		s.rangeAcquires += rs.Acquires
		s.rangeConflicts += rs.Conflicts
		s.rangeMaxHeld = max(s.rangeMaxHeld, rs.MaxHeld)
		a, c := as.Tables().PTELockStats()
		s.pteLocks += a
		s.pteContended += c
	}
	as := spaces[0]
	s.rcu = as.Domain().Stats()
	s.alloc = as.Allocator().Stats()
	s.cache = as.PageCacheStats()
	s.reclaim = as.ReclaimStats()
	s.latency = as.LatencySnapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcCycles, s.gcPauseNs = ms.NumGC, ms.PauseTotalNs
	return s
}

// sub is a - b clamped at zero: PTE-lock counts live in leaf tables,
// and a table freed by a munmap takes its counts with it.
func sub(a, b uint64) float64 {
	if a < b {
		return 0
	}
	return float64(a - b)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics turns the counter deltas across the traced phase into
// the per-layer metrics, each normalized per completed fault or mapping
// op of the phase (base.faults, base.mapops). Latency percentiles read
// from the layers' own always-on histograms (ranges wait, RCU grace
// period, reclaim scan) are cumulative over the machine's life, since
// those histograms have no delta form.
func layerMetrics(m *metrics, b, e layerSnap, faults, mapops float64) {
	kf := faults / 1000
	m.add("base.faults", faults, "count")
	m.add("base.mapops", mapops, "count")

	vmFaults := sub(e.faults, b.faults)
	m.add("vm.retries_per_kfault", ratio(sub(e.retries, b.retries), kf), "1/kfault")
	m.add("vm.already_mapped_ratio", ratio(sub(e.alreadyMapped, b.alreadyMapped), vmFaults), "ratio")
	m.add("vm.mmap_cache_hit_ratio", ratio(sub(e.cacheHits, b.cacheHits), sub(e.cacheHits+e.cacheMisses, b.cacheHits+b.cacheMisses)), "ratio")
	huge, fallback := sub(e.thpHuge, b.thpHuge), sub(e.thpFallback, b.thpFallback)
	m.add("vm.thp.huge_fault_ratio", ratio(huge, vmFaults), "ratio")
	m.add("vm.thp.fallback_ratio", ratio(fallback, huge+fallback), "ratio")
	m.add("vm.thp.splits", sub(e.thpSplits, b.thpSplits), "count")
	m.add("vm.thp.zaps", sub(e.thpZaps, b.thpZaps), "count")

	m.add("vma.splits_per_mapop", ratio(sub(e.splits, b.splits), mapops), "1/mapop")
	m.add("vma.merges_per_mapop", ratio(sub(e.merges, b.merges), mapops), "1/mapop")

	acq := sub(e.rangeAcquires, b.rangeAcquires)
	m.add("ranges.acquires_per_mapop", ratio(acq, mapops), "1/mapop")
	m.add("ranges.conflict_ratio", ratio(sub(e.rangeConflicts, b.rangeConflicts), acq), "ratio")
	m.add("ranges.wait_p99_ns", float64(e.latency.RangeWait.P99Ns), "ns")
	m.add("ranges.max_held", float64(e.rangeMaxHeld), "count")

	m.add("rcu.defers_per_mapop", ratio(sub(e.rcu.Defers, b.rcu.Defers), mapops), "1/mapop")
	m.add("rcu.grace_periods", sub(e.rcu.GracePeriods, b.rcu.GracePeriods), "count")
	m.add("rcu.gp_p99_ns", float64(e.latency.GP.P99Ns), "ns")
	m.add("rcu.pending_hw", float64(e.rcu.PendingHighWater), "count")
	m.add("rcu.over_budget", sub(e.rcu.OverBudget, b.rcu.OverBudget), "count")

	flushes := sub(e.tlb.Flushes, b.tlb.Flushes)
	m.add("tlb.flushes_per_mapop", ratio(flushes, mapops), "1/mapop")
	m.add("tlb.pages_per_flush", ratio(sub(e.tlb.PagesFlushed, b.tlb.PagesFlushed), flushes), "pages")

	pte := sub(e.pteLocks, b.pteLocks)
	m.add("pagetable.pte_lock_per_fault", ratio(pte, faults), "1/fault")
	m.add("pagetable.pte_lock_contended_ratio", ratio(sub(e.pteContended, b.pteContended), pte), "ratio")

	allocs := sub(e.alloc.Allocs, b.alloc.Allocs)
	runs, runFails := sub(e.alloc.RunAllocs, b.alloc.RunAllocs), sub(e.alloc.RunFailures, b.alloc.RunFailures)
	m.add("physmem.allocs_per_fault", ratio(allocs, faults), "1/fault")
	m.add("physmem.refill_ratio", ratio(sub(e.alloc.Refills, b.alloc.Refills), allocs), "ratio")
	m.add("physmem.run_allocs", runs, "count")
	m.add("physmem.run_failure_ratio", ratio(runFails, runs+runFails), "ratio")
	m.add("physmem.buddy_splits", sub(e.alloc.BuddySplits, b.alloc.BuddySplits), "count")
	m.add("physmem.coalesces", sub(e.alloc.BuddyCoalesces, b.alloc.BuddyCoalesces), "count")

	hits, misses := sub(e.cache.Hits, b.cache.Hits), sub(e.cache.Misses, b.cache.Misses)
	evicted, aborts := sub(e.cache.Evictions, b.cache.Evictions), sub(e.cache.EvictAborts, b.cache.EvictAborts)
	m.add("pagecache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.add("pagecache.hits_per_fault", ratio(hits, faults), "1/fault")
	m.add("pagecache.coalesced", sub(e.cache.Coalesced, b.cache.Coalesced), "count")
	m.add("pagecache.refaults_per_kfault", ratio(sub(e.cache.Refaults, b.cache.Refaults), kf), "1/kfault")
	m.add("pagecache.writebacks_per_kfault", ratio(sub(e.cache.Writebacks, b.cache.Writebacks), kf), "1/kfault")
	m.add("pagecache.evict_abort_ratio", ratio(aborts, evicted+aborts), "ratio")

	reclaimed := sub(e.reclaim.KswapdEvicted+e.reclaim.DirectEvicted+e.reclaim.AccountEvicted,
		b.reclaim.KswapdEvicted+b.reclaim.DirectEvicted+b.reclaim.AccountEvicted)
	m.add("reclaim.kswapd_cycles", sub(e.reclaim.KswapdCycles, b.reclaim.KswapdCycles), "count")
	m.add("reclaim.direct_runs_per_kfault", ratio(sub(e.reclaim.DirectRuns, b.reclaim.DirectRuns), kf), "1/kfault")
	m.add("reclaim.evicted_per_kfault", ratio(reclaimed, kf), "1/kfault")
	m.add("reclaim.scan_p99_ns", float64(e.latency.ReclaimScan.P99Ns), "ns")

	m.add("go.gc_cycles", float64(e.gcCycles-b.gcCycles), "count")
	m.add("go.gc_pause_ms", sub(e.gcPauseNs, b.gcPauseNs)/1e6, "ms")
}
