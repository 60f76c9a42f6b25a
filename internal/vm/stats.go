package vm

import (
	"sync/atomic"

	"bonsai/internal/fail"
	"bonsai/internal/locks"
	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/ranges"
	"bonsai/internal/reclaim"
	"bonsai/internal/stats"
)

// statsCounters holds the address space's shared atomic counters and
// its mapping-operation latency histogram. The fault path's counters
// live in cpuCounters instead, one shard per CPU id.
//
// Timing audit: mapHist, the range manager's wait histogram and the
// reclaim scan histogram stay fully timed — every operation reads the
// clock. They time µs-scale mapping operations, contended waits and
// scans, where one clock read is at most a few percent. Only the
// fault, a few hundred ns end to end, samples its timing (see
// FaultSampleEvery).
type statsCounters struct {
	// mapHist spans Mmap/Munmap/Mprotect/Madvise calls end to end.
	mapHist stats.LatencyHist

	pagesUnmapped  atomic.Uint64
	mmaps          atomic.Uint64
	munmaps        atomic.Uint64
	mprotects      atomic.Uint64
	madvises       atomic.Uint64
	merges         atomic.Uint64
	splits         atomic.Uint64
	stackGrowths   atomic.Uint64
	forks          atomic.Uint64
	cowReowned     atomic.Uint64
	cowCopies      atomic.Uint64
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	evictUnmaps    atomic.Uint64
	reclaimRetries atomic.Uint64

	// Transparent-huge-page counters for the collapse scanner (splits
	// and zaps are counted by the page-table tree itself — a partial
	// munmap demotes deep inside the unmap scan).
	thpCollapses     atomic.Uint64 // base-page chunks promoted to huge entries
	thpCollapseFails atomic.Uint64 // collapse attempts aborted (ineligible or no run)
}

// cpuCounters is one CPU id's shard of the fault-path counters. Every
// fault writes only its own CPU's shard, so faulting CPUs share no
// counter cache line (§4); readers sum the shards. The fields stay
// atomic because two CPU contexts may be created for one id.
type cpuCounters struct {
	// faultHist spans the whole Fault call — fast path, slow retries,
	// reclaim ladder and all. Its Count is the exact fault count; its
	// samples are the timed faults (see FaultSampleEvery).
	faultHist stats.LatencyHist

	faultsAlreadyMapped atomic.Uint64
	pagesMapped         atomic.Uint64
	cowBreaks           atomic.Uint64
	retriesMiss         atomic.Uint64
	retriesFillRace     atomic.Uint64
	retriesCow          atomic.Uint64
	thpHugeFaults       atomic.Uint64 // faults satisfied by installing a huge entry
	thpFallbacks        atomic.Uint64 // huge-eligible faults that fell back to base pages

	// The pad keeps the next shard's words off this shard's last line.
	_ [64]byte
}

func (s *cpuCounters) retry(r retryReason) {
	switch r {
	case retryMiss:
		s.retriesMiss.Add(1)
	case retryFillRace:
		s.retriesFillRace.Add(1)
	case retryCow:
		s.retriesCow.Add(1)
	}
}

// Stats is a snapshot of address-space activity, mirroring the
// accounting the paper reports: fault counts, retry-with-lock events
// (split races, fill races, hard cases), splits and merges, and mmap
// cache behaviour (§6).
type Stats struct {
	Faults              uint64 // page faults handled
	FaultsAlreadyMapped uint64 // faults that found the PTE already filled
	PagesMapped         uint64
	PagesUnmapped       uint64
	Mmaps               uint64
	Munmaps             uint64
	Mprotects           uint64
	Madvises            uint64
	Merges              uint64 // mmaps that extended an adjacent VMA
	Splits              uint64 // munmaps that split a VMA (Figure 10)
	StackGrowths        uint64
	RetriesMiss         uint64 // slow retries: lookup miss / split race
	RetriesFillRace     uint64 // slow retries: §5.2 fill race double check
	RetriesCow          uint64 // slow retries: copy-on-write hard case (§6)
	Forks               uint64
	CowBreaks           uint64 // write faults that broke copy-on-write
	CowReowned          uint64 // COW breaks resolved by re-owning (sole reference)
	CowCopies           uint64 // COW breaks that copied the page
	MmapCacheHits       uint64
	MmapCacheMisses     uint64

	// Reclaim-side counters for this address space.
	EvictUnmaps    uint64 // PTEs revoked out of this space by the eviction scan
	ReclaimRetries uint64 // faults that ran direct reclaim and retried

	// Transparent-huge-page counters: the 2MB fault path, khugepaged-
	// style collapses, and gather-driven demotions.
	THPHugeFaults    uint64 // faults satisfied by installing a huge entry
	THPFallbacks     uint64 // huge-eligible faults that fell back to base pages
	THPCollapses     uint64 // base-page chunks promoted to huge entries
	THPCollapseFails uint64 // collapse attempts aborted (ineligible or no run)
	THPSplits        uint64 // huge entries demoted to base pages in place
	THPZaps          uint64 // huge entries fully unmapped
	AnonHugePages    int64  // huge entries currently live (each maps 512 pages)

	// TLB-shootdown counters, family-wide (the gather domain is shared
	// with forks, siblings, and the reclaim scan, like the frame pool).
	TLBFlushes      uint64 // batched shootdown flushes paid (internal/tlb)
	TLBPagesFlushed uint64 // translations revoked across those flushes

	// Page-cache counters, aggregated across every file mapped in the
	// address space's family (the cache is family-shared; see
	// internal/pagecache for the full Stats, including drops, via
	// PageCacheStats).
	PageCacheHits        uint64 // file faults served by a resident page
	PageCacheMisses      uint64 // file faults that filled the cache
	PageCacheCoalesced   uint64 // faulters that waited out a concurrent fill
	PageCacheResident    int64  // pages currently cached
	PageCacheDirty       int64  // pages currently dirty
	PageCacheEvictions   uint64 // pages evicted by the reclaim scan
	PageCacheEvictAborts uint64 // eviction candidates refaulted mid-scan
	PageCacheRefaults    uint64 // fills of previously evicted pages
	PageCacheWritebacks  uint64 // dirty pages cleaned (writeback scans + pre-eviction)

	// Failure-injection and degradation counters (see internal/fail and
	// the README's failure model).
	PageCacheFillErrs         uint64 // fills failed by injected read errors
	PageCacheWritebackRetries uint64 // retryable writeback failures (pages kept dirty)
	PageCacheWritebackSticky  uint64 // sticky writeback failures (data dropped, latched)
	OOMKills                  uint64 // killer-of-last-resort invocations, family-wide
}

// Retries returns the total slow-path retries.
func (s Stats) Retries() uint64 {
	return s.RetriesMiss + s.RetriesFillRace + s.RetriesCow
}

// PagesPerFlush returns the mean shootdown batch size — how many
// revoked translations each flush covered. The per-page pre-gather
// pipeline pinned this at 1; batching pushes it toward the zap sizes.
func (s Stats) PagesPerFlush() float64 {
	if s.TLBFlushes == 0 {
		return 0
	}
	return float64(s.TLBPagesFlushed) / float64(s.TLBFlushes)
}

// Stats returns a snapshot of the address space's counters.
func (as *AddressSpace) Stats() Stats {
	pc := as.PageCacheStats()
	tl := as.fam.ms.tlb.Stats()
	hugeInstalls, hugeSplits, hugeZaps := as.tables.HugeStats()
	st := Stats{
		TLBFlushes:      tl.Flushes,
		TLBPagesFlushed: tl.PagesFlushed,

		PageCacheHits:        pc.Hits,
		PageCacheMisses:      pc.Misses,
		PageCacheCoalesced:   pc.Coalesced,
		PageCacheResident:    pc.Resident,
		PageCacheDirty:       pc.DirtyPages,
		PageCacheEvictions:   pc.Evictions,
		PageCacheEvictAborts: pc.EvictAborts,
		PageCacheRefaults:    pc.Refaults,
		PageCacheWritebacks:  pc.Writebacks,

		PageCacheFillErrs:         pc.FillErrs,
		PageCacheWritebackRetries: pc.WritebackRetries,
		PageCacheWritebackSticky:  pc.WritebackSticky,
		OOMKills:                  as.fam.oomKills.Load(),

		EvictUnmaps:    as.stats.evictUnmaps.Load(),
		ReclaimRetries: as.stats.reclaimRetries.Load(),

		THPCollapses:     as.stats.thpCollapses.Load(),
		THPCollapseFails: as.stats.thpCollapseFails.Load(),
		THPSplits:        hugeSplits,
		THPZaps:          hugeZaps,
		AnonHugePages:    int64(hugeInstalls) - int64(hugeSplits) - int64(hugeZaps),

		PagesUnmapped:   as.stats.pagesUnmapped.Load(),
		Mmaps:           as.stats.mmaps.Load(),
		Munmaps:         as.stats.munmaps.Load(),
		Mprotects:       as.stats.mprotects.Load(),
		Madvises:        as.stats.madvises.Load(),
		Merges:          as.stats.merges.Load(),
		Splits:          as.stats.splits.Load(),
		StackGrowths:    as.stats.stackGrowths.Load(),
		Forks:           as.stats.forks.Load(),
		CowReowned:      as.stats.cowReowned.Load(),
		CowCopies:       as.stats.cowCopies.Load(),
		MmapCacheHits:   as.stats.cacheHits.Load(),
		MmapCacheMisses: as.stats.cacheMisses.Load(),
	}
	for i := range as.cpuCtr {
		c := &as.cpuCtr[i]
		st.Faults += c.faultHist.Count()
		st.FaultsAlreadyMapped += c.faultsAlreadyMapped.Load()
		st.PagesMapped += c.pagesMapped.Load()
		st.CowBreaks += c.cowBreaks.Load()
		st.RetriesMiss += c.retriesMiss.Load()
		st.RetriesFillRace += c.retriesFillRace.Load()
		st.RetriesCow += c.retriesCow.Load()
		st.THPHugeFaults += c.thpHugeFaults.Load()
		st.THPFallbacks += c.thpFallbacks.Load()
	}
	return st
}

// SemStats exposes the semaphore counters for contention analysis: how
// often each lock was taken and how often acquisition had to sleep —
// the accounting behind the paper's §7.2 lock-contention breakdown.
func (as *AddressSpace) SemStats() (mmapSem, faultSem, treeSem locks.RWSemStats) {
	return as.mmapSem.Stats(), as.faultSem.Stats(), as.treeSem.Stats()
}

// RangeStats exposes the range-lock manager's counters: total range
// acquisitions, how many had to wait on a conflicting range, and the
// most range locks ever held concurrently (MaxHeld — the parallelism
// the global mmap_sem pins at 1). The counters include the fault
// path's retry-with-lock acquisitions (each locks its faulting page,
// roughly Stats().Retries() of them), not only mmap/munmap-style
// operations, so on a file-backed or COW-heavy run subtract the retry
// count before reading Acquires as mapping-operation volume. It
// returns zeros for designs that serialize mapping operations on
// mmap_sem.
func (as *AddressSpace) RangeStats() ranges.Stats {
	if as.rl == nil {
		return ranges.Stats{}
	}
	return as.rl.Stats()
}

// ReclaimStats exposes the machine-wide reclaim counters (kswapd
// cycles, direct-reclaim runs, evictions, writebacks). Family-shared,
// like the frame pool they protect.
func (as *AddressSpace) ReclaimStats() reclaim.Stats {
	return as.fam.ms.rec.Stats()
}

// LatencySnapshot gathers the machine's always-on hot-path latency
// histograms in percentile form: the tail-attribution data the
// throughput counters above cannot express.
type LatencySnapshot struct {
	// Fault spans CPU.Fault end to end (fast path through OOM ladder).
	// Its Count is exact; its percentiles come from the sampled faults
	// (1 in FaultSampleEvery, plus every slow-path fault).
	Fault stats.LatencyStats `json:"fault"`
	// MapOp spans Mmap/Munmap/Mprotect/MadviseDontNeed calls.
	MapOp stats.LatencyStats `json:"map_op"`
	// RangeWait is the contended range-lock wait (zeros for designs on
	// the global mmap_sem).
	RangeWait stats.LatencyStats `json:"range_wait"`
	// GP is the RCU grace-period latency, machine-wide.
	GP stats.LatencyStats `json:"gp"`
	// ReclaimScan is the reclaim scan duration (time under the scan
	// lock), machine-wide.
	ReclaimScan stats.LatencyStats `json:"reclaim_scan"`
}

// FaultHist returns the fault-latency histogram summed over the per-CPU
// shards: a fresh copy, for merging into a machine-level rollup.
func (as *AddressSpace) FaultHist() *stats.LatencyHist {
	h := new(stats.LatencyHist)
	for i := range as.cpuCtr {
		h.Merge(&as.cpuCtr[i].faultHist)
	}
	return h
}

// MapHist exposes the mapping-operation latency histogram.
func (as *AddressSpace) MapHist() *stats.LatencyHist { return &as.stats.mapHist }

// RangeWaitHist exposes the contended range-lock wait histogram, nil
// for designs on the global mmap_sem.
func (as *AddressSpace) RangeWaitHist() *stats.LatencyHist {
	if as.rl == nil {
		return nil
	}
	return as.rl.WaitHist()
}

// LatencySnapshot captures the latency percentile snapshot for this
// address space and its machine.
func (as *AddressSpace) LatencySnapshot() LatencySnapshot {
	l := LatencySnapshot{
		Fault: as.FaultHist().Stats(),
		MapOp: as.stats.mapHist.Stats(),
		GP:    as.dom.GPHist().Stats(),
	}
	if as.rl != nil {
		l.RangeWait = as.rl.WaitHist().Stats()
	}
	if as.fam.ms.rec != nil {
		l.ReclaimScan = as.fam.ms.rec.ScanHist().Stats()
	}
	return l
}

// StatsSnapshot is the unified observability surface: one nested,
// JSON-marshalable snapshot consolidating what used to take five
// separate calls (Stats, RangeStats, ReclaimStats, PageCachePerFile,
// fail.Snapshot). AddressSpace.Snapshot fills it for one member;
// machine.Machine rolls tenants' snapshots up with per-tenant charge
// accounts on top.
type StatsSnapshot struct {
	// Design is the configured concurrency design's name.
	Design string `json:"design"`
	// Tenant is the tenant slot on the hosting machine.
	Tenant int `json:"tenant"`
	// Space is the address space's own operation counters.
	Space Stats `json:"space"`
	// Ranges is the range-lock manager's counters (zeros for designs
	// that serialize mapping operations on mmap_sem).
	Ranges ranges.Stats `json:"ranges"`
	// Reclaim is the machine-wide reclaim ladder's counters.
	Reclaim reclaim.Stats `json:"reclaim"`
	// Latency is the always-on hot-path latency histograms, in
	// percentile form.
	Latency LatencySnapshot `json:"latency"`
	// Files is the per-file page-cache breakdown, keyed by the file's
	// stable label (name#id).
	Files map[string]pagecache.Stats `json:"files,omitempty"`
	// Account is the tenant's charge account, nil when the tenant is
	// unlimited (every vm.New space).
	Account *physmem.AccountStats `json:"account,omitempty"`
	// TenantOOMKills counts killer-of-last-resort reaps whose victim
	// was in this tenant (Space.OOMKills counts the same thing today;
	// kept distinct so the machine rollup can expose both views).
	TenantOOMKills uint64 `json:"tenant_oom_kills"`
	// Failpoints is the process-wide failure-injection registry's
	// counters (empty when no point is registered).
	Failpoints []fail.PointStats `json:"failpoints,omitempty"`
}

// Snapshot captures the unified statistics snapshot for this address
// space and its machine.
func (as *AddressSpace) Snapshot() StatsSnapshot {
	sn := StatsSnapshot{
		Design:         as.cfg.Design.String(),
		Tenant:         as.fam.tenant,
		Space:          as.Stats(),
		Ranges:         as.RangeStats(),
		Reclaim:        as.ReclaimStats(),
		Latency:        as.LatencySnapshot(),
		Files:          as.PageCachePerFile(),
		TenantOOMKills: as.fam.oomKills.Load(),
		Failpoints:     fail.Snapshot(),
	}
	if as.fam.acct != nil {
		st := as.fam.acct.Stats()
		sn.Account = &st
	}
	return sn
}
