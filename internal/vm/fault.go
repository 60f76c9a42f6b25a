package vm

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"bonsai/internal/pagecache"
	"bonsai/internal/pagetable"
	"bonsai/internal/physmem"
	"bonsai/internal/tlb"
	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

// Fault handles a soft page fault at addr (write indicates the access
// type), installing a page-table entry so the access can proceed. It
// returns ErrSegv if no mapping covers addr and ErrAccess on a
// protection violation.
//
// A fault that loses a race with frame-pool exhaustion does not fail:
// the attempt unwinds completely (typed as ErrFrameShortage, with
// every lock released and nothing half-installed), direct reclaim
// evicts page-cache pages, and the fault retries. ErrNoMemory escapes
// only when reclaim reports nothing left to evict — no clean or
// write-backable cache page anywhere on the machine.
//
// The synchronization followed depends on the design:
//
//	RWLock    — mmap_sem read-locked for the whole fault (§4.1).
//	FaultLock — fault lock read-locked for the whole fault (§5.1).
//	Hybrid    — no semaphore; RCU + treeSem around the tree lookup (§5.2).
//	PureRCU   — no semaphore and no tree lock: BONSAI lookup (§5.3).
//
// Fault timing is sampled: the clock runs for 1 in FaultSampleEvery
// faults, plus every fault that escalates to the slow path or the
// reclaim ladder, and for every fault while the tracer is armed. The
// fault count is exact either way.
func (c *CPU) Fault(addr uint64, write bool) error {
	as := c.as
	if addr >= MaxAddress {
		return ErrSegv
	}
	page := pageDown(addr)
	c.ctr.faultHist.Tick()
	c.pathFlags = 0
	c.seq++
	sampled := faultSampled(c.seq)
	armed := trace.Armed()
	if armed {
		var w uint64
		if write {
			w = 1
		}
		trace.Emit(c.id, trace.EvFaultEnter, page, w, uint64(as.cfg.Design))
	}
	c.start = time.Time{}
	if armed || sampled {
		c.start = time.Now()
	}
	err := as.retryShortage(func() error {
		err := c.fault(page, write)
		if err != nil && (errors.Is(err, ErrFrameShortage) || errors.Is(err, ErrTenantShortage)) {
			c.escalate(trace.FaultShortageRetry)
		}
		return err
	})
	if c.start.IsZero() {
		return err // an unsampled fast fault reads no clock
	}
	elapsed := time.Since(c.start)
	flags := c.pathFlags
	switch {
	case flags&(trace.FaultSlow|trace.FaultShortageRetry) != 0:
		// Every escalated fault is timed, so it stands for itself.
		c.ctr.faultHist.RecordWeighted(elapsed, 1)
	case sampled:
		c.ctr.faultHist.RecordWeighted(elapsed, FaultSampleEvery)
	}
	if trace.Armed() {
		if flags&trace.FaultSlow == 0 {
			flags |= trace.FaultFast
		}
		if err != nil {
			flags |= trace.FaultError
		}
		trace.Emit(c.id, trace.EvFaultExit, page, flags, uint64(elapsed))
	}
	return err
}

// FaultSampleEvery is the fault-timing sample interval: one fast-path
// fault in FaultSampleEvery is timed and recorded with this weight. A
// power of two, so the sample test is a mask.
const FaultSampleEvery = 64

// faultSampled reports whether fault number seq of a CPU context is in
// the timed sample. The sequence is hashed (the splitmix64 finalizer)
// rather than taken modulo FaultSampleEvery: workloads fault in rounds
// of fixed size, and a plain modulus would time the same position of
// every round.
func faultSampled(seq uint64) bool {
	z := seq * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)&(FaultSampleEvery-1) == 0
}

// escalate marks the current fault as leaving the fast path and starts
// its clock if the fault was not already timed: the slow faults the
// tail is made of are always timed, from the escalation on.
func (c *CPU) escalate(flags uint64) {
	c.pathFlags |= flags
	if c.start.IsZero() {
		c.start = time.Now()
	}
}

// oomRetries bounds consecutive no-progress direct-reclaim attempts
// before an operation reports ErrNoMemory.
const oomRetries = 16

// shortageRetryBudget bounds how many times one operation may answer
// ErrFrameShortage with a successful direct reclaim and retry. Without
// it the retry loop is unbounded: DirectReclaim reports progress
// whenever free frames exist (a concurrent reclaimer's work counts),
// so an operation whose own allocations keep failing — competing
// faulters winning every freed frame, or an injected allocation fault
// — would spin forever instead of surfacing ErrNoMemory. The budget is
// generous: a legitimately thrashing operation needs a handful of
// retries, not sixty-four.
const shortageRetryBudget = 64

// retryShortage runs op under the VM's graceful-degradation ladder.
//
// Pool exhaustion (ErrFrameShortage):
//
//  1. direct reclaim, retry — up to shortageRetryBudget times, each
//     retry backed by a reclaim run that reported progress;
//  2. budget exhausted (or reclaim out of progress) → the machine's
//     OOM killer of last resort reaps the largest member — this
//     tenant's first, any tenant's as fallback — and the budget
//     resets, once;
//  3. nothing left → typed ErrNoMemory, with op fully unwound (its
//     contract: a shortage failure leaks nothing and holds nothing).
//
// Tenant-limit exhaustion (ErrTenantShortage) climbs the tenant-local
// rung of the same ladder first: reclaim scans restricted to this
// tenant's own pages (neighbors' pages and their accessed bits are
// untouched), then a per-tenant OOM kill confined to this tenant —
// reaping a neighbor cannot lower this tenant's charge — then
// ErrNoMemory. The machine-wide pool is never touched on this path,
// so a thrashing tenant degrades alone.
//
// Any non-shortage outcome — success, ErrSegv, I/O errors — returns
// immediately.
func (as *AddressSpace) retryShortage(op func() error) error {
	kills := 0
	for attempt := 0; ; attempt++ {
		err := op()
		tenant := errors.Is(err, ErrTenantShortage)
		if !tenant && !errors.Is(err, ErrFrameShortage) {
			return err
		}
		as.stats.reclaimRetries.Add(1)
		var tb uint64
		if tenant {
			tb = 1
		}
		if attempt < shortageRetryBudget && as.reclaimForShortageKind(tenant) {
			trace.Emit(trace.AuxCPU, trace.EvOOMKill, trace.OomDirectReclaim, tb, uint64(attempt+1))
			continue
		}
		if kills == 0 && as.oomKill(tenant) {
			kills++
			attempt = -1 // fresh budget against the reaped memory
			continue
		}
		trace.Emit(trace.AuxCPU, trace.EvOOMKill, trace.OomGiveUp, tb, uint64(attempt+1))
		if tenant {
			return fmt.Errorf("%w: tenant frame limit exhausted after %d attempts and nothing evictable in-tenant", ErrNoMemory, attempt+1)
		}
		return fmt.Errorf("%w: frame pool exhausted after %d attempts and nothing evictable", ErrNoMemory, attempt+1)
	}
}

// reclaimForShortage answers a frame-allocation failure with direct
// reclaim, absorbing transient no-progress verdicts: under thrash,
// competing faulters can consume every frame a reclaim pass freed
// before this caller retries, and a concurrent scan's evictions may
// still be crossing their grace period. A single failed scan therefore
// proves nothing; only several consecutive empty-handed scans — with
// yields in between so grace periods and competing reclaimers can move
// — mean the machine is genuinely out of reclaimable memory. With no
// page caches at all (purely anonymous workloads) every attempt is a
// cheap empty scan, so true OOM still reports quickly.
func (as *AddressSpace) reclaimForShortage() bool {
	return as.reclaimForShortageKind(false)
}

// reclaimForShortageKind is reclaimForShortage with the tenant-local
// variant: tenant == true answers a tenant-limit failure by scanning
// only this tenant's own pages (ReclaimAccount), so the tenant pays
// for its overcommit itself instead of pressuring its neighbors.
func (as *AddressSpace) reclaimForShortageKind(tenant bool) bool {
	for attempt := 0; attempt < oomRetries; attempt++ {
		if tenant {
			if as.fam.acct == nil {
				return false // no account: a tenant shortage cannot recur
			}
			if as.fam.ms.rec.ReclaimAccount(as.fam.acct, 0) > 0 {
				return true
			}
		} else if as.fam.ms.rec.DirectReclaim() {
			return true
		}
		if attempt < 4 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(attempt) * 50 * time.Microsecond)
		}
	}
	return false
}

// fault is one fault attempt under the design's synchronization.
func (c *CPU) fault(page uint64, write bool) error {
	as := c.as
	switch as.cfg.Design {
	case RWLock:
		as.mmapSem.RLock()
		err := c.faultLocked(page, write)
		as.mmapSem.RUnlock()
		if err == errRetrySlow {
			return c.faultSlow(page, write, retryMiss)
		}
		return err
	case FaultLock:
		as.faultSem.RLock()
		err := c.faultLocked(page, write)
		as.faultSem.RUnlock()
		if err == errRetrySlow {
			return c.faultSlow(page, write, retryMiss)
		}
		return err
	default:
		return c.faultRCU(page, write)
	}
}

// errRetrySlow is an internal sentinel: the fast path could not finish
// and the fault must be retried with mmap_sem held.
var errRetrySlow = &retryError{kind: "race"}

// errRetryCow marks the copy-on-write hard case: the fault must retry
// with the lock held, where the COW break is permitted (§6).
var errRetryCow = &retryError{kind: "cow"}

// retryError carries a kind so the two sentinels are distinct values
// (pointers to zero-size values may compare equal in Go).
type retryError struct{ kind string }

func (e *retryError) Error() string { return "vm: fault must retry with mmap_sem (" + e.kind + ")" }

// retryReason classifies slow-path retries for the statistics the paper
// reports in §6–7.
type retryReason int

const (
	retryMiss     retryReason = iota // no VMA found (miss, split race, or stack growth)
	retryFillRace                    // §5.2 page-table fill race detected
	retryCow                         // copy-on-write hard case (§6)
)

// faultLocked is the fault fast path for the lock-based designs: the
// caller holds a read lock that excludes all mapping-operation
// mutations, so no recheck is needed.
func (c *CPU) faultLocked(page uint64, write bool) error {
	as := c.as
	v := as.lookupCached(page)
	if v == nil {
		return errRetrySlow // segfault or stack growth: needs write lock
	}
	if err := checkProt(v, write); err != nil {
		return err
	}
	return c.fillPage(v, page, write, nil, true)
}

// faultRCU is the fault fast path for the Hybrid and PureRCU designs
// (§5.2–5.3). It runs inside an RCU read-side critical section, takes
// no semaphore, and revalidates the VMA under the PTE lock before
// filling (the fill-race double check). Any anomaly falls back to
// faultSlow, which retries with mmap_sem held to guarantee progress.
func (c *CPU) faultRCU(page uint64, write bool) error {
	as := c.as
	c.rd.Lock()

	v := as.lookupRCU(page)
	if v == nil || !v.Contains(page) {
		// Miss: a real segfault, a stack region to grow, or the
		// transient window of a VMA split (Figure 10).
		c.rd.Unlock()
		return c.faultSlow(page, write, retryMiss)
	}
	if err := checkProt(v, write); err != nil {
		c.rd.Unlock()
		return err
	}
	// File-backed faults no longer bail to the slow path (the paper's §6
	// hard case): they resolve through the file's page cache, whose
	// lookup is itself a lock-free RCU read — see makeFilePTE. Only the
	// copy-on-write upgrade still retries with the lock held.

	// Revalidate under the PTE lock: "the page fault handler
	// double-checks that the VMA has not been marked as deleted and
	// that the faulting address still falls within the VMA's bounds"
	// (§5.2).
	err := c.fillPage(v, page, write, func() bool { return v.Contains(page) }, false)
	c.rd.Unlock()
	switch err {
	case errRetrySlow:
		return c.faultSlow(page, write, retryFillRace)
	case errRetryCow:
		return c.faultSlow(page, write, retryCow)
	}
	return err
}

// faultSlow retries the fault with mmap_sem held (§5.2: "we detect
// inconsistencies and restart the page fault handler, this time with
// the mmap_sem held to ensure progress"). Misses escalate to the write
// lock to handle stack growth. In the range-locked designs mapping
// operations no longer hold mmap_sem, so the retry locks the faulting
// page's range instead.
func (c *CPU) faultSlow(page uint64, write bool, reason retryReason) error {
	as := c.as
	c.ctr.retry(reason)
	flags := trace.FaultSlow
	if reason == retryCow {
		flags |= trace.FaultCOW
	}
	c.escalate(flags)
	if as.rl != nil {
		return c.faultSlowRanged(page, write)
	}

	as.mmapSem.RLock()
	v := as.idx.floorLocked(page)
	if v != nil && v.Contains(page) {
		if err := checkProt(v, write); err != nil {
			as.mmapSem.RUnlock()
			return err
		}
		// Mapping operations hold mmap_sem in write mode in every
		// design, so no recheck is needed here; concurrent RCU faults
		// are handled by the present-PTE check under the PTE lock.
		err := c.fillPage(v, page, write, nil, true)
		as.mmapSem.RUnlock()
		return err
	}
	as.mmapSem.RUnlock()

	// Still unmapped: grow a stack region or fail. Stack growth mutates
	// the region tree, which requires the write lock (and the fault
	// lock's mutation phase in the FaultLock design).
	as.mmapSem.Lock()
	defer as.mmapSem.Unlock()
	v = as.idx.floorLocked(page)
	if v == nil || !v.Contains(page) {
		grown, err := as.growStackLocked(page)
		if err != nil {
			return err
		}
		v = grown
	}
	if err := checkProt(v, write); err != nil {
		return err
	}
	return c.fillPage(v, page, write, nil, true)
}

// faultSlowRanged is the retry-with-lock path under range locking: it
// locks the faulting page's own range, which excludes every mapping
// operation that could touch the VMA containing the page — by the
// lockCovering invariant, an operation mutating that VMA (trimming,
// splitting, deleting, or replacing it) must hold a range covering the
// VMA's entire extent, which contains this page and therefore
// conflicts. Operations on VMAs not containing the page proceed
// concurrently. The page's mapping — its existence, protection, and
// file offset — is thus pinned while the lock is held, so the fill
// needs no recheck, exactly like the mmap_sem retry path.
//
// Note the trade against the global designs' retry: mmap_sem.RLock is
// shared, while page-range locks are exclusive and serialize briefly
// on the manager's mutex. Retries for distinct pages still never wait
// on each other (their ranges are disjoint), so this only matters for
// the hard cases the paper also sends through the slow path —
// file-backed and COW faults — whose cost is dominated by the fill
// itself, not the manager.
func (c *CPU) faultSlowRanged(page uint64, write bool) error {
	as := c.as
	g := as.rl.Lock(page, page+PageSize)
	if v := as.idx.floorLocked(page); v != nil && v.Contains(page) {
		err := checkProt(v, write)
		if err == nil {
			err = c.fillPage(v, page, write, nil, true)
		}
		g.Unlock()
		return err
	}
	g.Unlock()

	// Still unmapped: grow a stack region or fail. Stack growth
	// re-indexes a neighboring VMA, so it escalates to the whole-space
	// lock — the analogue of the global designs' mmap_sem write mode.
	mg := as.lockAll()
	defer mg.unlock()
	v := as.idx.floorLocked(page)
	if v == nil || !v.Contains(page) {
		grown, err := as.growStackLocked(page)
		if err != nil {
			return err
		}
		v = grown
	}
	if err := checkProt(v, write); err != nil {
		return err
	}
	return c.fillPage(v, page, write, nil, true)
}

// growStackLocked grows a Stack VMA downward to cover page (§6 handles
// Linux's stack guard machinery with the same retry-with-locking
// mechanism; here growth itself runs under the write lock). The tree is
// keyed by start, so growth re-indexes the VMA: remove, adjust, insert.
// Lock-free readers can transiently miss it and retry — by the time
// they reacquire mmap_sem the VMA is back.
func (as *AddressSpace) growStackLocked(page uint64) (*vma.VMA, error) {
	v := as.idx.ceilingLocked(page)
	if v == nil || v.Flags()&vma.Stack == 0 || v.Deleted() {
		return nil, ErrSegv
	}
	if v.Start()-page > as.cfg.MaxStackGrowth {
		return nil, ErrSegv
	}
	// Keep one guard page between the stack and the mapping below.
	if below := as.idx.floorLocked(page); below != nil && below.End() > page-PageSize {
		return nil, ErrSegv
	}
	as.beginMutate()
	defer as.endMutate()
	as.idx.remove(v.Start())
	v.SetStart(page)
	as.idx.insert(v)
	as.mmapCache.Store(nil)
	as.stats.stackGrowths.Add(1)
	return v, nil
}

// checkProt validates the access type against the mapping protection.
func checkProt(v *vma.VMA, write bool) error {
	if write {
		if v.Prot()&vma.ProtWrite == 0 {
			return ErrAccess
		}
	} else if v.Prot()&vma.ProtRead == 0 {
		return ErrAccess
	}
	return nil
}

// fillPage installs or upgrades the PTE for page under the PTE lock,
// allocating a frame (anonymous) or resolving the file's page cache
// (file-backed) if the entry is empty, and breaking copy-on-write when
// a write hits a COW page. recheck, when non-nil, is the §5.2 double
// check run under the PTE lock. locked says whether the caller holds a
// lock excluding mapping operations (mmap_sem/faultSem in read mode, or
// a range lock on the page); it selects whether COW breaks happen here
// or force a retry-with-lock (the RCU fast path, per §6: "for ...
// copy-on-write faults, the implementation retries the page fault with
// the lock held"), and whether the file-cache interaction must open its
// own RCU read section (the unlocked caller, faultRCU, already holds
// one). On a detected race fillPage returns errRetrySlow.
func (c *CPU) fillPage(v *vma.VMA, page uint64, write bool, recheck func() bool, locked bool) error {
	as := c.as
	// Huge-first policy: a huge entry may already translate the page (a
	// prior 2 MB fault or a background collapse), or an eligible first
	// touch may install one. Both paths work identically under all four
	// §5 designs — the huge install runs its own §5.2 double check under
	// the page-directory lock, the analogue of the PTE-lock recheck.
	if !as.cfg.NoTHP {
		if h, ok := as.tables.WalkHuge(page); ok {
			return c.hugeHit(h, page, write, recheck)
		}
		if hugeEligible(v, page) {
			done, err := c.hugeFault(v, page, recheck)
			if done || err != nil {
				return err
			}
			// Fall through: base pages (no run free, or a racing fault).
		}
	}
	pt, err := as.tables.EnsureTable(c.id, page)
	if err != nil {
		if errors.Is(err, pagetable.ErrHugeMapped) {
			// A racing fault promoted the span between the walk above
			// and here; retry to take the huge-hit path.
			return errRetrySlow
		}
		return oomError(err)
	}
	// A COW break revokes the old shared translation; it batches into a
	// gather created lazily (the common fault installs or upgrades in
	// place and never needs one) and flushed after the PTE lock is
	// released — the one-page batch still buys the deferred, post-flush
	// frame release the pipeline's invariant requires.
	var g *tlb.Gather
	makeCopy := func(old uint64) (uint64, error) {
		if g == nil {
			g = as.fam.ms.tlb.Gather(c.id)
		}
		return c.cowBreak(g, page, old)
	}
	if !locked {
		makeCopy = nil
	}
	// A write upgrade on a shared file page is not a COW break — it is
	// the dirty-tracking transition (shared file pages install
	// read-only on read faults so the first store is observable; see
	// makeFilePTE). The dirty mark must land inside the PTE-lock
	// critical section that makes the PTE writable: once any CPU can
	// observe a writable PTE and store through it, eviction's writeback
	// must already consider the page dirty.
	var onUpgrade func(old uint64)
	sharedFile := v.File() != nil && v.Flags()&vma.Shared != 0
	if sharedFile {
		if pc := v.File().PageCache(); pc != nil {
			onUpgrade = func(old uint64) {
				if pg := pc.Lookup(v.FileOffset(page)); pg != nil && pg.Frame() == pagetable.PTEFrame(old) {
					pg.MarkDirty()
				}
			}
		}
	}
	res, err := as.tables.FillOrUpgrade(page, pt, write, recheck, func() (uint64, error) {
		if f := v.File(); f != nil {
			if pc := f.PageCache(); pc != nil {
				return c.makeFilePTE(v, pc, page, write, locked)
			}
		}
		frame, err := as.alloc.Alloc(c.id)
		if err != nil {
			return 0, err
		}
		// Fresh anonymous pages install with the software accessed bit:
		// the faulting touch is the first heat sample the collapse
		// scanner's clock observes.
		return pagetable.MakePTE(frame, v.Prot()&vma.ProtWrite != 0) | pagetable.PTEAccessed, nil
	}, makeCopy, onUpgrade)
	if g != nil {
		// The COW break ran (even if FillOrUpgrade then failed): pay its
		// shootdown now, outside the PTE lock, inside the fault's
		// mapping exclusion.
		g.Flush()
	}
	if err != nil {
		return oomError(err)
	}
	switch res {
	case pagetable.FillRecheckFailed:
		return errRetrySlow // fill race detected by the double check
	case pagetable.FillNeedsUpgrade:
		return errRetryCow // COW hard case: service with the lock held
	case pagetable.FillInstalled:
		c.ctr.pagesMapped.Add(1)
	case pagetable.FillUpgraded:
		// Only non-shared upgrades count toward CowBreaks (the shared
		// dirty transition was handled under the PTE lock by onUpgrade).
		if !sharedFile {
			c.ctr.cowBreaks.Add(1)
			c.pathFlags |= trace.FaultCOW
		}
	default:
		c.ctr.faultsAlreadyMapped.Add(1) // a concurrent fault won
	}
	return nil
}

// makeFilePTE builds the PTE for an empty entry of a file-backed
// mapping by resolving the file's page cache. It runs under the PTE
// lock, invoked by FillOrUpgrade's makeFrame. The cases:
//
//   - Shared: the cache frame itself is mapped, so every address space
//     mapping the file sees the same memory. The PTE is writable only
//     when the faulting access is a write (read faults install
//     read-only so the first store faults again and marks the page
//     dirty via the upgrade path).
//   - Private, read fault: the cache frame is mapped read-only with the
//     COW mark; the first store breaks COW through the usual cowBreak,
//     copying the page into a private frame.
//   - Private, write fault: COW is broken up front — a private frame is
//     allocated and the cached contents copied, with no intermediate
//     shared mapping.
//
// Mapped cache frames carry one physmem reference per PTE, taken here
// before the deleted-mark double check: the caller is inside an RCU
// read-side critical section (entered below when the caller holds a
// lock instead), so a concurrent Drop cannot release the cache's own
// reference — deferred past a grace period — before the check decides
// whether this reference was taken in time. The double check is
// AddMapping, which also records the PTE in the page's reverse map
// (the eviction scan's unmap list) atomically with the deleted check,
// closing the window where an eviction could miss a just-installed
// mapping. A page dropped or evicted under us is simply retried; the
// next FindOrCreate fills a fresh page.
func (c *CPU) makeFilePTE(v *vma.VMA, pc *pagecache.Cache, page uint64, write, locked bool) (uint64, error) {
	as := c.as
	c.pathFlags |= trace.FaultFileFill
	off := v.FileOffset(page)
	if locked {
		// The lock-held fault paths are not RCU readers; the cache's
		// lookup/ref protocol requires a read section, so open one.
		c.rd.Lock()
		defer c.rd.Unlock()
	}
	for {
		pg, err := pc.FindOrCreate(c.id, off, func(frame physmem.Frame) {
			if !as.cfg.Backing {
				return
			}
			b := v.File().PageByte(off)
			data := as.alloc.Data(frame)
			for i := range data {
				data[i] = b
			}
		})
		if err != nil {
			return 0, err
		}
		shared := v.Flags()&vma.Shared != 0
		if !shared && write {
			// Private write fault: map a private copy of the cached
			// page. The RCU read section keeps pg's frame alive for the
			// copy even if the page is dropped concurrently.
			frame, err := as.alloc.Alloc(c.id)
			if err != nil {
				return 0, err
			}
			if as.cfg.Backing {
				*as.alloc.Data(frame) = *as.alloc.Data(pg.Frame())
			}
			return pagetable.MakePTE(frame, true), nil
		}
		// Map the cache frame: take the mapping reference, then run the
		// deleted-mark double check (the §5.2 shape, at the file layer)
		// while registering the reverse mapping.
		as.alloc.Ref(pg.Frame())
		if !pg.AddMapping(as, page) {
			as.alloc.FreeRemote(pg.Frame()) // dropped or evicted under us; undo and retry
			continue
		}
		if shared {
			if write {
				pg.MarkDirty()
			}
			return pagetable.MakePTE(pg.Frame(), write), nil
		}
		return pagetable.MakeCowPTE(pg.Frame()), nil
	}
}

// Translate performs a lock-free page-table walk and returns the
// physical address mapping addr, if present. Callers that may race
// with munmap should hold an RCU read section via TranslateRCU.
func (as *AddressSpace) Translate(addr uint64) (uint64, bool) {
	if addr >= MaxAddress {
		return 0, false
	}
	pte, ok := as.tables.Walk(pageDown(addr))
	if !ok {
		return 0, false
	}
	return uint64(pagetable.PTEFrame(pte))<<12 | (addr & (PageSize - 1)), true
}

// lookupRCU is the RCU fault path's VMA lookup: the design's tree read
// (lock-free for PureRCU, treeSem-protected for Hybrid), optionally
// going through the mmap cache when the §6 ablation forces it on —
// every fault then writes the shared cache line, which is exactly the
// coherence cost the paper measured before disabling it.
func (as *AddressSpace) lookupRCU(page uint64) *vma.VMA {
	if as.mmapCacheOn {
		if v := as.mmapCache.Load(); v != nil && v.Contains(page) {
			as.stats.cacheHits.Add(1)
			return v
		}
	}
	v := as.idx.floorRead(page)
	if as.mmapCacheOn && v != nil && v.Contains(page) {
		as.stats.cacheMisses.Add(1)
		as.mmapCache.Store(v)
	}
	return v
}

// lookupCached looks up the VMA containing page through the mmap cache
// (§6) when enabled, falling back to the tree.
func (as *AddressSpace) lookupCached(page uint64) *vma.VMA {
	if as.mmapCacheOn {
		if v := as.mmapCache.Load(); v != nil && v.Contains(page) {
			as.stats.cacheHits.Add(1)
			return v
		}
	}
	v := as.idx.floorLocked(page)
	if v == nil || !v.Contains(page) {
		return nil
	}
	if as.mmapCacheOn {
		as.stats.cacheMisses.Add(1)
		as.mmapCache.Store(v)
	}
	return v
}
