// Package workload drives the real VM system (internal/vm) with the
// memory-access patterns of the paper's three applications (§7.1) and
// its microbenchmark (§7.3). Unlike internal/sim — which reproduces the
// 80-core *performance* results on a model — these generators execute
// the actual code paths, so they validate the designs' correctness and
// provide the real-machine benchmarks in bench_test.go.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// Result summarizes one workload run.
type Result struct {
	Faults    uint64
	Mmaps     uint64
	Munmaps   uint64
	Mprotects uint64
	Madvises  uint64
	Duration  time.Duration
}

// Rate returns faults per second.
func (r Result) Rate() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Faults) / r.Duration.Seconds()
}

func (r Result) String() string {
	s := fmt.Sprintf("faults=%d mmaps=%d munmaps=%d", r.Faults, r.Mmaps, r.Munmaps)
	if r.Mprotects > 0 {
		s += fmt.Sprintf(" mprotects=%d", r.Mprotects)
	}
	if r.Madvises > 0 {
		s += fmt.Sprintf(" madvises=%d", r.Madvises)
	}
	return s + fmt.Sprintf(" in %v (%.0f faults/s)", r.Duration, r.Rate())
}

// MetisConfig shapes a Metis-like run: workers map large anonymous
// segments (Streamflow's 8 MB allocation pools) and soft-fault every
// page, with few mapping operations relative to faults.
type MetisConfig struct {
	Workers           int
	SegmentsPerWorker int
	SegmentPages      int // pages per segment (paper: 2048 = 8 MB)
}

// RunMetis executes the Metis-like workload and verifies that every
// faulted page is translated before its segment is unmapped.
func RunMetis(as *vm.AddressSpace, cfg MetisConfig) (Result, error) {
	if cfg.SegmentPages == 0 {
		cfg.SegmentPages = 256
	}
	var res Result
	var faults, mmaps, munmaps atomic.Uint64
	errCh := make(chan error, cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cpu := as.NewCPU(id)
			for seg := 0; seg < cfg.SegmentsPerWorker; seg++ {
				base, err := as.Mmap(0, uint64(cfg.SegmentPages)*vm.PageSize,
					vma.ProtRead|vma.ProtWrite, 0, nil, 0)
				if err != nil {
					errCh <- fmt.Errorf("worker %d mmap: %w", id, err)
					return
				}
				mmaps.Add(1)
				for p := 0; p < cfg.SegmentPages; p++ {
					addr := base + uint64(p)*vm.PageSize
					if err := cpu.Fault(addr, true); err != nil {
						errCh <- fmt.Errorf("worker %d fault %#x: %w", id, addr, err)
						return
					}
					faults.Add(1)
				}
				if _, ok := as.Translate(base); !ok {
					errCh <- fmt.Errorf("worker %d: segment %#x lost its mapping", id, base)
					return
				}
				if err := as.Munmap(base, uint64(cfg.SegmentPages)*vm.PageSize); err != nil {
					errCh <- fmt.Errorf("worker %d munmap: %w", id, err)
					return
				}
				munmaps.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return res, err
	}
	res = Result{Faults: faults.Load(), Mmaps: mmaps.Load(), Munmaps: munmaps.Load(),
		Duration: time.Since(start)}
	return res, nil
}

// PsearchyConfig shapes a Psearchy-like run: each worker first faults a
// large per-worker hash table, then performs many small mmap/munmap
// pairs (stdio stream buffers), faulting each buffer once.
type PsearchyConfig struct {
	Workers    int
	TablePages int // per-worker hash table size in pages
	BufferOps  int // small mmap/munmap pairs per worker
	BufferPage int // pages per buffer
}

// RunPsearchy executes the Psearchy-like workload.
func RunPsearchy(as *vm.AddressSpace, cfg PsearchyConfig) (Result, error) {
	if cfg.BufferPage == 0 {
		cfg.BufferPage = 4
	}
	var faults, mmaps, munmaps atomic.Uint64
	errCh := make(chan error, cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cpu := as.NewCPU(id)
			// Phase 1: the per-worker hash table, faulted page by page.
			table, err := as.Mmap(0, uint64(cfg.TablePages)*vm.PageSize,
				vma.ProtRead|vma.ProtWrite, 0, nil, 0)
			if err != nil {
				errCh <- err
				return
			}
			mmaps.Add(1)
			for p := 0; p < cfg.TablePages; p++ {
				if err := cpu.Fault(table+uint64(p)*vm.PageSize, true); err != nil {
					errCh <- err
					return
				}
				faults.Add(1)
			}
			// Phase 2: stream-buffer churn.
			for i := 0; i < cfg.BufferOps; i++ {
				buf, err := as.Mmap(0, uint64(cfg.BufferPage)*vm.PageSize,
					vma.ProtRead|vma.ProtWrite, 0, nil, 0)
				if err != nil {
					errCh <- err
					return
				}
				mmaps.Add(1)
				if err := cpu.Fault(buf, true); err != nil {
					errCh <- err
					return
				}
				faults.Add(1)
				if err := as.Munmap(buf, uint64(cfg.BufferPage)*vm.PageSize); err != nil {
					errCh <- err
					return
				}
				munmaps.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	return Result{Faults: faults.Load(), Mmaps: mmaps.Load(), Munmaps: munmaps.Load(),
		Duration: time.Since(start)}, nil
}

// DedupConfig shapes a Dedup-like run: a pipeline of workers that mmap
// mid-size chunks, fault them fully, and free a fraction back, as a
// deduplicating compressor's allocator does.
type DedupConfig struct {
	Workers    int
	Chunks     int // chunks per worker
	ChunkPages int
	KeepRatio  int // keep 1 of every KeepRatio chunks mapped until the end
}

// RunDedup executes the Dedup-like workload.
func RunDedup(as *vm.AddressSpace, cfg DedupConfig) (Result, error) {
	if cfg.ChunkPages == 0 {
		cfg.ChunkPages = 128
	}
	if cfg.KeepRatio == 0 {
		cfg.KeepRatio = 4
	}
	var faults, mmaps, munmaps atomic.Uint64
	errCh := make(chan error, cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cpu := as.NewCPU(id)
			var kept []uint64
			size := uint64(cfg.ChunkPages) * vm.PageSize
			for i := 0; i < cfg.Chunks; i++ {
				base, err := as.Mmap(0, size, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
				if err != nil {
					errCh <- err
					return
				}
				mmaps.Add(1)
				for p := 0; p < cfg.ChunkPages; p++ {
					if err := cpu.Fault(base+uint64(p)*vm.PageSize, true); err != nil {
						errCh <- err
						return
					}
					faults.Add(1)
				}
				if i%cfg.KeepRatio == 0 {
					kept = append(kept, base)
					continue
				}
				if err := as.Munmap(base, size); err != nil {
					errCh <- err
					return
				}
				munmaps.Add(1)
			}
			for _, base := range kept {
				if err := as.Munmap(base, size); err != nil {
					errCh <- err
					return
				}
				munmaps.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	return Result{Faults: faults.Load(), Mmaps: mmaps.Load(), Munmaps: munmaps.Load(),
		Duration: time.Since(start)}, nil
}

// DisjointConfig shapes the disjoint-arena stress: every worker owns a
// private, widely separated address range (a per-thread allocator
// arena) and churns map/fault/protect/unmap cycles on it. No two
// workers' operations ever overlap, so under range locking the mapping
// operations themselves run fully in parallel — the workload the
// global mmap_sem serializes to a single writer at a time.
type DisjointConfig struct {
	Workers    int
	ArenaPages int    // pages per arena (default 64)
	FaultPages int    // pages soft-faulted per round (default 4)
	Rounds     int    // map/fault/protect/unmap cycles per worker
	Stride     uint64 // spacing between worker arenas (default 1 GB)
}

// RunDisjointArenas executes the disjoint-arena workload. Workers
// require fault contexts: cfg.Workers must not exceed the address
// space's Config.CPUs.
func RunDisjointArenas(as *vm.AddressSpace, cfg DisjointConfig) (Result, error) {
	if cfg.ArenaPages == 0 {
		cfg.ArenaPages = 64
	}
	if cfg.FaultPages == 0 {
		cfg.FaultPages = 4
	}
	if cfg.FaultPages > cfg.ArenaPages {
		cfg.FaultPages = cfg.ArenaPages
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1 << 30
	}
	size := uint64(cfg.ArenaPages) * vm.PageSize
	if cfg.Stride < size {
		return Result{}, fmt.Errorf("workload: stride %#x smaller than arena size %#x", cfg.Stride, size)
	}
	var faults, mmaps, munmaps, mprotects atomic.Uint64
	errCh := make(chan error, cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cpu := as.NewCPU(id)
			base := vm.UnmappedBase + uint64(id+1)*cfg.Stride
			for r := 0; r < cfg.Rounds; r++ {
				if _, err := as.Mmap(base, size, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
					errCh <- fmt.Errorf("worker %d mmap: %w", id, err)
					return
				}
				mmaps.Add(1)
				for p := 0; p < cfg.FaultPages; p++ {
					if err := cpu.Fault(base+uint64(p)*vm.PageSize, true); err != nil {
						errCh <- fmt.Errorf("worker %d fault: %w", id, err)
						return
					}
					faults.Add(1)
				}
				// Write-protect the faulted prefix (splits the arena VMA
				// and revokes PTE write access), as an allocator sealing
				// a metadata header would.
				if err := as.Mprotect(base, uint64(cfg.FaultPages)*vm.PageSize, vma.ProtRead); err != nil {
					errCh <- fmt.Errorf("worker %d mprotect: %w", id, err)
					return
				}
				mprotects.Add(1)
				if err := as.Munmap(base, size); err != nil {
					errCh <- fmt.Errorf("worker %d munmap: %w", id, err)
					return
				}
				munmaps.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	return Result{Faults: faults.Load(), Mmaps: mmaps.Load(), Munmaps: munmaps.Load(),
		Mprotects: mprotects.Load(), Duration: time.Since(start)}, nil
}

// SharedFileConfig shapes the shared-file fault storm: Spaces address
// spaces — separate "processes" on one simulated machine (siblings, not
// forks) — each map the same file Shared and, with Workers goroutines
// per space, repeatedly soft-fault their chunk of its pages and zap
// them again with madvise(DONTNEED). After the first round every fault
// is a page-cache hit, so the storm measures exactly the file-fault
// fast path: in the RCU designs it takes no global lock, while the
// lock-based designs serialize each space's faults against its own
// DONTNEED zaps on mmap_sem.
type SharedFileConfig struct {
	Spaces     int    // address spaces mapping the file (≤ Config.MaxFamily)
	Workers    int    // fault goroutines per space (≤ Config.CPUs)
	ChunkPages int    // pages per worker chunk (default 64)
	Rounds     int    // fault+zap cycles per worker
	Seed       uint64 // file seed (for content verification by the caller)
	WriteEvery int    // write-fault every Nth page (0 = read-only storm)
}

// RunSharedFile executes the shared-file workload on as's machine,
// creating Spaces-1 sibling address spaces (and closing them before
// returning). Worker w in every space storms the same file chunk
// [w*ChunkPages, (w+1)*ChunkPages), so the spaces genuinely share
// frames: the same file page is mapped by all of them at once.
func RunSharedFile(as *vm.AddressSpace, cfg SharedFileConfig) (Result, error) {
	if cfg.Spaces <= 0 {
		cfg.Spaces = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ChunkPages == 0 {
		cfg.ChunkPages = 64
	}
	file := vma.NewFile("shared.dat", cfg.Seed)
	filePages := uint64(cfg.Workers * cfg.ChunkPages)

	spaces := []*vm.AddressSpace{as}
	for i := 1; i < cfg.Spaces; i++ {
		sib, err := as.NewSibling()
		if err != nil {
			return Result{}, fmt.Errorf("workload: sibling %d: %w", i, err)
		}
		defer sib.Close()
		spaces = append(spaces, sib)
	}

	// Map the file into every space before any worker starts: an Mmap
	// failure must return with no goroutine still faulting, since the
	// deferred sibling Closes tear the spaces down on the way out.
	bases := make([]uint64, len(spaces))
	for si, sp := range spaces {
		base, err := sp.Mmap(0, filePages*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
		if err != nil {
			return Result{}, fmt.Errorf("workload: space %d mmap: %w", si, err)
		}
		bases[si] = base
	}

	var faults, madvises atomic.Uint64
	errCh := make(chan error, cfg.Spaces*cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for si, sp := range spaces {
		base := bases[si]
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(si int, sp *vm.AddressSpace, base uint64, w int) {
				defer wg.Done()
				cpu := sp.NewCPU(w)
				chunk := base + uint64(w*cfg.ChunkPages)*vm.PageSize
				for r := 0; r < cfg.Rounds; r++ {
					for p := 0; p < cfg.ChunkPages; p++ {
						write := cfg.WriteEvery > 0 && p%cfg.WriteEvery == 0
						if err := cpu.Fault(chunk+uint64(p)*vm.PageSize, write); err != nil {
							errCh <- fmt.Errorf("space %d worker %d fault: %w", si, w, err)
							return
						}
						faults.Add(1)
					}
					if err := sp.MadviseDontNeed(chunk, uint64(cfg.ChunkPages)*vm.PageSize); err != nil {
						errCh <- fmt.Errorf("space %d worker %d madvise: %w", si, w, err)
						return
					}
					madvises.Add(1)
				}
			}(si, sp, base, w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	return Result{Faults: faults.Load(), Madvises: madvises.Load(), Duration: time.Since(start)}, nil
}

// MemoryPressureConfig shapes the memory-constrained storm — the
// reclaim subsystem's workload. Spaces sibling address spaces map one
// Shared file whose working set should be sized around twice the
// machine's frame pool, and every worker sweeps the whole file,
// faulting page by page (write-faulting every WriteEvery-th page so
// eviction has dirty pages to write back). The pool cannot hold the
// working set, so steady state is continuous reclaim: the clock scan
// evicts cold pages out from under the other spaces' mappings, dirty
// pages round-trip through writeback, refaults refill from the store,
// and a fault that catches the pool empty runs direct reclaim instead
// of returning out-of-memory.
type MemoryPressureConfig struct {
	Spaces     int    // sibling address spaces mapping the file (≤ Config.MaxFamily)
	Workers    int    // fault goroutines per space (≤ Config.CPUs)
	FilePages  int    // file working set in pages (default 512)
	Rounds     int    // full sweeps of the file per worker
	WriteEvery int    // write-fault every Nth page (0 = read-only storm)
	Seed       uint64 // file seed
}

// RunMemoryPressure executes the memory-pressure storm on as's
// machine, creating Spaces-1 siblings (closed before returning). Each
// worker starts its sweep at a different rotation of the file so the
// spaces' clock positions spread out. Every fault must succeed: an
// out-of-memory fault while the cache holds reclaimable pages is a
// reclaim bug, and surfaces here as a failed run.
func RunMemoryPressure(as *vm.AddressSpace, cfg MemoryPressureConfig) (Result, error) {
	if cfg.Spaces <= 0 {
		cfg.Spaces = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.FilePages == 0 {
		cfg.FilePages = 512
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	file := vma.NewFile("pressure.dat", cfg.Seed)

	spaces := []*vm.AddressSpace{as}
	for i := 1; i < cfg.Spaces; i++ {
		sib, err := as.NewSibling()
		if err != nil {
			return Result{}, fmt.Errorf("workload: sibling %d: %w", i, err)
		}
		defer sib.Close()
		spaces = append(spaces, sib)
	}
	bases := make([]uint64, len(spaces))
	for si, sp := range spaces {
		base, err := sp.Mmap(0, uint64(cfg.FilePages)*vm.PageSize, vma.ProtRead|vma.ProtWrite, vma.Shared, file, 0)
		if err != nil {
			return Result{}, fmt.Errorf("workload: space %d mmap: %w", si, err)
		}
		bases[si] = base
	}

	var faults atomic.Uint64
	errCh := make(chan error, cfg.Spaces*cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for si, sp := range spaces {
		base := bases[si]
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(si int, sp *vm.AddressSpace, base uint64, w int) {
				defer wg.Done()
				cpu := sp.NewCPU(w)
				rot := (si*cfg.Workers + w) * cfg.FilePages / (cfg.Spaces * cfg.Workers)
				for r := 0; r < cfg.Rounds; r++ {
					for i := 0; i < cfg.FilePages; i++ {
						p := (rot + i) % cfg.FilePages
						write := cfg.WriteEvery > 0 && p%cfg.WriteEvery == 0
						if err := cpu.Fault(base+uint64(p)*vm.PageSize, write); err != nil {
							errCh <- fmt.Errorf("space %d worker %d fault page %d: %w", si, w, p, err)
							return
						}
						faults.Add(1)
					}
				}
			}(si, sp, base, w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	return Result{Faults: faults.Load(), Duration: time.Since(start)}, nil
}

// MicroConfig shapes the §7.3 microbenchmark on the real VM system:
// fault workers hammer soft faults on a shared region while one mapper
// thread spends roughly MmapFraction of its time performing mmap/munmap
// pairs on a disjoint range.
type MicroConfig struct {
	FaultWorkers int
	Pages        int // pages in the fault arena
	MmapFraction float64
	Duration     time.Duration
	Seed         int64
}

// RunMicro executes the real-machine microbenchmark and returns the
// observed rates. The fault arena is unmapped and remapped in random
// chunks by the mapper, so fault workers exercise the retry paths.
func RunMicro(as *vm.AddressSpace, cfg MicroConfig) (Result, error) {
	if cfg.Pages == 0 {
		cfg.Pages = 1024
	}
	if cfg.Duration == 0 {
		cfg.Duration = 200 * time.Millisecond
	}
	arena, err := as.Mmap(0, uint64(cfg.Pages)*vm.PageSize, vma.ProtRead|vma.ProtWrite, 0, nil, 0)
	if err != nil {
		return Result{}, err
	}
	var faults, mmaps, munmaps atomic.Uint64
	stop := make(chan struct{})
	errCh := make(chan error, cfg.FaultWorkers+1)

	var wg sync.WaitGroup
	for w := 0; w < cfg.FaultWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cpu := as.NewCPU(id)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				addr := arena + uint64(rng.Intn(cfg.Pages))*vm.PageSize
				err := cpu.Fault(addr, true)
				if err != nil && !errors.Is(err, vm.ErrSegv) {
					errCh <- err
					return
				}
				faults.Add(1)
			}
		}(w)
	}
	if cfg.MmapFraction > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 7919))
			for first := true; ; first = false {
				// Always complete at least one operation so short runs
				// on loaded machines still exercise the mapper.
				if !first {
					select {
					case <-stop:
						return
					default:
					}
				}
				opStart := time.Now()
				off := uint64(rng.Intn(cfg.Pages/2)) * vm.PageSize
				n := uint64(8+rng.Intn(32)) * vm.PageSize
				if err := as.Munmap(arena+off, n); err != nil {
					errCh <- err
					return
				}
				munmaps.Add(1)
				if _, err := as.Mmap(arena+off, n, vma.ProtRead|vma.ProtWrite, vma.Fixed, nil, 0); err != nil {
					errCh <- err
					return
				}
				mmaps.Add(1)
				if cfg.MmapFraction < 1 {
					busy := time.Since(opStart)
					idle := time.Duration(float64(busy) * (1 - cfg.MmapFraction) / cfg.MmapFraction)
					select {
					case <-stop:
						return
					case <-time.After(idle):
					}
				}
			}
		}()
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return Result{}, err
	default:
	}
	return Result{Faults: faults.Load(), Mmaps: mmaps.Load(), Munmaps: munmaps.Load(),
		Duration: elapsed}, nil
}
