package main

import (
	"slices"
	"time"

	"bonsai/internal/core"
	"bonsai/internal/pagecache"
	"bonsai/internal/physmem"
	"bonsai/internal/ranges"
	"bonsai/internal/rcu"
	"bonsai/internal/stats"
	"bonsai/internal/tlb"
	"bonsai/internal/trace"
	"bonsai/internal/vm"
)

// probeShape is what the traced run learned about the workload, so each
// layer probe is shaped like the calls the workload makes.
type probeShape struct {
	regions       []uint64 // region start addresses at the end of the traced phase
	faultAddrs    []uint64 // recent fault addresses of the traced phase
	pagesPerFlush int
	shootdown     tlb.CostModel
	seed          uint64
}

var sink uint64

// timeLoop times n calls of fn in five batches and returns the median
// nanoseconds per call (including the call through fn itself, a
// nanosecond or two).
func timeLoop(n int, fn func(i int)) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	slices.Sort(per)
	return per[2]
}

// runProbes times one call into each layer's public function, alone on
// a quiesced machine, and adds the probe metrics.
func runProbes(m *metrics, sh probeShape) {
	const n = 1 << 16
	rng := newRand(sh.seed, 99)

	m.add("clock.now_ns", timeLoop(n, func(int) { sink += uint64(time.Now().UnixNano()) }), "ns")

	var h stats.LatencyHist
	m.add("stats.record_ns", timeLoop(n, func(i int) { h.Record(time.Duration(i & 4095)) }), "ns")

	m.add("trace.emit_disarmed_ns", timeLoop(n, func(i int) {
		trace.Emit(0, trace.EvFaultEnter, uint64(i), 0, 0)
	}), "ns")

	// core: Floor (the fault path's lookup) on a tree holding the
	// workload's region starts, probed at its recent fault addresses.
	t := core.New[int]()
	for i, k := range sh.regions {
		t.Insert(k, i)
	}
	addrs := sh.faultAddrs
	if len(addrs) == 0 {
		addrs = []uint64{vm.UnmappedBase}
	}
	m.add("core.lookup_ns", timeLoop(n, func(i int) {
		k, _, _ := t.Floor(addrs[i%len(addrs)])
		sink += k
	}), "ns")

	dom := rcu.NewDomain(rcu.Options{})
	defer dom.Close()
	rd := dom.Register()
	m.add("rcu.read_lock_unlock_ns", timeLoop(n, func(int) { rd.Lock(); rd.Unlock() }), "ns")

	// ranges: an uncontended lock of map-churn's mean chunk (24 pages).
	var rl ranges.Manager
	const span = 24 * vm.PageSize
	m.add("ranges.lock_unlock_ns", timeLoop(n, func(i int) {
		rl.Lock(uint64(i)*span, uint64(i+1)*span).Unlock()
	}), "ns")

	alloc := physmem.New(physmem.Config{Frames: 1 << 16, CPUs: 1})
	m.add("physmem.alloc_free_ns", timeLoop(n, func(int) {
		f, err := alloc.Alloc(0)
		if err != nil {
			panic(err) // a fresh 64Ki-frame pool cannot run out one frame at a time
		}
		alloc.Free(0, f)
	}), "ns")
	m.add("physmem.alloc_run9_ns", timeLoop(n/16, func(int) {
		f, err := alloc.AllocRun(0, 9)
		if err != nil {
			panic(err)
		}
		alloc.FreeRun(f, 9)
	}), "ns")

	m.add("tlb.gather_flush_ns", probeGather(alloc, dom, sh), "ns")

	// pagecache: a lock-free hit on a resident quarter of a file, the
	// file-pressure hot set.
	pcAlloc := physmem.New(physmem.Config{Frames: 4096, CPUs: 1})
	pc := pagecache.New(1, "probe", pcAlloc, dom, pagecache.NewRegistry(pcAlloc.NumFrames()))
	rd.Lock()
	for p := uint64(0); p < fileHotPages; p++ {
		if _, err := pc.FindOrCreate(0, p*vm.PageSize, func(physmem.Frame) {}); err != nil {
			panic(err) // 1024 fills into a 4096-frame pool
		}
	}
	offs := make([]uint64, 4096)
	for i := range offs {
		offs[i] = rng.Uint64N(fileHotPages) * vm.PageSize
	}
	m.add("pagecache.hit_ns", timeLoop(n, func(i int) {
		if pc.Lookup(offs[i&4095]) == nil {
			panic("pagecache probe: resident page missed")
		}
	}), "ns")
	rd.Unlock()
	pc.DropAll()
}

// probeGather times one gather of the workload's batch size: a Page
// call per revoked translation and the Flush, which pays the
// workload's shootdown charge and queues the batched release.
func probeGather(alloc *physmem.Allocator, dom *rcu.Domain, sh probeShape) float64 {
	pages := min(max(sh.pagesPerFlush, 1), 4096)
	td := tlb.NewDomain(alloc, dom, sh.shootdown)
	iters := max(8, (1<<14)/pages)
	var per []float64
	for b := 0; b < 5; b++ {
		frames := make([]physmem.Frame, 0, iters*pages)
		for range iters * pages {
			f, err := alloc.Alloc(0)
			if err != nil {
				panic(err) // at most 32Ki frames of a 64Ki pool, released below
			}
			frames = append(frames, f)
		}
		g := td.Gather(0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			for j, f := range frames[i*pages : (i+1)*pages] {
				g.Page(uint64(j)*vm.PageSize, f)
			}
			g.Flush()
		}
		per = append(per, float64(time.Since(t0))/float64(iters))
		dom.Flush() // run the batched releases before the next batch
	}
	slices.Sort(per)
	return per[2]
}

// faultBudget sets the traced fault's median against the sum of the
// probes on the fault path. The fault path reads the clock twice and
// emits two disarmed trace checks around the lookup (core) inside an
// RCU read section, records one histogram sample, and allocates
// allocs_per_fault frames and hits the page cache hits_per_fault
// times. The benchmark's own span adds one clock read to the median.
// It reads the probe, vm and layer metrics already in m.
func faultBudget(m *metrics) {
	v := m.vals
	sum := v["core.lookup_ns"].Value +
		v["rcu.read_lock_unlock_ns"].Value +
		2*v["clock.now_ns"].Value +
		2*v["trace.emit_disarmed_ns"].Value +
		v["stats.record_ns"].Value +
		v["physmem.allocs_per_fault"].Value*v["physmem.alloc_free_ns"].Value +
		v["pagecache.hits_per_fault"].Value*v["pagecache.hit_ns"].Value
	m.add("budget.probe_sum_ns", sum, "ns")
	m.add("budget.gap_ns", v["vm.Fault.p50_ns"].Value-v["clock.now_ns"].Value-sum, "ns")
}
