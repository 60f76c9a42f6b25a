package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"bonsai/internal/tlb"
	"bonsai/internal/vm"
	"bonsai/internal/vma"
)

// workload is one closed-loop workload: each worker issues its next
// call only after the previous one returned. setup builds a fresh
// machine and warms it; round runs one round of worker w and touches
// only that worker's state, so workers run rounds concurrently.
type workload interface {
	setup() error
	workers() int
	expectSegv(w int) bool
	round(w int, r *recorder)
	// verify runs the quiesced-state oracles after every worker stopped.
	verify(r *recorder)
	spaces() []*vm.AddressSpace
	// shootdown is the workload's TLB-shootdown charge, shaping the tlb probe.
	shootdown() tlb.CostModel
	close() error
}

var workloads = map[string]func(seed uint64) workload{
	"anon-fault":    func(seed uint64) workload { return &anonFault{seed: seed} },
	"map-churn":     func(seed uint64) workload { return &mapChurn{seed: seed} },
	"file-pressure": func(seed uint64) workload { return &filePressure{seed: seed} },
}

const rw = vma.ProtRead | vma.ProtWrite

func newRand(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)+0x9e3779b97f4a7c15))
}

// warm runs rounds rounds of every worker; see warmUntil.
func warm(wl workload, rounds int) error {
	return warmUntil(wl, func(r *recorder) bool { return r.round >= uint32(rounds*wl.workers()) })
}

// warmUntil runs a round of every worker in turn on the calling
// goroutine until done holds, and fails if any call failed or any
// oracle mismatched. Set-up takes no host reference slices.
func warmUntil(wl workload, done func(r *recorder) bool) error {
	r := newRecorder(0, false, false, time.Now())
	r.nextRef = math.MaxInt64
	for !done(r) {
		for w := 0; w < wl.workers(); w++ {
			r.worker, r.expectSegv = uint8(w), wl.expectSegv(w)
			wl.round(w, r)
		}
	}
	if r.failed > 0 || r.mismatches > 0 {
		return fmt.Errorf("warm-up: %d failed calls %v, %d mismatches %v", r.failed, r.errs, r.mismatches, r.mismatch1)
	}
	return nil
}

// auditTHP runs AuditTHP until it passes or three attempts fail. The
// machine's background collapse scanner keeps running after the
// workers stop, and an audit that overlaps one of its collapses can
// see a half-swapped chunk; a real violation persists across attempts.
func auditTHP(as *vm.AddressSpace) error {
	var err error
	for i := 0; i < 3; i++ {
		if err = as.AuditTHP(); err == nil {
			return nil
		}
		time.Sleep(3 * vm.DefaultTHPScanInterval)
	}
	return err
}

// auditTranslations runs AuditTranslation on each address in pages.
func auditTranslations(c *vm.CPU, pages []uint64, r *recorder) {
	for _, p := range pages {
		if err := c.AuditTranslation(p); err != nil {
			r.mismatch("AuditTranslation(%#x): %v", p, err)
		}
	}
}

// ---------------------------------------------------------------------
// anon-fault: fault-dominated anonymous memory (Metis/Dedup style).
//
// One worker. A second one in the same space added no faults/s on two
// vCPUs (both ran at about 2.1 M/s): the two contended, left no vCPU to
// the machine's background goroutines, and spread 12–21 % from run to
// run where one worker spreads 5–8 % (IQR over five seeds).

var anonSizes = [...]uint64{16, 64, 256, 1024} // segment sizes, pages

const (
	anonMaxLive = 8       // live segments per worker
	anonWindow  = 1 << 36 // per-worker address window, so a freed range is reused only by its owner
	// anonWarmFaults is the set-up's warm-up, about 200 rounds. It is
	// counted in faults, not rounds: the seed draws the segment sizes,
	// so 200 rounds fault 68 Ki pages on average with a standard
	// deviation of 8 % across seeds, and set-up time followed the seed.
	anonWarmFaults = 64 << 10
)

type anonFault struct {
	seed uint64
	as   *vm.AddressSpace
	cpus []*vm.CPU
	ws   []*anonWorker
}

type anonWorker struct {
	rng    *rand.Rand
	hint   uint64
	live   []segment
	rounds int
}

type segment struct{ base, pages uint64 }

func (a *anonFault) workers() int               { return 1 }
func (a *anonFault) expectSegv(int) bool        { return false }
func (a *anonFault) spaces() []*vm.AddressSpace { return []*vm.AddressSpace{a.as} }
func (a *anonFault) shootdown() tlb.CostModel   { return tlb.CostModel{} }

func (a *anonFault) setup() error {
	as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: a.workers()})
	if err != nil {
		return err
	}
	a.as = as
	a.cpus, a.ws = nil, nil
	for w := 0; w < a.workers(); w++ {
		a.cpus = append(a.cpus, as.NewCPU(w))
		a.ws = append(a.ws, &anonWorker{rng: newRand(a.seed, w), hint: vm.UnmappedBase + uint64(w)*anonWindow})
	}
	// Fill every worker's live set and churn it many times over.
	return warmUntil(a, func(r *recorder) bool { return r.faults >= anonWarmFaults })
}

// round maps one segment, write-faults every page, write-protects half
// of one segment in eight, and munmaps a random live segment once the
// worker holds anonMaxLive of them.
func (a *anonFault) round(w int, r *recorder) {
	wk, cpu := a.ws[w], a.cpus[w]
	r.beginRound()
	defer r.endRound()
	if len(wk.live) == anonMaxLive {
		i := wk.rng.IntN(len(wk.live))
		seg := wk.live[i]
		wk.live[i] = wk.live[len(wk.live)-1]
		wk.live = wk.live[:len(wk.live)-1]
		page := seg.base + wk.rng.Uint64N(seg.pages)*vm.PageSize
		r.translate(a.as, page, true, "before munmap")
		if r.mapop(opMunmap, func() error { return a.as.Munmap(seg.base, seg.pages*vm.PageSize) }) == nil {
			r.translate(a.as, page, false, "after munmap")
		}
	}
	pages := anonSizes[wk.rng.IntN(len(anonSizes))]
	var base uint64
	if r.mapop(opMmap, func() error {
		var err error
		base, err = a.as.Mmap(wk.hint, pages*vm.PageSize, rw, 0, nil, 0)
		return err
	}) != nil {
		return
	}
	for p := uint64(0); p < pages; p++ {
		r.fault(cpu, base+p*vm.PageSize, true)
	}
	if wk.rounds%8 == 0 {
		r.mapop(opMprotect, func() error { return a.as.Mprotect(base, pages/2*vm.PageSize, vma.ProtRead) })
	}
	wk.rounds++
	wk.live = append(wk.live, segment{base, pages})
}

func (a *anonFault) verify(r *recorder) {
	for w, wk := range a.ws {
		var sample []uint64
		for _, seg := range wk.live {
			sample = append(sample, seg.base, seg.base+(seg.pages-1)*vm.PageSize,
				seg.base+wk.rng.Uint64N(seg.pages)*vm.PageSize)
		}
		auditTranslations(a.cpus[w], sample, r)
	}
	if err := auditTHP(a.as); err != nil {
		r.mismatch("AuditTHP: %v", err)
	}
}

func (a *anonFault) close() error { return a.as.Close() }

// ---------------------------------------------------------------------
// map-churn: the Fig. 18 regime — faults proceed while mapping
// operations revoke translations in the same address space.

const (
	churnArenaPages = 4096
	churnSmallVMAs  = 2000
	churnSmallPages = 2
	churnFaultBatch = 64 // faults per faulter round
)

type mapChurn struct {
	seed  uint64
	as    *vm.AddressSpace
	cpus  []*vm.CPU
	rngs  []*rand.Rand
	arena uint64
	small uint64
	cycle int // mapper rounds so far
}

func (m *mapChurn) workers() int               { return 2 }
func (m *mapChurn) expectSegv(w int) bool      { return w == 0 }
func (m *mapChurn) spaces() []*vm.AddressSpace { return []*vm.AddressSpace{m.as} }
func (m *mapChurn) shootdown() tlb.CostModel {
	return tlb.CostModel{Base: 2 * time.Microsecond, PerCore: 500 * time.Nanosecond, Cores: m.workers()}
}

func smallProt(i uint64) vma.Prot {
	if i%2 == 0 {
		return rw
	}
	return vma.ProtRead // alternating protection keeps neighbours from merging
}

func (m *mapChurn) setup() error {
	as, err := vm.New(vm.Config{
		Design: vm.PureRCU, CPUs: m.workers(),
		ShootdownBase:    m.shootdown().Base,
		ShootdownPerCore: m.shootdown().PerCore,
	})
	if err != nil {
		return err
	}
	m.as, m.cycle = as, 0
	m.cpus, m.rngs = nil, nil
	for w := 0; w < m.workers(); w++ {
		m.cpus = append(m.cpus, as.NewCPU(w))
		m.rngs = append(m.rngs, newRand(m.seed, w))
	}
	m.arena = vm.UnmappedBase
	m.small = m.arena + 4*churnArenaPages*vm.PageSize
	if _, err := as.Mmap(m.arena, churnArenaPages*vm.PageSize, rw, vma.Fixed, nil, 0); err != nil {
		return err
	}
	for i := uint64(0); i < churnSmallVMAs; i++ {
		addr := m.small + i*churnSmallPages*vm.PageSize
		if _, err := as.Mmap(addr, churnSmallPages*vm.PageSize, smallProt(i), vma.Fixed, nil, 0); err != nil {
			return err
		}
	}
	for p := uint64(0); p < churnArenaPages; p++ {
		if err := m.cpus[0].Fault(m.arena+p*vm.PageSize, true); err != nil {
			return err
		}
	}
	// Let the mapper fragment the arena into its steady state.
	return warm(m, 2000)
}

func (m *mapChurn) round(w int, r *recorder) {
	r.beginRound()
	defer r.endRound()
	rng := m.rngs[w]
	if w == 0 {
		// The faulter: uniform over the arena, one write in four.
		for i := 0; i < churnFaultBatch; i++ {
			r.fault(m.cpus[0], m.arena+rng.Uint64N(churnArenaPages)*vm.PageSize, rng.IntN(4) == 0)
		}
		return
	}
	// The mapper cycles through three operations.
	k := m.cycle
	m.cycle++
	n := 8 + rng.Uint64N(33)
	addr := m.arena + rng.Uint64N(churnArenaPages-n)*vm.PageSize
	switch k % 3 {
	case 0: // munmap and MAP_FIXED re-mmap of an arena chunk
		check := (k/3)%8 == 0
		if check {
			r.fault(m.cpus[1], addr, true)
			r.translate(m.as, addr, true, "before munmap")
		}
		if r.mapop(opMunmap, func() error { return m.as.Munmap(addr, n*vm.PageSize) }) != nil {
			return
		}
		if check {
			r.translate(m.as, addr, false, "after munmap")
		}
		r.mapop(opMmap, func() error {
			_, err := m.as.Mmap(addr, n*vm.PageSize, rw, vma.Fixed, nil, 0)
			return err
		})
	case 1: // MADV_DONTNEED of an arena chunk
		r.mapop(opMadvise, func() error { return m.as.MadviseDontNeed(addr, n*vm.PageSize) })
	case 2: // munmap and re-mmap of one small VMA
		i := rng.Uint64N(churnSmallVMAs)
		small := m.small + i*churnSmallPages*vm.PageSize
		if r.mapop(opMunmap, func() error { return m.as.Munmap(small, churnSmallPages*vm.PageSize) }) != nil {
			return
		}
		r.mapop(opMmap, func() error {
			_, err := m.as.Mmap(small, churnSmallPages*vm.PageSize, smallProt(i), vma.Fixed, nil, 0)
			return err
		})
	}
}

func (m *mapChurn) verify(r *recorder) {
	rng := m.rngs[0]
	var sample []uint64
	for i := 0; i < 256; i++ {
		sample = append(sample, m.arena+rng.Uint64N(churnArenaPages)*vm.PageSize)
	}
	auditTranslations(m.cpus[0], sample, r)
	if err := auditTHP(m.as); err != nil {
		r.mismatch("AuditTHP: %v", err)
	}
	// Every mapping operation was paired: the arena and every small
	// VMA must be mapped again, whole.
	var mapped uint64
	for _, reg := range m.as.Regions() {
		mapped += reg.End - reg.Start
	}
	if want := uint64(churnArenaPages+churnSmallVMAs*churnSmallPages) * vm.PageSize; mapped != want {
		r.mismatch("mapped %d bytes after the run, want %d", mapped, want)
	}
}

func (m *mapChurn) close() error { return m.as.Close() }

// ---------------------------------------------------------------------
// file-pressure: a shared file under memory pressure, reads and writes.
//
// One worker serves both sibling spaces, a round on each in turn: two
// workers ran no more faults/s than one (about 1.0 M/s either way) and
// left kswapd no vCPU of its own; with a CPU hog beside the benchmark
// they lost more throughput than one worker did.

const (
	fileSpaces   = 2
	filePages    = 4096
	fileFrames   = 2048
	fileHotPages = filePages / 4
	// fileHotTenths is the share of faults, in tenths, that go to the
	// hot quarter. At 8 about 1 % of faults ran direct reclaim, so p99
	// fell between the fills (~7 µs) and the direct-reclaim faults
	// (~100 µs) and swung 10–67 µs from one second to the next; at 9
	// direct reclaim stays well under 1 % and p99 measures the fills.
	fileHotTenths = 9
	fileZapEvery  = 256 // faults per round, each round ends in a zap
	fileZapPages  = 64
	fileProbeByte = 123 // in-page offset the oracle writes and reads
)

type filePressure struct {
	seed   uint64
	file   *vma.File
	sp     []*vm.AddressSpace
	bases  []uint64
	cpus   []*vm.CPU
	rngs   []*rand.Rand
	shadow [filePages]byte // expected byte at fileProbeByte of each page
	turn   int             // the space the next round runs in
}

func (f *filePressure) workers() int               { return 1 }
func (f *filePressure) expectSegv(int) bool        { return false }
func (f *filePressure) spaces() []*vm.AddressSpace { return f.sp }
func (f *filePressure) shootdown() tlb.CostModel   { return tlb.CostModel{} }

func (f *filePressure) setup() error {
	as, err := vm.New(vm.Config{Design: vm.PureRCU, CPUs: 1, Frames: fileFrames, Backing: true})
	if err != nil {
		return err
	}
	f.sp = []*vm.AddressSpace{as}
	sib, err := as.NewSibling()
	if err != nil {
		return errors.Join(err, as.Close())
	}
	f.sp = append(f.sp, sib)
	f.file = vma.NewFile("pressure.dat", f.seed)
	f.bases, f.cpus, f.rngs, f.turn = nil, nil, nil, 0
	for w, sp := range f.sp {
		base, err := sp.Mmap(0, filePages*vm.PageSize, rw, vma.Shared, f.file, 0)
		if err != nil {
			return err
		}
		f.bases = append(f.bases, base)
		f.cpus = append(f.cpus, sp.NewCPU(0))
		f.rngs = append(f.rngs, newRand(f.seed, w))
	}
	for p := range f.shadow {
		f.shadow[p] = f.file.PageByte(uint64(p) * vm.PageSize)
	}
	// Read the whole file once (twice the pool), so the pool is full
	// and reclaim is running before the workload starts.
	for p := uint64(0); p < filePages; p++ {
		if err := f.cpus[0].Fault(f.bases[0]+p*vm.PageSize, false); err != nil {
			return err
		}
	}
	if err := warm(f, 64*fileSpaces); err != nil {
		return err
	}
	if rs := as.ReclaimStats(); rs.KswapdCycles+rs.DirectRuns == 0 {
		return errors.New("file-pressure: reclaim never ran during set-up")
	}
	return nil
}

// round runs in the next space in turn: it issues fileZapEvery faults
// (90 % to the hottest quarter, one in eight a write to the space's own
// page partition), stores a fresh byte to one own page and reads another
// back against the shadow, then zaps a random 64-page window.
func (f *filePressure) round(_ int, r *recorder) {
	w := f.turn
	f.turn = (f.turn + 1) % fileSpaces
	rng, cpu, base := f.rngs[w], f.cpus[w], f.bases[w]
	own := func(p uint64) uint64 { return p&^1 | uint64(w) }
	r.beginRound()
	defer r.endRound()
	for i := 0; i < fileZapEvery; i++ {
		var p uint64
		if rng.IntN(10) < fileHotTenths {
			p = rng.Uint64N(fileHotPages)
		} else {
			p = fileHotPages + rng.Uint64N(filePages-fileHotPages)
		}
		write := rng.IntN(8) == 0
		if write {
			p = own(p)
		}
		r.fault(cpu, base+p*vm.PageSize, write)
	}

	q := own(rng.Uint64N(filePages))
	v := []byte{byte(rng.Uint32())}
	if r.call(opWriteBytes, func() error { return cpu.WriteBytes(base+q*vm.PageSize+fileProbeByte, v) }) == nil {
		f.shadow[q] = v[0]
	}
	q = own(rng.Uint64N(filePages))
	var got [1]byte
	if r.call(opReadBytes, func() error { return cpu.ReadBytes(base+q*vm.PageSize+fileProbeByte, got[:]) }) == nil &&
		got[0] != f.shadow[q] {
		r.mismatch("page %d byte %d: read %#x, want %#x", q, fileProbeByte, got[0], f.shadow[q])
	}

	lo := rng.Uint64N(filePages - fileZapPages)
	if r.mapop(opMadvise, func() error {
		return f.sp[w].MadviseDontNeed(base+lo*vm.PageSize, fileZapPages*vm.PageSize)
	}) == nil {
		r.translate(f.sp[w], base+(lo+rng.Uint64N(fileZapPages))*vm.PageSize, false, "after MADV_DONTNEED")
	}
}

func (f *filePressure) verify(r *recorder) {
	f.sp[0].QuiesceReclaim(func() {
		for i, sp := range f.sp {
			if err := sp.AuditPageCaches(); err != nil {
				r.mismatch("AuditPageCaches(space %d): %v", i, err)
			}
		}
	})
	for w, cpu := range f.cpus {
		var sample []uint64
		for i := 0; i < 256; i++ {
			sample = append(sample, f.bases[w]+f.rngs[w].Uint64N(filePages)*vm.PageSize)
		}
		auditTranslations(cpu, sample, r)
	}
	// Quiesced, the shadow is exact for every page of both partitions,
	// whether it stayed resident or went through writeback and refault.
	var got [1]byte
	for p := uint64(0); p < filePages; p++ {
		if err := f.cpus[p%fileSpaces].ReadBytes(f.bases[p%fileSpaces]+p*vm.PageSize+fileProbeByte, got[:]); err != nil {
			r.mismatch("final read of page %d: %v", p, err)
		} else if got[0] != f.shadow[p] {
			r.mismatch("final read of page %d: %#x, want %#x", p, got[0], f.shadow[p])
		}
	}
}

func (f *filePressure) close() error {
	var errs []error
	for i := len(f.sp) - 1; i >= 0; i-- {
		errs = append(errs, f.sp[i].Close())
	}
	return errors.Join(errs...)
}
