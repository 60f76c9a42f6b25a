package main

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"bonsai/internal/vm"
)

// op names one kind of call into the vm package's public API, plus the
// worker round that parents those calls in a traced run.
type op uint8

const (
	opFault op = iota
	opMmap
	opMunmap
	opMprotect
	opMadvise
	opReadBytes
	opWriteBytes
	opTranslate
	opRound
	numOps
)

var opNames = [numOps]string{
	"Fault", "Mmap", "Munmap", "Mprotect", "MadviseDontNeed",
	"ReadBytes", "WriteBytes", "Translate", "round",
}

// sampleRate is the untraced run's fault sample: fault number n (per
// worker, counted from 0) is timed when sampled(n), a fixed one-in-64
// sample chosen by op index. The index is hashed first, because the
// workloads issue faults in rounds whose sizes are multiples of 16: a
// plain n%64 would keep sampling the same page offsets (a segment's
// first page, which pays the page-table and huge-page allocations).
const sampleRate = 64

func sampled(n uint64) bool { return (n*0x9e3779b97f4a7c15)>>58 == 0 }

// spanCap bounds the spans one worker keeps in memory in a traced run.
// Calls past it are still timed into the histograms; only their spans
// are dropped (and counted).
const spanCap = 1 << 18

// addrRing is the number of recent fault addresses a traced worker
// keeps for the core lookup probe (a power of two).
const addrRing = 4096

// span is one timed call (or round) of a traced run. Times are
// nanoseconds since the phase's epoch; a call's parent is its worker's
// round, identified by (worker, round).
type span struct {
	start, end int64
	round      uint32
	op         op
	worker     uint8
}

// recorder is one worker's measurement state. It is owned by the
// worker goroutine and read by the driver only after the worker ends.
type recorder struct {
	worker     uint8
	traced     bool
	expectSegv bool // ErrSegv from Fault is an expected outcome (map-churn's faulter)
	epoch      time.Time

	// Outcome counts. faults and mapops count completed calls
	// (success, or an expected ErrSegv); failed counts unexpected
	// errors of any call.
	nfault    uint64 // Fault calls issued, the sampling index
	faults    uint64
	segv      uint64
	mapops    uint64
	attempted uint64
	failed    uint64
	errs      []string // first few unexpected errors

	// Oracle mismatches: any one fails the run.
	mismatches uint64
	mismatch1  []string

	// Untraced timing: the sampled faults and every mapping op, into
	// one pair of histograms per window (wins[k] between marks k and
	// k+1), so the memory they take does not grow with throughput.
	cur          *latHists
	wins         []*latHists
	faultSamples uint64

	// Window marks: the counts at the first round end past each
	// window boundary.
	marks   []mark
	nextWin int64

	// Host reference slices, one per refEvery (hostref.go).
	refs    []int64
	refX    uint64
	nextRef int64

	// Traced timing: every call, as histograms and spans.
	hist       [numOps]hist
	busy       [numOps]int64
	spans      []span
	dropped    uint64
	round      uint32
	roundStart int64
	addrs      [addrRing]uint64
}

func newRecorder(worker int, traced, expectSegv bool, epoch time.Time) *recorder {
	r := &recorder{worker: uint8(worker), traced: traced, expectSegv: expectSegv, epoch: epoch,
		marks: []mark{{}}, nextWin: int64(window), cur: new(latHists)}
	if traced {
		r.spans = make([]span, 0, spanCap)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// record files one traced call.
func (r *recorder) record(o op, start, end int64) {
	r.hist[o].add(uint64(end - start))
	r.busy[o] += end - start
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{start: start, end: end, round: r.round, op: o, worker: r.worker})
	} else {
		r.dropped++
	}
}

// beginRound and endRound bracket one worker round, the parent span of
// the calls issued inside it.
func (r *recorder) beginRound() {
	if r.traced {
		r.roundStart = r.now()
	}
}

func (r *recorder) endRound() {
	t := r.now()
	if r.traced {
		r.record(opRound, r.roundStart, t)
	}
	r.round++
	if t >= r.nextRef {
		r.refs = append(r.refs, refSlice(&r.refX))
		r.nextRef = t + int64(refEvery)
	}
	if t >= r.nextWin {
		r.closeWindow(t)
		for r.nextWin <= t {
			r.nextWin += int64(window)
		}
	}
}

// fault issues one CPU.Fault. An untraced run times only the sampled
// faults; a traced run times every one.
func (r *recorder) fault(c *vm.CPU, addr uint64, write bool) {
	r.attempted++
	n := r.nfault
	r.nfault++
	var err error
	switch {
	case r.traced:
		r.addrs[n&(addrRing-1)] = addr
		t0 := r.now()
		err = c.Fault(addr, write)
		r.record(opFault, t0, r.now())
	case sampled(n):
		t0 := time.Now()
		err = c.Fault(addr, write)
		r.cur.fault.add(uint64(time.Since(t0)))
		r.faultSamples++
	default:
		err = c.Fault(addr, write)
	}
	switch {
	case err == nil:
		r.faults++
	case r.expectSegv && errors.Is(err, vm.ErrSegv):
		r.faults++
		r.segv++
	default:
		r.fail(opFault, err)
	}
}

// mapop issues one mapping operation (Mmap, Munmap, Mprotect or
// MadviseDontNeed), timed in every run: each costs microseconds.
func (r *recorder) mapop(o op, call func() error) error {
	r.attempted++
	var err error
	if r.traced {
		t0 := r.now()
		err = call()
		r.record(o, t0, r.now())
	} else {
		t0 := time.Now()
		err = call()
		r.cur.mapop.add(uint64(time.Since(t0)))
	}
	if err != nil {
		r.fail(o, err)
		return err
	}
	r.mapops++
	return nil
}

// call issues one oracle call (Translate, ReadBytes, WriteBytes):
// untimed unless the run is traced, and counted in neither faults nor
// mapops.
func (r *recorder) call(o op, fn func() error) error {
	r.attempted++
	var err error
	if r.traced {
		t0 := r.now()
		err = fn()
		r.record(o, t0, r.now())
	} else {
		err = fn()
	}
	if err != nil {
		r.fail(o, err)
	}
	return err
}

// translate checks that addr is (or is not) translated right now.
func (r *recorder) translate(as *vm.AddressSpace, addr uint64, want bool, when string) {
	var got bool
	r.call(opTranslate, func() error {
		_, got = as.Translate(addr)
		return nil
	})
	if got != want {
		r.mismatch("Translate(%#x) %s: present=%v, want %v", addr, when, got, want)
	}
}

func (r *recorder) fail(o op, err error) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, fmt.Sprintf("worker %d %s: %v", r.worker, opNames[o], err))
	}
}

func (r *recorder) mismatch(format string, args ...any) {
	r.mismatches++
	if len(r.mismatch1) < 4 {
		r.mismatch1 = append(r.mismatch1, fmt.Sprintf("worker %d: ", r.worker)+fmt.Sprintf(format, args...))
	}
}

// hist is a log-linear latency histogram: exact below 1024 ns, then 64
// buckets per power of two up to 2^32 ns (under 1.6 % relative error).
type hist struct {
	n     uint64
	count [histBuckets]uint32
}

const (
	histExact   = 1024
	histSubBits = 6
	histBuckets = histExact + (32-10)<<histSubBits
)

func histBucket(v uint64) int {
	if v < histExact {
		return int(v)
	}
	e := bits.Len64(v) // ≥ 11
	if e > 32 {
		return histBuckets - 1
	}
	return histExact + (e-11)<<histSubBits + int(v>>(e-1-histSubBits))&(1<<histSubBits-1)
}

// histRange is bucket i's lower bound and width.
func histRange(i int) (lo, width float64) {
	if i < histExact {
		return float64(i), 1
	}
	e := (i-histExact)>>histSubBits + 11
	sub := (i - histExact) & (1<<histSubBits - 1)
	w := uint64(1) << (e - 1 - histSubBits)
	return float64(uint64(1)<<(e-1) + uint64(sub)*w), float64(w)
}

func (h *hist) add(v uint64) {
	h.count[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.count {
		h.count[i] += c
	}
	h.n += o.n
}

// quantile returns the value at quantile q (0 < q ≤ 1), interpolated
// linearly inside its bucket, or 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.count {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := histRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histRange(histBuckets - 1)
	return lo + w
}
