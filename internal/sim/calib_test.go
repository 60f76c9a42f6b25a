package sim

import (
	"testing"

	"bonsai/internal/coherence"
	"bonsai/internal/vm"
)

// calibCycles keeps calibration tests fast while long enough for the
// queueing model to reach steady state.
const calibCycles = 25_000_000

// TestFig17Anchors checks the simulation against the paper's §7.3
// anchor points: ~7,400 cycles/fault at 10 cores in all designs;
// ~8,869 for pure RCU at 80 cores; lock designs an order of magnitude
// above pure RCU at 80 cores.
func TestFig17Anchors(t *testing.T) {
	m := &coherence.E78870
	p := DefaultParams

	for _, d := range vm.Designs {
		r := RunMicro(m, d, p, 10, 0, calibCycles)
		if r.CyclesPerFault < 6500 || r.CyclesPerFault > 10500 {
			t.Errorf("%v at 10 cores: %.0f cycles/fault, paper ~7,400", d, r.CyclesPerFault)
		}
		t.Logf("%-22s 10 cores: %7.0f cycles/fault", d, r.CyclesPerFault)
	}

	pure := RunMicro(m, vm.PureRCU, p, 80, 0, calibCycles)
	if pure.CyclesPerFault < 7500 || pure.CyclesPerFault > 10500 {
		t.Errorf("PureRCU at 80 cores: %.0f cycles/fault, paper ~8,869", pure.CyclesPerFault)
	}
	if pure.FaultsPerSec < 15e6 {
		t.Errorf("PureRCU at 80 cores: %.1fM faults/s, paper ~20M", pure.FaultsPerSec/1e6)
	}
	t.Logf("PureRCU 80 cores: %.0f cycles/fault, %.1fM faults/s",
		pure.CyclesPerFault, pure.FaultsPerSec/1e6)

	for _, d := range []vm.Design{vm.RWLock, vm.FaultLock, vm.Hybrid} {
		r := RunMicro(m, d, p, 80, 0, calibCycles)
		ratio := r.CyclesPerFault / pure.CyclesPerFault
		if ratio < 8 {
			t.Errorf("%v at 80 cores only %.1fx pure RCU; paper: more than an order of magnitude", d, ratio)
		}
		t.Logf("%-22s 80 cores: %7.0f cycles/fault (%.0fx pure)", d, r.CyclesPerFault, ratio)
	}
}

// TestFig16Shape checks the throughput orderings of Figure 16: pure RCU
// scales near-linearly; the lock designs flatten far below it.
func TestFig16Shape(t *testing.T) {
	m := &coherence.E78870
	p := DefaultParams

	p1 := RunMicro(m, vm.PureRCU, p, 1, 0, calibCycles)
	p80 := RunMicro(m, vm.PureRCU, p, 80, 0, calibCycles)
	speedup := p80.FaultsPerSec / p1.FaultsPerSec
	if speedup < 55 {
		t.Errorf("PureRCU speedup 1->80 cores = %.0fx, want near-linear", speedup)
	}
	t.Logf("PureRCU speedup at 80 cores: %.0fx", speedup)

	r80 := RunMicro(m, vm.RWLock, p, 80, 0, calibCycles)
	if r80.FaultsPerSec > p80.FaultsPerSec/5 {
		t.Errorf("RWLock at 80 cores (%.1fM/s) not far below PureRCU (%.1fM/s)",
			r80.FaultsPerSec/1e6, p80.FaultsPerSec/1e6)
	}
	// RWLock throughput must stop scaling: 80 cores no better than 3x
	// its 10-core rate.
	r10 := RunMicro(m, vm.RWLock, p, 10, 0, calibCycles)
	if r80.FaultsPerSec > 3*r10.FaultsPerSec {
		t.Errorf("RWLock kept scaling: %.1fM/s at 10 vs %.1fM/s at 80",
			r10.FaultsPerSec/1e6, r80.FaultsPerSec/1e6)
	}
}

// TestFig18Shape checks Figure 18's shape: with one core in continuous
// mmap/munmap, the rwlock and fault-lock designs blow up (paper: 29x
// and 21x), hybrid grows modestly, and pure RCU stays near 1x.
func TestFig18Shape(t *testing.T) {
	m := &coherence.E78870
	p := DefaultParams
	norm := func(d vm.Design, f float64) float64 {
		n := Fig18Cores[d]
		base := RunMicro(m, d, p, n, 0, calibCycles).CyclesPerFault
		return RunMicro(m, d, p, n, f, calibCycles).CyclesPerFault / base
	}

	rw := norm(vm.RWLock, 1.0)
	fl := norm(vm.FaultLock, 1.0)
	hy := norm(vm.Hybrid, 1.0)
	pu := norm(vm.PureRCU, 1.0)
	t.Logf("normalized cost at 100%% mmap: rwlock=%.1fx faultlock=%.1fx hybrid=%.2fx pure=%.2fx", rw, fl, hy, pu)

	if rw < 10 {
		t.Errorf("RWLock at 100%% mmap: %.1fx, paper reports 29x", rw)
	}
	if fl < 7 {
		t.Errorf("FaultLock at 100%% mmap: %.1fx, paper reports 21x", fl)
	}
	if fl >= rw {
		t.Errorf("FaultLock (%.1fx) should beat RWLock (%.1fx)", fl, rw)
	}
	if hy > 4 {
		t.Errorf("Hybrid at 100%% mmap: %.1fx, paper shows modest growth", hy)
	}
	if pu > 1.35 {
		t.Errorf("PureRCU at 100%% mmap: %.2fx, paper shows near-constant cost", pu)
	}
	if !(pu < hy && hy < fl) {
		t.Errorf("ordering violated: pure %.2fx, hybrid %.2fx, faultlock %.1fx", pu, hy, fl)
	}
}

// TestDeterminism: identical runs must produce identical results.
func TestDeterminism(t *testing.T) {
	m := &coherence.E78870
	a := RunMicro(m, vm.RWLock, DefaultParams, 20, 0.3, 5_000_000)
	b := RunMicro(m, vm.RWLock, DefaultParams, 20, 0.3, 5_000_000)
	if a != b {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

// TestStatsLineAblation prices one shared statistics line per fault:
// at 10 cores on one socket it costs a few percent, at 80 cores across
// eight sockets the line's transfers serialize and more than double the
// fault, while per-CPU shards stay at the plain pure-RCU cost.
func TestStatsLineAblation(t *testing.T) {
	m := &coherence.E78870
	p := DefaultParams
	for _, n := range []int{10, 80} {
		plain := RunMicro(m, vm.PureRCU, p, n, 0, calibCycles).CyclesPerFault
		shared := RunMicroStatsLine(m, p, n, true, calibCycles).CyclesPerFault
		sharded := RunMicroStatsLine(m, p, n, false, calibCycles).CyclesPerFault
		t.Logf("%2d cores: plain %.0f, shared line %.0f, sharded %.0f cycles/fault", n, plain, shared, sharded)
		if sharded > plain*1.02 {
			t.Errorf("%d cores: sharded counters cost %.0f cycles/fault, plain fault %.0f", n, sharded, plain)
		}
		if n == 10 && shared > plain*1.05 {
			t.Errorf("10 cores: shared stats line %.0f cycles/fault, plain fault %.0f", shared, plain)
		}
		if n == 80 && shared < 2*sharded {
			t.Errorf("80 cores: shared stats line %.0f cycles/fault, only %.1fx the sharded %.0f", shared, shared/sharded, sharded)
		}
	}
}
