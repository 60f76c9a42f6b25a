package vm

import (
	"errors"
	"sync"
	"testing"

	"bonsai/internal/trace"
	"bonsai/internal/vma"
)

const rw = vma.ProtRead | vma.ProtWrite

// TestFaultCountExactAcrossCPUs checks the sharded fault count: every
// fault lands in its own CPU's shard, and the summed count read by
// Stats is the same counter the latency snapshot reports.
func TestFaultCountExactAcrossCPUs(t *testing.T) {
	forEachDesign(t, Config{CPUs: 2}, func(t *testing.T, as *AddressSpace) {
		const pages, passes = 300, 3
		base := mustMmap(t, as, 0, 2*pages*PageSize, rw, 0)
		var wg sync.WaitGroup
		for id := 0; id < 2; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cpu := as.NewCPU(id)
				lo := base + uint64(id)*pages*PageSize
				for pass := 0; pass < passes; pass++ {
					for p := uint64(0); p < pages; p++ {
						if err := cpu.Fault(lo+p*PageSize, pass > 0); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(id)
		}
		wg.Wait()
		const want = 2 * pages * passes
		st, lat := as.Stats(), as.LatencySnapshot()
		if st.Faults != want || lat.Fault.Count != want {
			t.Fatalf("Stats().Faults = %d, LatencySnapshot().Fault.Count = %d, want both %d", st.Faults, lat.Fault.Count, want)
		}
		for id := range as.cpuCtr {
			if n := as.cpuCtr[id].faultHist.Count(); n != pages*passes {
				t.Errorf("CPU %d shard counted %d faults, want %d", id, n, pages*passes)
			}
		}
	})
}

// TestSegvFaultsAlwaysTimed checks that escalated faults bypass
// sampling: K segfaults (each retries with the lock held before
// failing) put exactly weight K in the histogram, one unit each.
func TestSegvFaultsAlwaysTimed(t *testing.T) {
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		const k = 100
		cpu := as.NewCPU(0)
		for i := uint64(0); i < k; i++ {
			if err := cpu.Fault(UnmappedBase+i*PageSize, false); !errors.Is(err, ErrSegv) {
				t.Fatalf("fault on unmapped page: %v, want ErrSegv", err)
			}
		}
		h := as.FaultHist()
		if h.Count() != k || h.Weight() != k {
			t.Fatalf("count %d weight %d, want %d and %d", h.Count(), h.Weight(), k, k)
		}
		if st := as.Stats(); st.RetriesMiss != k {
			t.Fatalf("RetriesMiss = %d, want %d", st.RetriesMiss, k)
		}
	})
}

// TestFastFaultsSampled checks the fast path's sampling: only whole
// samples of weight FaultSampleEvery are recorded, and their total
// estimates the fault count.
func TestFastFaultsSampled(t *testing.T) {
	as, err := New(Config{Design: PureRCU, CPUs: 1, NoTHP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	const pages, faults = 64, 1 << 14
	base := mustMmap(t, as, 0, pages*PageSize, rw, 0)
	cpu := as.NewCPU(0)
	for i := 0; i < faults; i++ {
		if err := cpu.Fault(base+uint64(i%pages)*PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	h := as.FaultHist()
	w := h.Weight()
	if h.Count() != faults || w%FaultSampleEvery != 0 {
		t.Fatalf("count %d weight %d: want count %d and whole samples of %d", h.Count(), w, faults, FaultSampleEvery)
	}
	if w < faults*3/4 || w > faults*5/4 {
		t.Fatalf("sampled weight %d does not estimate %d faults", w, faults)
	}
}

// TestFaultSampleNotAliased checks the sampler against the round
// structure that defeats a plain modulus: over faults issued in rounds
// of 16, every position of the round is timed about equally often.
func TestFaultSampleNotAliased(t *testing.T) {
	const seqs, round = 1 << 20, 16
	var hits [round]int
	total := 0
	for seq := uint64(1); seq <= seqs; seq++ {
		if faultSampled(seq) {
			hits[seq%round]++
			total++
		}
	}
	want := seqs / FaultSampleEvery
	if total < want*97/100 || total > want*103/100 {
		t.Fatalf("sampled %d of %d, want about %d", total, seqs, want)
	}
	for pos, n := range hits {
		if n < want/round*85/100 || n > want/round*115/100 {
			t.Errorf("round position %d timed %d times, want about %d", pos, n, want/round)
		}
	}
}

// TestArmedTraceTimesEveryFault checks that an armed tracer gets an
// elapsed time on every fault exit, while the histogram keeps the
// disarmed sampling rule.
func TestArmedTraceTimesEveryFault(t *testing.T) {
	const pages, passes = 64, 4
	run := func(armed bool) (weight uint64, exits []trace.Event) {
		as, err := New(Config{Design: PureRCU, CPUs: 1, NoTHP: true})
		if err != nil {
			t.Fatal(err)
		}
		defer as.Close()
		base := mustMmap(t, as, 0, pages*PageSize, rw, 0)
		cpu := as.NewCPU(0)
		var tr *trace.Tracer
		if armed {
			tr = trace.Arm(1, 1<<12)
			defer trace.Disarm()
		}
		for pass := 0; pass < passes; pass++ {
			for p := uint64(0); p < pages; p++ {
				if err := cpu.Fault(base+p*PageSize, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tr != nil {
			for _, ev := range tr.Snapshot().Merged() {
				if ev.Type == trace.EvFaultExit {
					exits = append(exits, ev)
				}
			}
		}
		return as.FaultHist().Weight(), exits
	}
	plain, _ := run(false)
	armed, exits := run(true)
	if len(exits) != pages*passes {
		t.Fatalf("%d fault exits traced, want %d", len(exits), pages*passes)
	}
	for _, ev := range exits {
		if ev.C == 0 {
			t.Fatalf("fault exit at %#x carries no elapsed time", ev.A)
		}
	}
	if armed != plain {
		t.Fatalf("histogram weight %d armed, %d disarmed: arming changed the sampling", armed, plain)
	}
}

// TestConcurrentFaultSnapshot races faults on two CPUs against
// snapshot readers summing the shards (run under -race). The fault
// count a reader sees never goes backwards, and ends exact.
func TestConcurrentFaultSnapshot(t *testing.T) {
	as, err := New(Config{Design: PureRCU, CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	const pages, passes = 256, 8
	base := mustMmap(t, as, 0, 2*pages*PageSize, rw, 0)
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			sn := as.Snapshot()
			if sn.Space.Faults < last {
				t.Errorf("fault count went backwards: %d after %d", sn.Space.Faults, last)
				return
			}
			last = sn.Space.Faults
			_ = as.LivePages()
		}
	}()
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cpu := as.NewCPU(id)
			lo := base + uint64(id)*pages*PageSize
			for pass := 0; pass < passes; pass++ {
				for p := uint64(0); p < pages; p++ {
					if err := cpu.Fault(lo+p*PageSize, true); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	const want = 2 * pages * passes
	if st, lat := as.Stats(), as.LatencySnapshot(); st.Faults != want || lat.Fault.Count != want {
		t.Fatalf("Faults = %d, Fault.Count = %d, want %d", st.Faults, lat.Fault.Count, want)
	}
}
