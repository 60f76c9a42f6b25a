package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistBucketMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []uint64{0, 1, 15, 16, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<63 + 1} {
		b := histBucket(ns)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", ns, b, prev)
		}
		prev = b
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucket(%d) = %d out of range", ns, b)
		}
	}
}

func TestHistValueWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		ns := uint64(rng.Int63n(int64(time.Minute)))
		v := histValue(histBucket(ns))
		lo, hi := float64(ns)*0.9, float64(ns)*1.1+1
		if float64(v) < lo || float64(v) > hi {
			t.Fatalf("value(bucket(%d)) = %d, want within ±10%%", ns, v)
		}
	}
}

func TestHistPercentileAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h LatencyHist
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [100ns, 10ms]: exercises many octaves.
		ns := 100 * time.Duration(1+rng.Int63n(100000))
		h.Record(ns)
		samples = append(samples, float64(ns))
	}
	sort.Float64s(samples)
	for _, p := range []float64{50, 99, 99.9} {
		exact := Percentile(samples, p)
		got := float64(h.Percentile(p))
		if got < exact*0.85 || got > exact*1.15 {
			t.Fatalf("p%v = %v, exact %v (off by more than 15%%)", p, got, exact)
		}
	}
}

func TestHistConcurrentRecord(t *testing.T) {
	var h LatencyHist
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Millisecond))))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != 8*5000 {
		t.Fatalf("count = %d, want %d", h.Count(), 8*5000)
	}
	var m LatencyHist
	m.Merge(&h)
	if m.Count() != h.Count() {
		t.Fatalf("merged count = %d, want %d", m.Count(), h.Count())
	}
	if m.Percentile(50) != h.Percentile(50) {
		t.Fatalf("merged p50 differs")
	}
}

func TestHistEmpty(t *testing.T) {
	var h LatencyHist
	if h.Percentile(99) != 0 {
		t.Fatal("empty histogram percentile should be 0")
	}
}

// TestSampledPercentilesMatchFull is the fault-sampling gate: timing 1
// in 64 fast events with weight 64, plus every slow event with weight
// 1, reproduces the fully timed p50/p99/p999 within the histogram's
// bucket error. The distribution is log-uniform over [200ns, 2µs] with
// a 1% slow tail log-uniform over [2µs, 200µs], the shape of a fault
// storm with its slow-path retries.
func TestSampledPercentilesMatchFull(t *testing.T) {
	const (
		events = 8 << 20
		every  = 64
	)
	rng := rand.New(rand.NewSource(12))
	logUniform := func(lo, hi float64) time.Duration {
		return time.Duration(lo * math.Pow(hi/lo, rng.Float64()))
	}
	var full, sampled LatencyHist
	for i := 0; i < events; i++ {
		slow := rng.Intn(100) == 0
		var d time.Duration
		if slow {
			d = logUniform(2e3, 2e5)
		} else {
			d = logUniform(200, 2e3)
		}
		full.Record(d)
		sampled.Tick()
		switch {
		case slow:
			sampled.RecordWeighted(d, 1)
		case rng.Intn(every) == 0:
			sampled.RecordWeighted(d, every)
		}
	}
	if sampled.Count() != full.Count() {
		t.Fatalf("sampled count %d, full %d: the event count must stay exact", sampled.Count(), full.Count())
	}
	fs, ss := full.Stats(), sampled.Stats()
	for _, c := range []struct {
		name       string
		full, samp int64
	}{{"p50", fs.P50Ns, ss.P50Ns}, {"p99", fs.P99Ns, ss.P99Ns}, {"p999", fs.P999Ns, ss.P999Ns}} {
		off := math.Abs(float64(c.samp)/float64(c.full) - 1)
		t.Logf("%s: sampled %dns, full %dns", c.name, c.samp, c.full)
		if off > 0.0625 {
			t.Errorf("%s: sampled %dns, full %dns (off %.1f%%, bucket error 6.25%%)", c.name, c.samp, c.full, off*100)
		}
	}
}

func TestHistTickAndWeight(t *testing.T) {
	var h LatencyHist
	h.Tick()
	h.Tick()
	if s := h.Stats(); s.Count != 2 || s.P50Ns != 0 || s.MaxNs != 0 {
		t.Fatalf("ticks only: %+v, want count 2 and no percentiles", s)
	}
	h.RecordWeighted(100*time.Nanosecond, 3)
	h.RecordWeighted(10*time.Microsecond, 1)
	if h.Count() != 2 || h.Weight() != 4 {
		t.Fatalf("count %d weight %d, want 2 and 4", h.Count(), h.Weight())
	}
	// Ranked by weight: three of four units sit at 100ns.
	if p := h.Percentile(75); p < 90 || p > 110 {
		t.Fatalf("p75 = %v, want ≈100ns", p)
	}
	if p := h.Percentile(100); p < 9*time.Microsecond || p > 11*time.Microsecond {
		t.Fatalf("p100 = %v, want ≈10µs", p)
	}
	var m LatencyHist
	m.Merge(&h)
	if m.Count() != 2 || m.Weight() != 4 {
		t.Fatalf("merged count %d weight %d, want 2 and 4", m.Count(), m.Weight())
	}
}

func BenchmarkLatencyHistRecord(b *testing.B) {
	var h LatencyHist
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i & 4095))
	}
}

func BenchmarkLatencyHistTick(b *testing.B) {
	var h LatencyHist
	for i := 0; i < b.N; i++ {
		h.Tick()
	}
}
