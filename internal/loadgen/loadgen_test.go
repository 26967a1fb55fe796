package loadgen

import (
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestZipfGoldenHistogram pins the fixed-seed sampler's popularity
// histogram exactly: the harness's request sequences are part of the
// benchmark's definition, so a drift here (a changed RNG, a reordered
// cumulative table) must fail loudly, not silently reshape every
// BENCH_serve.json trend.
func TestZipfGoldenHistogram(t *testing.T) {
	z, err := NewZipf(8, 1.07, 42)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 10000
	got := make([]int, 8)
	for i := 0; i < draws; i++ {
		got[z.Next()]++
	}
	want := []int{3951, 1801, 1194, 815, 692, 584, 514, 449}
	total := 0
	for rank, n := range got {
		total += n
		if n != want[rank] {
			t.Errorf("rank %d drawn %d times, want %d", rank, n, want[rank])
		}
	}
	if total != draws {
		t.Errorf("histogram sums to %d, want %d", total, draws)
	}
	// The shape itself: hot-first, monotone non-increasing, properly
	// skewed (rank 0 at least 4x rank 7 under s = 1.07).
	for r := 1; r < len(got); r++ {
		if got[r] > got[r-1] {
			t.Errorf("rank %d (%d draws) hotter than rank %d (%d)", r, got[r], r-1, got[r-1])
		}
	}
	if got[0] < 4*got[7] {
		t.Errorf("skew too flat: rank0 %d vs rank7 %d", got[0], got[7])
	}
}

// TestZipfDeterminism requires identical sequences for identical seeds
// and different sequences for different seeds.
func TestZipfDeterminism(t *testing.T) {
	a, err := NewZipf(16, 1.07, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewZipf(16, 1.07, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewZipf(16, 1.07, 8)
	if err != nil {
		t.Fatal(err)
	}
	same, diff := true, false
	for i := 0; i < 1000; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different sequences")
	}
	if !diff {
		t.Error("different seeds produced identical sequences")
	}
}

func TestZipfBadOptions(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {8, 0}, {8, -2}} {
		if _, err := NewZipf(tc.n, tc.s, 1); !errors.Is(err, ErrBadOptions) {
			t.Errorf("NewZipf(%d, %v) error = %v, want ErrBadOptions", tc.n, tc.s, err)
		}
	}
}

// TestPercentileFixture checks the nearest-rank percentile math against
// hand-computed values: for n = 10 evenly spaced samples, the p-th
// percentile is the ceil(p/100*10)-th smallest.
func TestPercentileFixture(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Deliberately unsorted input; Percentile must not mutate it.
	ds := []time.Duration{ms(70), ms(10), ms(100), ms(40), ms(20), ms(90), ms(30), ms(60), ms(80), ms(50)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{1, ms(10)},   // ceil(0.1) = 1st
		{10, ms(10)},  // ceil(1.0) = 1st
		{50, ms(50)},  // ceil(5.0) = 5th
		{51, ms(60)},  // ceil(5.1) = 6th
		{95, ms(100)}, // ceil(9.5) = 10th
		{99, ms(100)}, // ceil(9.9) = 10th
		{100, ms(100)},
	}
	for _, tc := range cases {
		if got := Percentile(ds, tc.p); got != tc.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if ds[0] != ms(70) {
		t.Error("Percentile mutated its input")
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	if got := Percentile([]time.Duration{ms(5)}, 99); got != ms(5) {
		t.Errorf("Percentile(single, 99) = %v, want 5ms", got)
	}
}

// TestPercentileOutOfDomain pins the degraded behavior for requests
// outside (0, 100]: p > 100, +Inf and NaN return the maximum sample
// (NaN would otherwise fall through int(Ceil(NaN)) into the minimum),
// p <= 0 and -Inf return the minimum, and nothing panics.
func TestPercentileOutOfDomain(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ds := []time.Duration{ms(30), ms(10), ms(20)}
	cases := []struct {
		name string
		p    float64
		want time.Duration
	}{
		{"p=101", 101, ms(30)},
		{"p=1e9", 1e9, ms(30)},
		{"p=+Inf", math.Inf(1), ms(30)},
		{"NaN", math.NaN(), ms(30)},
		{"p=0", 0, ms(10)},
		{"p=-5", -5, ms(10)},
		{"p=-Inf", math.Inf(-1), ms(10)},
	}
	for _, tc := range cases {
		if got := Percentile(ds, tc.p); got != tc.want {
			t.Errorf("Percentile(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := Percentile(nil, math.NaN()); got != 0 {
		t.Errorf("Percentile(empty, NaN) = %v, want 0", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run("http://127.0.0.1:0", Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("empty benchmarks: error = %v, want ErrBadOptions", err)
	}
	if _, err := Run("http://127.0.0.1:0", Options{
		Benchmarks: []string{"compress"}, Mix: []string{"teleport"},
	}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("unknown mix: error = %v, want ErrBadOptions", err)
	}
	if _, err := Run("http://127.0.0.1:0", Options{
		Benchmarks: []string{"compress"}, Mix: []string{"simulate"},
	}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("simulate without pairing: error = %v, want ErrBadOptions", err)
	}
}

// TestFleetAgainstService boots a real service instance and runs a
// small fleet against it end to end: every request must succeed, the
// tallies must be consistent, and the latency percentiles ordered.
func TestFleetAgainstService(t *testing.T) {
	s := serve.New(serve.Config{Driver: core.NewDriverWithCache(0, 256)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Run(ts.URL, Options{
		Workers:           4,
		RequestsPerWorker: 10,
		Benchmarks:        []string{"compress", "go"},
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 {
		t.Errorf("requests = %d, want 40", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0", rep.Errors)
	}
	if len(rep.PerWorker) != 4 {
		t.Fatalf("per-worker reports = %d, want 4", len(rep.PerWorker))
	}
	popTotal := 0
	for _, n := range rep.Popularity {
		popTotal += n
	}
	if popTotal != 40 {
		t.Errorf("popularity sums to %d, want 40", popTotal)
	}
	if rep.Popularity["compress"] <= rep.Popularity["go"] {
		t.Errorf("zipf skew inverted: hot %d vs cold %d draws",
			rep.Popularity["compress"], rep.Popularity["go"])
	}
	if rep.RequestsPerSec <= 0 {
		t.Errorf("throughput = %v, want > 0", rep.RequestsPerSec)
	}
	if rep.P50MS <= 0 || rep.P50MS > rep.P95MS || rep.P95MS > rep.P99MS {
		t.Errorf("percentiles out of order: p50=%v p95=%v p99=%v", rep.P50MS, rep.P95MS, rep.P99MS)
	}
	if got := s.Stats().Counter("serve.requests").Value(); got != 40 {
		t.Errorf("server saw %d requests, want 40", got)
	}
}
