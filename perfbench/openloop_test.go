package main

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRankAndSupport(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 50, 50, true},
		{100, 99, 99, false}, // one sample beyond
		{1000, 99, 990, true},
		{999, 99, 990, false}, // rank ceil(989.01) = 990, nine beyond
		{1100, 99, 1089, true},
		{1, 50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestSampleAccountingFromDueTime(t *testing.T) {
	s := sample{Due: 10 * time.Millisecond, Dispatched: 12 * time.Millisecond,
		Sent: 15 * time.Millisecond, Done: 20 * time.Millisecond, OK: true}
	if got := s.latency(); got != 10*time.Millisecond {
		t.Errorf("latency = %v, want 10ms (from due, not from sent)", got)
	}
	if got := s.lateness(); got != 2*time.Millisecond {
		t.Errorf("lateness = %v, want 2ms", got)
	}
	if got := s.queueWait(); got != 5*time.Millisecond {
		t.Errorf("queue wait = %v, want 5ms", got)
	}
}

func TestArrivalsSpanAndDeterminism(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(3)), 500, 250)
	b := arrivals(rand.New(rand.NewSource(3)), 500, 250)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrivals differ at %d for one seed", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not ordered at %d", i)
		}
	}
	if a[0] != 0 {
		t.Errorf("first arrival at %v, want 0", a[0])
	}
	// n/rate = 2s; the last due time is that span minus the final gap.
	if last := a[len(a)-1]; last > 2*time.Second || last < 1900*time.Millisecond {
		t.Errorf("last arrival at %v, want just under 2s", last)
	}
}

// A handler that stalls on one request must show up in the latency of
// every request due during the stall: the open loop keeps releasing
// requests on schedule, they queue behind the stall, and their latency
// runs from when they were due. Timed from when they were sent, the
// same requests would look fast.
func TestStalledHandlerDelaysLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	ss := runOpenLoop(time.Now(), due, 1, func(i int, _ time.Time) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, s := range ss[1:] {
		i++
		if !s.OK {
			t.Fatalf("request %d failed", i)
		}
		if s.Done < stall {
			t.Fatalf("request %d done at %v, before the stall ended", i, s.Done)
		}
		if want := stall - s.Due; s.latency() < want {
			t.Errorf("request %d latency %v, want at least %v (the stall it waited out)", i, s.latency(), want)
		}
		if want := stall - s.Due; s.queueWait() < want {
			t.Errorf("request %d queue wait %v, want at least %v", i, s.queueWait(), want)
		}
		if s.Dispatched >= stall {
			t.Errorf("request %d released at %v: the generator waited for the stalled request", i, s.Dispatched)
		}
	}
	st := summarize(100, ss)
	if st.P50 < ms(stall)/2 {
		t.Errorf("p50 %.1fms hides the stall", st.P50)
	}
}

func TestPhaseMeetsLimit(t *testing.T) {
	mk := func(n int, lat time.Duration, gap time.Duration) []sample {
		ss := make([]sample, n)
		for i := range ss {
			d := time.Duration(i) * gap
			ss[i] = sample{Due: d, Dispatched: d, Sent: d, Done: d + lat, OK: true}
		}
		return ss
	}
	good := summarize(100, mk(1100, 5*time.Millisecond, 10*time.Millisecond))
	if !good.P99OK || !good.meets(50) {
		t.Errorf("steady phase should meet a 50ms limit: %+v", good)
	}
	if good.meets(1) {
		t.Error("phase with 5ms latency met a 1ms limit")
	}
	if few := summarize(100, mk(500, 5*time.Millisecond, 10*time.Millisecond)); few.meets(50) {
		t.Error("phase too short for a reportable p99 met the limit")
	}
	// Replies finishing at half the scheduled rate: a growing backlog.
	slow := mk(1100, 0, 10*time.Millisecond)
	for i := range slow {
		slow[i].Done = time.Duration(i) * 20 * time.Millisecond
	}
	if st := summarize(100, slow); st.meets(1e9) {
		t.Errorf("backlogged phase met the limit: completed %.1f/s of 100/s", st.Completed)
	}
	failed := mk(1100, time.Millisecond, 10*time.Millisecond)
	failed[3].OK = false
	if st := summarize(100, failed); st.Failed != 1 || st.meets(1e9) {
		t.Errorf("phase with a failed request met the limit: %+v", st)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int32]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestApportionSumsExactly(t *testing.T) {
	for _, n := range []int{1, 7, 10, 1100, 1234} {
		parts := apportion(n, []float64{6, 3, 1})
		if parts[0]+parts[1]+parts[2] != n {
			t.Errorf("apportion(%d) = %v does not sum to %d", n, parts, n)
		}
	}
	if got := apportion(1100, []float64{6, 3, 1}); got[0] != 660 || got[1] != 330 || got[2] != 110 {
		t.Errorf("apportion(1100, 6:3:1) = %v", got)
	}
}

func TestDealRequestsFixesCompositionNotOrder(t *testing.T) {
	a, b := dealRequests(1, 1100), dealRequests(2, 1100)
	if len(a) != 1100 || len(b) != 1100 {
		t.Fatalf("dealt %d and %d requests, want 1100", len(a), len(b))
	}
	sameOrder := true
	kinds := map[string]int{}
	var ca, cb []string
	for i := range a {
		sameOrder = sameOrder && a[i].Bench == b[i].Bench && a[i].Kind == b[i].Kind && a[i].Name == b[i].Name
		kinds[a[i].Kind]++
		ca = append(ca, a[i].Kind+"/"+a[i].Bench)
		cb = append(cb, b[i].Kind+"/"+b[i].Bench)
	}
	if sameOrder {
		t.Error("two seeds dealt the same order")
	}
	if kinds["decode"] != 660 || kinds["encode"] != 330 || kinds["simulate"] != 110 {
		t.Errorf("kind mix %v, want 660/330/110", kinds)
	}
	// How many requests of each kind go to each program depends only
	// on the Zipf weights, not on the seed.
	sort.Strings(ca)
	sort.Strings(cb)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("kind/program composition differs between seeds: %s vs %s", ca[i], cb[i])
		}
	}
	if ca[0] != "decode/compress" || strings.Count(strings.Join(ca, " "), "decode/compress") <= strings.Count(strings.Join(ca, " "), "decode/gcc") {
		t.Error("compress is not the most popular program")
	}
}
