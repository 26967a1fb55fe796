package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or below
// it. ok reports whether at least minBeyond samples lie beyond it; a
// percentile without that support is not reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1], len(sorted)-rank >= minBeyond
}

// median is the nearest-rank 50th percentile, reported whenever there
// is a sample.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// arrivals draws an open-loop schedule of n due times at the given mean
// rate: exponential gaps (Poisson arrivals), rescaled so the schedule
// spans exactly n/rate seconds. The rescaling keeps the burstiness but
// removes the run-to-run wobble of the mean rate.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	scale := float64(n) / rate / total
	due := make([]time.Duration, n)
	at := 0.0
	for i, g := range gaps {
		due[i] = time.Duration(at * float64(time.Second))
		at += g * scale
	}
	return due
}

// sample is one open-loop request's timing, every field an offset from
// the phase start: when it was due, when the generator handed it on,
// when a connection took it, and when the reply arrived.
type sample struct {
	Due, Dispatched, Sent, Done time.Duration
	OK                          bool
}

// latency is measured from the due time, so a stall that delays later
// requests is charged to them too.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// lateness is how far behind its schedule the generator ran.
func (s sample) lateness() time.Duration { return s.Dispatched - s.Due }

// queueWait is the time from due to sent: generator lateness plus the
// wait for a free connection.
func (s sample) queueWait() time.Duration { return s.Sent - s.Due }

// runOpenLoop sends request i at start+due[i] whatever the state of the
// earlier ones: a generator goroutine releases each request on time
// into a queue, and conns sender goroutines (one per client connection)
// take from it. send runs on a sender and reports success. The call
// returns once every request has completed.
func runOpenLoop(start time.Time, due []time.Duration, conns int, send func(i int, sent time.Time) bool) []sample {
	out := make([]sample, len(due))
	queue := make(chan int, len(due)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent := time.Now()
				ok := send(i, sent)
				out[i].Sent = sent.Sub(start)
				out[i].Done = time.Since(start)
				out[i].OK = ok
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		out[i].Due = d
		out[i].Dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// phaseStats summarizes one fixed-rate phase of an open loop.
type phaseStats struct {
	Rate      float64 // scheduled requests per second
	N, Failed int
	P50, P99  float64 // latency from due time, ms
	P99OK     bool    // at least minBeyond samples beyond the p99
	// Completed is requests completed per second over the phase, from
	// the first due time to the last reply; below Rate when a backlog
	// built up and had to drain after the schedule ended.
	Completed float64
	LateP50   float64 // generator lateness, ms
	LateP99   float64
	QueueP99  float64 // due-to-sent wait p99, ms
}

// summarize pools the windows a phase was sent in. Percentiles are
// over every sample; Completed divides all requests by the summed
// window spans, each from its first due time to its last reply.
func summarize(rate float64, windows ...[]sample) phaseStats {
	st := phaseStats{Rate: rate}
	var lat, late, queue []float64
	var span time.Duration
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		first, last := w[0].Due, time.Duration(0)
		for _, s := range w {
			if !s.OK {
				st.Failed++
			}
			lat = append(lat, ms(s.latency()))
			late = append(late, ms(s.lateness()))
			queue = append(queue, ms(s.queueWait()))
			first = min(first, s.Due)
			last = max(last, s.Done)
		}
		span += last - first
	}
	st.N = len(lat)
	st.P50 = median(lat)
	st.P99, st.P99OK = percentile(lat, 99)
	st.LateP50 = median(late)
	st.LateP99, _ = percentile(late, 99)
	st.QueueP99, _ = percentile(queue, 99)
	if span > 0 {
		st.Completed = float64(st.N) / span.Seconds()
	}
	return st
}

// backlogSlack is how far the completion rate may fall below the
// scheduled rate before a phase counts as building a backlog.
const backlogSlack = 0.95

// meets reports whether a phase held the latency limit without a
// growing backlog: no failures, a reportable p99 within limitMS, and
// replies keeping pace with the schedule. A failed request misses any
// limit.
func (p phaseStats) meets(limitMS float64) bool {
	return p.Failed == 0 && p.P99OK && p.P99 <= limitMS && p.Completed >= backlogSlack*p.Rate
}
