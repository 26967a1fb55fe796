package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomTrace builds a chain-consistent trace of n events over numBlocks
// blocks from a fixed-seed PRNG.
func randomTrace(r *rand.Rand, n, numBlocks int) *Trace {
	tr := &Trace{Name: "rnd"}
	if n == 0 {
		return tr
	}
	cur := r.Intn(numBlocks)
	for i := 0; i < n; i++ {
		next := r.Intn(numBlocks)
		if i == n-1 {
			next = End
		}
		tr.Events = append(tr.Events, MakeEvent(cur, r.Intn(2) == 1, next))
		cur = next
	}
	tr.Ops = int64(n) * 7
	tr.MOPs = int64(n) * 3
	return tr
}

// withBlock returns e with its executed block replaced by b.
func withBlock(e Event, b int) Event { return MakeEvent(b, e.Taken(), e.Next()) }

// chunkSizes returns the chunk-size edge cases for a trace of length n:
// 1, 2, 3, n-1, n, n+1, plus the default.
func chunkSizes(n int) []int {
	sizes := []int{1, 2, 3, 0}
	if n > 1 {
		sizes = append(sizes, n-1)
	}
	if n > 0 {
		sizes = append(sizes, n, n+1)
	}
	return sizes
}

// TestSliceStreamRoundTrip is the chunker property test: any trace
// round-trips through chunk/stream/reassemble byte-identically for
// arbitrary chunk sizes, including 1 and len+1.
func TestSliceStreamRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000} {
		tr := randomTrace(r, n, 10)
		for _, cs := range chunkSizes(n) {
			got, err := Collect(NewSliceStream(tr, cs))
			if err != nil {
				t.Fatalf("n=%d chunk=%d: %v", n, cs, err)
			}
			if got.Name != tr.Name || got.Ops != tr.Ops || got.MOPs != tr.MOPs {
				t.Fatalf("n=%d chunk=%d: header got %q/%d/%d want %q/%d/%d",
					n, cs, got.Name, got.Ops, got.MOPs, tr.Name, tr.Ops, tr.MOPs)
			}
			if len(got.Events) != len(tr.Events) {
				t.Fatalf("n=%d chunk=%d: %d events, want %d",
					n, cs, len(got.Events), len(tr.Events))
			}
			if n > 0 && !reflect.DeepEqual(got.Events, tr.Events) {
				t.Fatalf("n=%d chunk=%d: events differ", n, cs)
			}
		}
	}
}

// TestSliceStreamChunkOffsets verifies First carries the global index of
// each chunk's leading event, whatever the chunk size.
func TestSliceStreamChunkOffsets(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 10, 5)
	for _, cs := range []int{1, 3, 4, 10, 11} {
		s := NewSliceStream(tr, cs)
		var want int64
		for {
			c, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				break
			}
			if c.First != want {
				t.Fatalf("chunk=%d: First=%d want %d", cs, c.First, want)
			}
			want += int64(len(c.Events))
			s.Recycle(c)
		}
		if want != int64(len(tr.Events)) {
			t.Fatalf("chunk=%d: streamed %d events, want %d", cs, want, len(tr.Events))
		}
	}
}

// sliceFill returns a PullStream fill function that appends events in
// order, attributing ops and mops operations to each.
func sliceFill(events []Event, ops, mops int64) func(*Chunk) error {
	return func(c *Chunk) error {
		n := min(cap(c.Events)-len(c.Events), len(events))
		c.Events = append(c.Events, events[:n]...)
		c.Ops += int64(n) * ops
		c.MOPs += int64(n) * mops
		events = events[n:]
		return nil
	}
}

// TestPullStreamRoundTrip pulls a trace through a PullStream and checks
// byte-identical reassembly, with per-chunk Ops/MOPs attribution
// summing to the totals and First naming each chunk's absolute offset.
func TestPullStreamRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)), 777, 9)
	for _, cs := range []int{1, 2, 13, 777, 778, 0} {
		s := NewPullStream(tr.Name, cs, sliceFill(tr.Events, 7, 3))
		got := &Trace{Name: s.Name()}
		for {
			c, err := s.Next()
			if err != nil {
				t.Fatalf("chunk=%d: %v", cs, err)
			}
			if c == nil {
				break
			}
			if c.First != int64(len(got.Events)) {
				t.Fatalf("chunk=%d: First=%d want %d", cs, c.First, len(got.Events))
			}
			got.Events = append(got.Events, c.Events...)
			got.Ops += c.Ops
			got.MOPs += c.MOPs
			s.Recycle(c)
		}
		if !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("chunk=%d: events differ", cs)
		}
		if got.Name != tr.Name || got.Ops != tr.Ops || got.MOPs != tr.MOPs {
			t.Fatalf("chunk=%d: header %q %d/%d want %q %d/%d",
				cs, got.Name, got.Ops, got.MOPs, tr.Name, tr.Ops, tr.MOPs)
		}
	}
}

// TestPullStreamFillError checks that a fill error surfaces from Next
// only after the events filled before it have been delivered, and keeps
// surfacing on repeated calls without calling fill again.
func TestPullStreamFillError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	s := NewPullStream("t", 2, func(c *Chunk) error {
		calls++
		c.Events = append(c.Events, MakeEvent(0, false, End))
		c.Ops, c.MOPs = 1, 1
		return boom
	})
	c, err := s.Next()
	if err != nil || c == nil || len(c.Events) != 1 {
		t.Fatalf("first Next = (%v, %v), want the partial chunk", c, err)
	}
	s.Recycle(c)
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); !errors.Is(err, boom) {
			t.Fatalf("Next #%d err = %v, want boom", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times, want 1", calls)
	}
}

// TestPullStreamConsumerClose checks that an abandoning consumer stops
// the stream: after Close, Next reports the end without calling fill.
func TestPullStreamConsumerClose(t *testing.T) {
	calls := 0
	s := NewPullStream("t", 1, func(c *Chunk) error {
		calls++
		c.Events = append(c.Events, MakeEvent(0, false, 0))
		return nil
	})
	c, err := s.Next()
	if err != nil || c == nil {
		t.Fatalf("Next = (%v, %v)", c, err)
	}
	s.Recycle(c)
	s.Close()
	s.Close() // idempotent
	if c, err := s.Next(); c != nil || err != nil {
		t.Fatalf("Next after Close = (%v, %v), want end of stream", c, err)
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times, want 1", calls)
	}
}

// TestValidateStreamMatchesSlice checks the streaming validators agree
// with the slice validators on valid, broken-chain and out-of-range
// traces across chunk sizes — including seams that split the fault.
func TestValidateStreamMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	base := randomTrace(r, 50, 6)
	corrupt := func(f func(*Trace)) *Trace {
		tr := &Trace{Name: base.Name, Events: append([]Event(nil), base.Events...)}
		f(tr)
		return tr
	}
	cases := []struct {
		name string
		tr   *Trace
	}{
		{"valid", base},
		{"bad-block", corrupt(func(tr *Trace) { tr.Events[20] = withBlock(tr.Events[20], 99) })},
		{"neg-block", corrupt(func(tr *Trace) { tr.Events[0] = withBlock(tr.Events[0], -1) })},
		{"bad-next", corrupt(func(tr *Trace) { tr.Events[33].SetNext(-7) })},
		{"broken-chain", corrupt(func(tr *Trace) { tr.Events[10].SetNext((tr.Events[11].Block() + 1) % 6) })},
	}
	for _, tc := range cases {
		wantRefs := tc.tr.ValidateRefs(6)
		wantChain := tc.tr.Validate(6)
		for _, cs := range []int{1, 7, 11, 50, 51} {
			gotRefs := ValidateStreamRefs(NewSliceStream(tc.tr, cs), 6)
			gotChain := ValidateStream(NewSliceStream(tc.tr, cs), 6)
			if (gotRefs == nil) != (wantRefs == nil) {
				t.Errorf("%s chunk=%d: refs err %v, slice %v", tc.name, cs, gotRefs, wantRefs)
			}
			if (gotChain == nil) != (wantChain == nil) {
				t.Errorf("%s chunk=%d: chain err %v, slice %v", tc.name, cs, gotChain, wantChain)
			}
			if gotRefs != nil && gotRefs.Error() != wantRefs.Error() {
				t.Errorf("%s chunk=%d: refs message %q, slice %q",
					tc.name, cs, gotRefs, wantRefs)
			}
			if gotChain != nil && gotChain.Error() != wantChain.Error() {
				t.Errorf("%s chunk=%d: chain message %q, slice %q",
					tc.name, cs, gotChain, wantChain)
			}
		}
	}
}

// TestCorruptChunkErrorOffsets is the error-path coverage for corrupt
// mid-stream chunks: the typed ErrMalformedTrace sentinel is preserved
// and the reported offset is the absolute event index, not a
// chunk-local one.
func TestCorruptChunkErrorOffsets(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(23)), 40, 5)
	tr.Events[27] = withBlock(tr.Events[27], 77) // lands mid-stream for every small chunk size
	for _, cs := range []int{1, 3, 10, 13} {
		for _, check := range []struct {
			name string
			run  func(Stream) error
		}{
			{"refs", func(s Stream) error { return ValidateStreamRefs(s, 5) }},
			{"chain", func(s Stream) error { return ValidateStream(s, 5) }},
			{"counts", func(s Stream) error { _, err := BlockCountsStream(s, 5); return err }},
		} {
			err := check.run(NewSliceStream(tr, cs))
			if !errors.Is(err, ErrMalformedTrace) {
				t.Fatalf("%s chunk=%d: err = %v, want ErrMalformedTrace", check.name, cs, err)
			}
			if !strings.Contains(err.Error(), "event 27") {
				t.Fatalf("%s chunk=%d: err %q does not name absolute event 27",
					check.name, cs, err)
			}
		}
	}
}

// TestCorruptSeamChainError places a chain break exactly on a chunk
// seam and checks the error names the absolute indices on both sides.
func TestCorruptSeamChainError(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(29)), 20, 4)
	tr.Events[9].SetNext((tr.Events[10].Block() + 1) % 4)
	err := ValidateStream(NewSliceStream(tr, 10), 4) // seam between events 9 and 10
	if !errors.Is(err, ErrMalformedTrace) {
		t.Fatalf("err = %v, want ErrMalformedTrace", err)
	}
	want := fmt.Sprintf("event 9 Next=%d but event 10 executes %d",
		tr.Events[9].Next(), tr.Events[10].Block())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q missing %q", err, want)
	}
}

// TestTraceValidateWrapsSentinel checks the slice-API error paths now
// carry the typed sentinel too.
func TestTraceValidateWrapsSentinel(t *testing.T) {
	tr := sample()
	tr.Events[1] = withBlock(tr.Events[1], 9)
	if err := tr.ValidateRefs(3); !errors.Is(err, ErrMalformedTrace) {
		t.Errorf("ValidateRefs err = %v, want ErrMalformedTrace", err)
	}
	tr = sample()
	tr.Events[0].SetNext(2)
	if err := tr.Validate(3); !errors.Is(err, ErrMalformedTrace) {
		t.Errorf("Validate err = %v, want ErrMalformedTrace", err)
	}
}

// TestBlockCountsStream checks the streaming block counts agree with
// the slice version across chunk sizes.
func TestBlockCountsStream(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(31)), 200, 8)
	wantCounts := tr.BlockCounts(8)
	for _, cs := range []int{1, 9, 200, 201} {
		counts, err := BlockCountsStream(NewSliceStream(tr, cs), 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("chunk=%d: counts %v want %v", cs, counts, wantCounts)
		}
	}
}

// TestSliceStreamEmptyTrace checks the empty trace still delivers its
// totals through exactly one empty chunk.
func TestSliceStreamEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty", Ops: 5, MOPs: 2}
	s := NewSliceStream(tr, 4)
	c, err := s.Next()
	if err != nil || c == nil {
		t.Fatalf("Next = (%v, %v), want the totals chunk", c, err)
	}
	if len(c.Events) != 0 || c.Ops != 5 || c.MOPs != 2 {
		t.Fatalf("chunk = %+v", c)
	}
	if c2, err := s.Next(); c2 != nil || err != nil {
		t.Fatalf("second Next = (%v, %v), want end of stream", c2, err)
	}
}

// runPullStream pulls n full chunks of chunkEvents events through a
// PullStream, the consumer recycling every chunk before the next Next,
// and records the distinct chunks the consumer saw.
func runPullStream(n, chunkEvents int, seen map[*Chunk]bool) {
	left := n * chunkEvents
	s := NewPullStream("t", chunkEvents, func(c *Chunk) error {
		for left > 0 && len(c.Events) < cap(c.Events) {
			c.Events = append(c.Events, MakeEvent(0, false, 0))
			c.Ops++
			c.MOPs++
			left--
		}
		return nil
	})
	for {
		c, err := s.Next()
		if c == nil || err != nil {
			return
		}
		if seen != nil {
			seen[c] = true
		}
		s.Recycle(c)
	}
}

// TestPullStreamChunkBound pins the stream's memory to what its
// consumer holds: a consumer that recycles each chunk before the next
// Next touches exactly one chunk buffer, so the allocations of one
// whole stream lifecycle do not grow with the number of chunks that
// flow through it.
func TestPullStreamChunkBound(t *testing.T) {
	const chunkEvents = 64
	seen := map[*Chunk]bool{}
	runPullStream(1000, chunkEvents, seen)
	if len(seen) != 1 {
		t.Errorf("1000-chunk stream used %d distinct chunks, want 1", len(seen))
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	short := testing.AllocsPerRun(20, func() { runPullStream(10, chunkEvents, nil) })
	long := testing.AllocsPerRun(20, func() { runPullStream(1000, chunkEvents, nil) })
	if long != short {
		t.Errorf("1000-chunk stream: %.1f allocations, 10-chunk stream: %.1f; chunk allocations grow with length",
			long, short)
	}
}
