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

// TestChanStreamRoundTrip pushes a trace through the bounded
// producer/consumer channel stream and checks byte-identical
// reassembly, with per-chunk Ops/MOPs attribution summing to the
// totals.
func TestChanStreamRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)), 777, 9)
	for _, cs := range []int{1, 2, 13, 777, 778} {
		for _, depth := range []int{1, 2, 4} {
			s, p := NewChanStream(tr.Name, cs, depth)
			go func() {
				for _, ev := range tr.Events {
					if !p.Append(ev, 7, 3) {
						p.Close(nil)
						return
					}
				}
				p.Close(nil)
			}()
			got, err := Collect(s)
			if err != nil {
				t.Fatalf("chunk=%d depth=%d: %v", cs, depth, err)
			}
			if !reflect.DeepEqual(got.Events, tr.Events) {
				t.Fatalf("chunk=%d depth=%d: events differ", cs, depth)
			}
			if got.Ops != tr.Ops || got.MOPs != tr.MOPs {
				t.Fatalf("chunk=%d depth=%d: ops %d/%d want %d/%d",
					cs, depth, got.Ops, got.MOPs, tr.Ops, tr.MOPs)
			}
		}
	}
}

// TestChanStreamProducerError checks that a producer's terminal error
// surfaces from Next after the queued chunks drain, and keeps
// surfacing on repeated calls.
func TestChanStreamProducerError(t *testing.T) {
	boom := errors.New("boom")
	s, p := NewChanStream("t", 2, 1)
	go func() {
		p.Append(MakeEvent(0, false, End), 1, 1)
		p.Close(boom)
	}()
	c, err := s.Next()
	if err != nil || c == nil || len(c.Events) != 1 {
		t.Fatalf("first Next = (%v, %v), want the flushed chunk", c, err)
	}
	s.Recycle(c)
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); !errors.Is(err, boom) {
			t.Fatalf("Next #%d err = %v, want boom", i, err)
		}
	}
}

// TestChanStreamConsumerClose checks that an abandoning consumer
// unblocks a producer stuck on a full channel, and that Append then
// reports false.
func TestChanStreamConsumerClose(t *testing.T) {
	s, p := NewChanStream("t", 1, 1)
	stopped := make(chan bool, 1)
	go func() {
		ok := true
		for i := 0; i < 1000 && ok; i++ {
			ok = p.Append(MakeEvent(0, false, End), 1, 1)
		}
		p.Close(nil)
		stopped <- ok
	}()
	c, err := s.Next()
	if err != nil || c == nil {
		t.Fatalf("Next = (%v, %v)", c, err)
	}
	s.Recycle(c)
	s.Close()
	if ok := <-stopped; ok {
		t.Fatal("producer never observed the consumer Close")
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

// runChanStream streams n chunks of chunkEvents events through a
// ChanStream of the given depth, the consumer recycling every chunk,
// and returns how many distinct chunks the consumer saw.
func runChanStream(n, chunkEvents, depth int, seen map[*Chunk]bool) {
	s, p := NewChanStream("t", chunkEvents, depth)
	go func() {
		for i := 0; i < n*chunkEvents; i++ {
			p.Append(MakeEvent(0, false, 0), 1, 1)
		}
		p.Close(nil)
	}()
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

// TestChanStreamChunkBound pins the free list's bound: a stream never
// holds more than depth+2 chunks, so the allocations of one whole
// stream lifecycle — set-up, producer goroutine, chunks — do not grow
// with the number of chunks that flow through it.
func TestChanStreamChunkBound(t *testing.T) {
	const chunkEvents, depth = 64, 2
	seen := map[*Chunk]bool{}
	runChanStream(1000, chunkEvents, depth, seen)
	if len(seen) > depth+2 {
		t.Errorf("1000-chunk stream used %d distinct chunks, want at most %d", len(seen), depth+2)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	short := testing.AllocsPerRun(20, func() { runChanStream(10, chunkEvents, depth, nil) })
	long := testing.AllocsPerRun(20, func() { runChanStream(1000, chunkEvents, depth, nil) })
	// A blocked channel operation may allocate a runtime wait record
	// once in a while; a per-chunk cost would add about a thousand.
	if long > short+2 {
		t.Errorf("1000-chunk stream: %.1f allocations, 10-chunk stream: %.1f; chunk allocations grow with length",
			long, short)
	}
	t.Logf("allocations per stream lifecycle: %.1f at 10 chunks, %.1f at 1000", short, long)
}
