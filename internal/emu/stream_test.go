package emu

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// TestStochasticStreamMatchesSlice is the determinism guard for the
// walker rewrite: an identical seed must yield an identical event
// stream whether the trace is consumed as a slice (StochasticTrace) or
// as a chunk stream (StochasticStream) — across phases values and
// chunk sizes, including chunk sizes that split the trace unevenly.
func TestStochasticStreamMatchesSlice(t *testing.T) {
	sp := compileBench(t, "go")
	for _, phases := range []int{1, 2, 3, 8} {
		want, err := StochasticTrace(sp, 7, 5000, phases)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range []int{1, 7, 997, 5000, 5001} {
			s, err := StochasticStream(sp, 7, 5000, phases, cs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.Collect(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Events, want.Events) {
				t.Fatalf("phases=%d chunk=%d: streamed events differ from slice", phases, cs)
			}
			if got.Ops != want.Ops || got.MOPs != want.MOPs {
				t.Fatalf("phases=%d chunk=%d: ops %d/%d, slice %d/%d",
					phases, cs, got.Ops, got.MOPs, want.Ops, want.MOPs)
			}
			if got.Name != want.Name {
				t.Fatalf("phases=%d chunk=%d: name %q, slice %q", phases, cs, got.Name, want.Name)
			}
		}
	}
}

// TestStochasticStreamOpsBound checks the ops-bounded generator stops
// at the first block boundary at or past the requested operation
// count, terminates the final event with trace.End, and produces a
// chain-consistent trace — deterministically for a fixed seed.
func TestStochasticStreamOpsBound(t *testing.T) {
	sp := compileBench(t, "compress")
	const maxOps = 50000
	s, err := StochasticStreamOps(sp, 11, maxOps, 2, 512)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops < maxOps {
		t.Fatalf("stream stopped at %d ops, want >= %d", tr.Ops, maxOps)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	// One block of slack at most: the walk stops at the first boundary
	// past the target.
	last := tr.Events[len(tr.Events)-1]
	if last.Next() != trace.End {
		t.Fatalf("final event Next = %d, want End", last.Next())
	}
	if err := tr.Validate(len(sp.Blocks)); err != nil {
		t.Fatal(err)
	}

	s2, err := StochasticStreamOps(sp, 11, maxOps, 2, 8192)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.Collect(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, tr2.Events) || tr.Ops != tr2.Ops {
		t.Fatal("ops-bounded stream is not deterministic across chunk sizes")
	}
}

// TestStochasticStreamAbandon checks an abandoning consumer releases
// the producer goroutine instead of leaking it on a full channel.
func TestStochasticStreamAbandon(t *testing.T) {
	sp := compileBench(t, "compress")
	s, err := StochasticStream(sp, 3, 1<<20, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Next()
	if err != nil || c == nil {
		t.Fatalf("Next = (%v, %v)", c, err)
	}
	s.Recycle(c)
	s.Close() // the race detector + goroutine leak would fail the run if the producer hung
}

// TestStochasticStreamEmptyProgram mirrors the slice generator's
// empty-program rejection.
func TestStochasticStreamEmptyProgram(t *testing.T) {
	if _, err := StochasticStream(&sched.Program{}, 1, 10, 1, 0); err == nil {
		t.Error("StochasticStream accepted an empty program")
	}
	if _, err := StochasticStreamOps(&sched.Program{}, 1, 10, 1, 0); err == nil {
		t.Error("StochasticStreamOps accepted an empty program")
	}
}
