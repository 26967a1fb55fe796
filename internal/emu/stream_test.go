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
		for _, cs := range []int{1, 7, 997, 5000, 5001, 0} {
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
// chain-consistent trace — deterministically for a fixed seed, at
// every chunk size.
func TestStochasticStreamOpsBound(t *testing.T) {
	sp := compileBench(t, "compress")
	const maxOps = 50000
	var first *trace.Trace
	for _, cs := range []int{1, 997, 0} {
		s, err := StochasticStreamOps(sp, 11, maxOps, 2, cs)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Collect(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Events) == 0 {
			t.Fatalf("chunk=%d: empty trace", cs)
		}
		// One block of slack at most: the walk stops at the first
		// boundary past the target.
		lastOps := int64(sp.Blocks[tr.Events[len(tr.Events)-1].Block()].NumOps())
		if tr.Ops < maxOps || tr.Ops-lastOps >= maxOps {
			t.Fatalf("chunk=%d: stream stopped at %d ops, want the first block boundary at or past %d",
				cs, tr.Ops, maxOps)
		}
		if last := tr.Events[len(tr.Events)-1]; last.Next() != trace.End {
			t.Fatalf("chunk=%d: final event Next = %d, want End", cs, last.Next())
		}
		if err := tr.Validate(len(sp.Blocks)); err != nil {
			t.Fatalf("chunk=%d: %v", cs, err)
		}
		if first == nil {
			first = tr
		} else if !reflect.DeepEqual(tr.Events, first.Events) || tr.Ops != first.Ops || tr.MOPs != first.MOPs {
			t.Fatalf("chunk=%d: ops-bounded stream differs from chunk=1", cs)
		}
	}
}

// TestStochasticStreamAbandon checks an abandoning consumer stops the
// walk: after Close, Next reports the end of the stream.
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
	s.Close()
	if c, err := s.Next(); c != nil || err != nil {
		t.Fatalf("Next after Close = (%v, %v), want end of stream", c, err)
	}
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
