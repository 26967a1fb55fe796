package trace

import (
	"math"
	"reflect"
	"testing"
)

// FuzzTraceValidate drives Validate/ValidateRefs with arbitrary event
// streams decoded from fuzz bytes — the validators are the simulator's
// only shield against malformed traces, so they must never panic and
// must stay mutually consistent: a chain-consistent trace (Validate)
// is necessarily reference-valid (ValidateRefs), and a trace accepted
// by ValidateRefs holds no out-of-range reference.
func FuzzTraceValidate(f *testing.F) {
	f.Add(4, []byte{0, 1, 1, 1, 0, 1, 255, 255, 0})
	f.Add(1, []byte{0, 0, 0})
	f.Add(0, []byte{})
	f.Add(3, []byte{2, 1, 200, 7, 0, 0})
	f.Fuzz(func(t *testing.T, numBlocks int, raw []byte) {
		if numBlocks < 0 || numBlocks > 1<<16 {
			return
		}
		// Decode byte triples into events; the third byte's low bit is
		// the outcome and 255 in the second byte is End, so the corpus
		// reaches in-range, out-of-range and terminator successors.
		tr := &Trace{Name: "fuzz"}
		for i := 0; i+2 < len(raw); i += 3 {
			next := int(raw[i+1])
			if raw[i+1] == 255 {
				next = End
			}
			// Blocks -2 and -1 make negatives reachable.
			tr.Events = append(tr.Events, MakeEvent(int(raw[i])-2, raw[i+2]&1 == 1, next))
		}

		refsErr := tr.ValidateRefs(numBlocks)
		chainErr := tr.Validate(numBlocks)
		if refsErr != nil && chainErr == nil {
			t.Fatalf("Validate accepted a trace ValidateRefs rejects: %v", refsErr)
		}
		if refsErr == nil {
			for i, e := range tr.Events {
				if b := e.Block(); b < 0 || b >= numBlocks {
					t.Fatalf("ValidateRefs accepted event %d with block %d of %d",
						i, b, numBlocks)
				}
				if n := e.Next(); n != End && (n < 0 || n >= numBlocks) {
					t.Fatalf("ValidateRefs accepted event %d with successor %d of %d",
						i, n, numBlocks)
				}
			}
		}
	})
}

// FuzzStreamChunks is the chunker round-trip property under fuzzing:
// any trace decoded from fuzz bytes, streamed at an arbitrary chunk
// size (including 1 and len+1) through both SliceStream and the
// fill-driven PullStream, reassembles byte-identically, and the
// streaming validators agree with the slice validators regardless of
// where the chunk seams fall.
func FuzzStreamChunks(f *testing.F) {
	f.Add(4, 1, []byte{0, 1, 1, 1, 0, 1, 255, 255, 0})
	f.Add(3, 2, []byte{2, 1, 200, 7, 0, 0})
	f.Add(1, 1000, []byte{0, 0, 0})
	f.Add(0, 0, []byte{})
	f.Fuzz(func(t *testing.T, numBlocks, chunkEvents int, raw []byte) {
		if numBlocks < 0 || numBlocks > 1<<16 {
			return
		}
		if chunkEvents < 0 || chunkEvents > 1<<20 {
			return
		}
		tr := &Trace{Name: "fuzz"}
		for i := 0; i+2 < len(raw); i += 3 {
			next := int(raw[i+1])
			if raw[i+1] == 255 {
				next = End
			}
			tr.Events = append(tr.Events, MakeEvent(int(raw[i])-2, raw[i+2]&1 == 1, next))
		}
		tr.Ops = int64(len(tr.Events)) * 5
		tr.MOPs = int64(len(tr.Events)) * 2

		got, err := Collect(NewSliceStream(tr, chunkEvents))
		if err != nil {
			t.Fatalf("Collect(SliceStream): %v", err)
		}
		if len(got.Events) != len(tr.Events) ||
			(len(tr.Events) > 0 && !reflect.DeepEqual(got.Events, tr.Events)) {
			t.Fatalf("SliceStream round-trip changed events (chunk=%d)", chunkEvents)
		}
		if got.Ops != tr.Ops || got.MOPs != tr.MOPs {
			t.Fatalf("SliceStream round-trip changed totals: %d/%d want %d/%d",
				got.Ops, got.MOPs, tr.Ops, tr.MOPs)
		}

		got, err = Collect(NewPullStream(tr.Name, chunkEvents, sliceFill(tr.Events, 5, 2)))
		if err != nil {
			t.Fatalf("Collect(PullStream): %v", err)
		}
		if len(got.Events) != len(tr.Events) ||
			(len(tr.Events) > 0 && !reflect.DeepEqual(got.Events, tr.Events)) {
			t.Fatalf("PullStream round-trip changed events (chunk=%d)", chunkEvents)
		}
		if got.Ops != tr.Ops || got.MOPs != tr.MOPs {
			t.Fatalf("PullStream round-trip changed totals: %d/%d want %d/%d",
				got.Ops, got.MOPs, tr.Ops, tr.MOPs)
		}

		refsSlice := tr.ValidateRefs(numBlocks)
		refsStream := ValidateStreamRefs(NewSliceStream(tr, chunkEvents), numBlocks)
		if (refsSlice == nil) != (refsStream == nil) {
			t.Fatalf("refs disagree: slice %v, stream %v", refsSlice, refsStream)
		}
		chainSlice := tr.Validate(numBlocks)
		chainStream := ValidateStream(NewSliceStream(tr, chunkEvents), numBlocks)
		if (chainSlice == nil) != (chainStream == nil) {
			t.Fatalf("chain disagree: slice %v, stream %v", chainSlice, chainStream)
		}
	})
}

// FuzzEventRoundTrip checks the packed Event against its inputs: the
// branch outcome always round-trips, and so does every block and
// successor a validated trace can hold (End and [0, MaxBlocks)). A
// reference outside the packed range saturates, and it must stay out of
// range, so ValidateChunk at MaxBlocks accepts the event exactly when
// its inputs were valid.
func FuzzEventRoundTrip(f *testing.F) {
	for _, ref := range []int{End, 0, MaxBlocks - 1} {
		f.Add(ref, false, End)
		f.Add(0, true, ref)
		f.Add(ref, true, MaxBlocks-1)
	}
	f.Add(MaxBlocks, false, math.MaxInt)
	f.Add(math.MinInt, true, minRef-1)
	f.Fuzz(func(t *testing.T, block int, taken bool, next int) {
		e := MakeEvent(block, taken, next)
		var set Event
		set.SetNext(next)
		if e.Taken() != taken {
			t.Fatalf("MakeEvent(%d, %v, %d).Taken() = %v", block, taken, next, e.Taken())
		}
		inRange := func(ref int) bool { return ref >= minRef && ref <= MaxBlocks }
		if inRange(block) && e.Block() != block {
			t.Fatalf("MakeEvent(%d, %v, %d).Block() = %d", block, taken, next, e.Block())
		}
		if inRange(next) && (e.Next() != next || set.Next() != next) {
			t.Fatalf("MakeEvent(%d, %v, %d).Next() = %d, SetNext gives %d",
				block, taken, next, e.Next(), set.Next())
		}
		valid := block >= 0 && block < MaxBlocks &&
			(next == End || next >= 0 && next < MaxBlocks)
		err := ValidateChunk(&Chunk{Events: []Event{e}}, MaxBlocks)
		if (err == nil) != valid {
			t.Fatalf("MakeEvent(%d, %v, %d) packs to block %d, next %d: ValidateChunk = %v",
				block, taken, next, e.Block(), e.Next(), err)
		}
	})
}
