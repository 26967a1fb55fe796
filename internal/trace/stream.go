package trace

import (
	"errors"
	"fmt"
)

// This file is the streaming face of the package: a trace delivered as a
// bounded sequence of fixed-capacity chunks instead of one in-memory
// []Event slice. PullStream produces each chunk inside Next from a fill
// function (emu.StochasticStream's walker, or any generator); consumers
// (Sim.RunStream, the stream validators below) replay chunks
// incrementally and recycle each one for the next Next to refill, so
// peak memory is set by the chunk size — never by the trace length.
// SliceStream adapts an already materialized Trace to the same
// interface with zero-copy subslice chunks, which is how the slice APIs
// (Validate, BlockCounts, Footprint, Sim.Run) share one incremental
// implementation with the long-horizon streaming paths.

// DefaultChunkEvents is the chunk capacity streams use when the caller
// passes a non-positive size: large enough to amortize per-chunk
// overhead, small enough that a chunk stays in cache (8192 events x
// 8 B = 64 KB per chunk).
const DefaultChunkEvents = 8192

// ErrMalformedTrace marks a trace (or trace chunk) whose events
// reference blocks or successors out of range, or whose successor chain
// is inconsistent. Every validation error of this package wraps it.
var ErrMalformedTrace = errors.New("trace: malformed trace")

// Chunk is one window of a streamed trace. Events holds up to the
// stream's chunk capacity; First is the global index of Events[0]
// within the whole trace, so diagnostics can name absolute event
// offsets regardless of chunking. Ops/MOPs are the producer's dynamic
// operation counts for this chunk: their stream-wide sum equals the
// materialized trace's totals (producers that cannot attribute
// per-chunk counts — SliceStream slicing a Trace that only records
// totals — ride the full totals on the final chunk).
type Chunk struct {
	Events []Event
	Ops    int64
	MOPs   int64
	First  int64
}

// Stream delivers a trace incrementally. Next returns chunks in trace
// order and nil at end of stream (or the producer's terminal error);
// the consumer must Recycle every chunk it is done with — chunks may be
// reused for later chunks. Next, Recycle and Close belong to one
// consumer goroutine. Close abandons the stream early; it is idempotent
// and implied by draining the stream to its end.
type Stream interface {
	// Name labels the trace (the benchmark name).
	Name() string
	// Next returns the next chunk, or (nil, nil) at end of stream, or
	// (nil, err) when the producer failed.
	Next() (*Chunk, error)
	// Recycle returns a chunk to the stream for reuse. The caller must
	// not touch the chunk afterwards.
	Recycle(*Chunk)
	// Close abandons the stream early.
	Close()
}

// SliceStream adapts a materialized Trace to the Stream interface:
// chunks alias subslices of the trace's events (zero copy), the trace's
// Ops/MOPs totals ride the final chunk, and Recycle is a no-op. An
// empty trace yields a single empty chunk so its totals still arrive.
type SliceStream struct {
	tr    *Trace
	chunk int
	pos   int
	done  bool
}

// NewSliceStream returns a stream over tr with the given chunk size
// (<= 0 selects DefaultChunkEvents).
func NewSliceStream(tr *Trace, chunkEvents int) *SliceStream {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	return &SliceStream{tr: tr, chunk: chunkEvents}
}

// Name implements Stream.
func (s *SliceStream) Name() string { return s.tr.Name }

// Next implements Stream.
func (s *SliceStream) Next() (*Chunk, error) {
	if s.done {
		return nil, nil
	}
	end := s.pos + s.chunk
	if end >= len(s.tr.Events) {
		end = len(s.tr.Events)
	}
	c := &Chunk{Events: s.tr.Events[s.pos:end], First: int64(s.pos)}
	if end == len(s.tr.Events) {
		// The final chunk carries the trace's operation totals.
		c.Ops, c.MOPs = s.tr.Ops, s.tr.MOPs
		s.done = true
	}
	s.pos = end
	return c, nil
}

// Recycle implements Stream. Slice chunks alias the trace; nothing to
// reuse.
func (s *SliceStream) Recycle(*Chunk) {}

// Close implements Stream.
func (s *SliceStream) Close() { s.done = true }

// PullStream produces a trace chunk by chunk on the consumer's
// goroutine: Next takes a recycled chunk (or allocates one), sets its
// First, and calls the stream's fill function to append the next
// events. Nothing runs between calls to Next, so there is no goroutine
// to stop and no channel to drain, and a stream holds no more chunks
// than its consumer does at once: one, for a consumer that recycles
// each chunk before it asks for the next.
type PullStream struct {
	name  string
	fill  func(*Chunk) error
	chunk int      // events per chunk
	free  []*Chunk // recycled chunks
	next  int64    // global index of the next event
	done  bool
	err   error
}

// NewPullStream returns a stream whose chunks fill produces.
// chunkEvents <= 0 selects DefaultChunkEvents. fill receives an empty
// chunk with room for chunkEvents events and First already set; it
// appends the next events of the trace, adding their operation counts
// to Ops and MOPs, until the chunk is full or the trace ends. A chunk
// fill leaves short ends the stream. So does an error, which Next
// returns after delivering the events fill appended before it.
func NewPullStream(name string, chunkEvents int, fill func(*Chunk) error) *PullStream {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	return &PullStream{name: name, fill: fill, chunk: chunkEvents}
}

// Name implements Stream.
func (s *PullStream) Name() string { return s.name }

// Next implements Stream. An empty chunk is never delivered.
func (s *PullStream) Next() (*Chunk, error) {
	if s.done {
		return nil, s.err
	}
	var c *Chunk
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1], s.free[:n-1]
	} else {
		c = &Chunk{Events: make([]Event, 0, s.chunk)}
	}
	c.First = s.next
	err := s.fill(c)
	s.next += int64(len(c.Events))
	if err != nil || len(c.Events) < s.chunk {
		s.done, s.err = true, err
	}
	if len(c.Events) == 0 {
		s.Recycle(c)
		return nil, s.err
	}
	return c, nil
}

// Recycle implements Stream: the chunk is reset and kept for a later
// Next to refill.
func (s *PullStream) Recycle(c *Chunk) {
	if c == nil {
		return
	}
	c.Events = c.Events[:0]
	c.Ops, c.MOPs, c.First = 0, 0, 0
	s.free = append(s.free, c)
}

// Close implements Stream: later calls to Next report the end of the
// stream without calling fill again.
func (s *PullStream) Close() { s.done = true }

// Collect drains a stream into a materialized Trace — the reassembly
// half of the chunker round-trip, used by tests and by callers that
// need random access after streaming.
func Collect(s Stream) (*Trace, error) {
	tr := &Trace{Name: s.Name()}
	for {
		c, err := s.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			return tr, nil
		}
		tr.Events = append(tr.Events, c.Events...)
		tr.Ops += c.Ops
		tr.MOPs += c.MOPs
		s.Recycle(c)
	}
}

// ValidateChunk checks that every event of one chunk references blocks
// inside [0, numBlocks) — the per-chunk precondition Sim.RunStream
// enforces before replaying a chunk. Offsets in errors are
// absolute event indices (Chunk.First-relative), never chunk-local. A
// program too large for packed events (CheckBlocks) is rejected before
// any event is read.
func ValidateChunk(c *Chunk, numBlocks int) error {
	if err := CheckBlocks(numBlocks); err != nil {
		return err
	}
	for i, e := range c.Events {
		if b := e.Block(); b < 0 || b >= numBlocks {
			return fmt.Errorf("%w: event %d references block %d of %d",
				ErrMalformedTrace, c.First+int64(i), b, numBlocks)
		}
		if n := e.Next(); n != End && (n < 0 || n >= numBlocks) {
			return fmt.Errorf("%w: event %d has bad successor %d",
				ErrMalformedTrace, c.First+int64(i), n)
		}
	}
	return nil
}

// ValidateStreamRefs drains a stream, checking every chunk with
// ValidateChunk. It is the streaming face of Trace.ValidateRefs.
func ValidateStreamRefs(s Stream, numBlocks int) error {
	for {
		c, err := s.Next()
		if err != nil {
			return err
		}
		if c == nil {
			return nil
		}
		verr := ValidateChunk(c, numBlocks)
		s.Recycle(c)
		if verr != nil {
			return verr
		}
	}
}

// ValidateStream drains a stream, checking references (ValidateChunk)
// and successor-chain consistency across chunk boundaries: each event's
// Next must name the block the following event executes, wherever the
// chunk seams fall. It is the streaming face of Trace.Validate.
func ValidateStream(s Stream, numBlocks int) error {
	havePrev := false
	var prev Event
	var prevIdx int64
	for {
		c, err := s.Next()
		if err != nil {
			return err
		}
		if c == nil {
			return nil
		}
		verr := ValidateChunk(c, numBlocks)
		if verr == nil {
			for i, e := range c.Events {
				idx := c.First + int64(i)
				if havePrev && prev.Next() != e.Block() {
					verr = fmt.Errorf("%w: event %d Next=%d but event %d executes %d",
						ErrMalformedTrace, prevIdx, prev.Next(), idx, e.Block())
					break
				}
				prev, prevIdx, havePrev = e, idx, true
			}
		}
		s.Recycle(c)
		if verr != nil {
			return verr
		}
	}
}

// BlockCountsStream drains a stream into per-block execution counts —
// the streaming face of Trace.BlockCounts. Events referencing blocks
// outside [0, numBlocks) return an error wrapping ErrMalformedTrace.
func BlockCountsStream(s Stream, numBlocks int) ([]int64, error) {
	counts := make([]int64, numBlocks)
	for {
		c, err := s.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			return counts, nil
		}
		verr := ValidateChunk(c, numBlocks)
		if verr == nil {
			for _, e := range c.Events {
				counts[e.Block()]++
			}
		}
		s.Recycle(c)
		if verr != nil {
			return nil, verr
		}
	}
}
