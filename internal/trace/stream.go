package trace

import (
	"errors"
	"fmt"
	"sync"
)

// This file is the streaming face of the package: a trace delivered as a
// bounded sequence of fixed-capacity chunks instead of one in-memory
// []Event slice. Producers (emu.StochasticStream, or any generator that
// fills a ChanStream) hand chunks across a bounded channel; consumers
// (Sim.RunStream, the stream validators below) replay them
// incrementally and recycle each chunk onto the stream's bounded free
// list, so peak memory is set by the chunk size and channel depth —
// never by the trace length. SliceStream adapts an already materialized
// Trace to the same interface with zero-copy subslice chunks, which is
// how the slice APIs (Validate, BlockCounts, Footprint, Sim.Run) share
// one incremental implementation with the long-horizon streaming paths.

// DefaultChunkEvents is the chunk capacity streams use when the caller
// passes a non-positive size: large enough to amortize per-chunk
// overhead, small enough that a handful of in-flight chunks stay in
// cache (8192 events x 24 B = 192 KB per chunk).
const DefaultChunkEvents = 8192

// DefaultStreamDepth is the producer/consumer channel depth used when
// the caller passes a non-positive depth: enough slack that a bursty
// producer and a bursty consumer overlap, while bounding in-flight
// chunks (and with them peak memory) to depth+2 chunks.
const DefaultStreamDepth = 4

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
// pooled and reused for later chunks. Next is single-consumer;
// Recycle is safe from any goroutine. Close abandons the stream early,
// releasing the producer; it is idempotent and implied by draining the
// stream to its end.
type Stream interface {
	// Name labels the trace (the benchmark name).
	Name() string
	// Next returns the next chunk, or (nil, nil) at end of stream, or
	// (nil, err) when the producer failed.
	Next() (*Chunk, error)
	// Recycle returns a chunk to the stream for reuse. The caller must
	// not touch the chunk afterwards.
	Recycle(*Chunk)
	// Close abandons the stream, unblocking its producer.
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

// ChanStream is the consumer half of a bounded producer/consumer trace
// stream: a producer goroutine fills fixed-capacity chunks through the
// paired Producer and hands them across a bounded channel. Recycled
// chunks return to a free list of depth+2 slots — the most chunks a
// stream ever has in flight — and are reused by the producer, so a
// stream allocates at most depth+2 chunks no matter how many events
// flow through it. The free list belongs to the stream alone and is
// garbage as soon as the stream is. A per-stream pool from package sync
// would not be: the runtime keeps every pool reachable until the next
// collection and its victim cache until the one after, so finished
// streams' chunks would pile up whenever the consumer stops producing
// garbage of its own.
type ChanStream struct {
	name  string
	ch    chan *Chunk
	errc  chan error
	stop  chan struct{}
	free  chan *Chunk
	chunk int // events per chunk

	once sync.Once
	done bool
	err  error
}

// Producer is the filling half of a ChanStream. Exactly one goroutine
// may use it: Append events until the trace is complete (or Append
// reports the consumer abandoned the stream), then Close it exactly
// once with the terminal error, nil for a clean end of stream.
type Producer struct {
	s    *ChanStream
	cur  *Chunk
	next int64 // global index of the next appended event
}

// NewChanStream returns a bounded stream and its producer.
// chunkEvents <= 0 selects DefaultChunkEvents; depth <= 0 selects
// DefaultStreamDepth. Peak memory is (depth+2) chunks: depth in the
// channel, one being filled, one being consumed.
func NewChanStream(name string, chunkEvents, depth int) (*ChanStream, *Producer) {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	if depth <= 0 {
		depth = DefaultStreamDepth
	}
	s := &ChanStream{
		name:  name,
		ch:    make(chan *Chunk, depth),
		errc:  make(chan error, 1),
		stop:  make(chan struct{}, 1),
		free:  make(chan *Chunk, depth+2),
		chunk: chunkEvents,
	}
	return s, &Producer{s: s}
}

// Name implements Stream.
func (s *ChanStream) Name() string { return s.name }

// Next implements Stream.
func (s *ChanStream) Next() (*Chunk, error) {
	if s.done {
		return nil, s.err
	}
	c, ok := <-s.ch
	if !ok {
		s.done = true
		s.err = <-s.errc
		return nil, s.err
	}
	return c, nil
}

// Recycle implements Stream: the chunk is reset and returned to the
// free list for the producer to refill. A chunk arriving at a full
// free list is dropped for the collector.
func (s *ChanStream) Recycle(c *Chunk) {
	if c == nil {
		return
	}
	c.Events = c.Events[:0]
	c.Ops, c.MOPs, c.First = 0, 0, 0
	select {
	case s.free <- c:
	default:
	}
}

// get takes a recycled chunk from the free list, or allocates a fresh
// one when none is waiting.
func (s *ChanStream) get() *Chunk {
	select {
	case c := <-s.free:
		return c
	default:
		return &Chunk{Events: make([]Event, 0, s.chunk)}
	}
}

// Close implements Stream: it signals the producer to stop. Safe to
// call at any time, from the consumer side only.
func (s *ChanStream) Close() {
	s.once.Do(func() { close(s.stop) })
}

// Append adds one event (with its dynamic operation counts) to the
// stream, flushing a chunk to the consumer whenever one fills. It
// reports false when the consumer closed the stream — the producer
// should stop generating and Close.
func (p *Producer) Append(ev Event, ops, mops int64) bool {
	if p.cur == nil {
		p.cur = p.s.get()
		p.cur.First = p.next
	}
	p.cur.Events = append(p.cur.Events, ev)
	p.cur.Ops += ops
	p.cur.MOPs += mops
	p.next++
	if len(p.cur.Events) < p.s.chunk {
		return true
	}
	return p.flush()
}

// flush hands the current chunk to the consumer, honouring an early
// consumer Close.
func (p *Producer) flush() bool {
	if p.cur == nil || len(p.cur.Events) == 0 {
		return true
	}
	select {
	case p.s.ch <- p.cur:
		p.cur = nil
		return true
	case <-p.s.stop:
		p.s.Recycle(p.cur)
		p.cur = nil
		return false
	}
}

// Close flushes any partial chunk and terminates the stream with err
// (nil for a clean end). It must be called exactly once, after which
// the Producer must not be used.
func (p *Producer) Close(err error) {
	p.flush()
	p.s.errc <- err
	close(p.s.ch)
}

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
// absolute event indices (Chunk.First-relative), never chunk-local.
func ValidateChunk(c *Chunk, numBlocks int) error {
	for i, e := range c.Events {
		if e.Block < 0 || e.Block >= numBlocks {
			return fmt.Errorf("%w: event %d references block %d of %d",
				ErrMalformedTrace, c.First+int64(i), e.Block, numBlocks)
		}
		if e.Next != End && (e.Next < 0 || e.Next >= numBlocks) {
			return fmt.Errorf("%w: event %d has bad successor %d",
				ErrMalformedTrace, c.First+int64(i), e.Next)
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
				if havePrev && prev.Next != e.Block {
					verr = fmt.Errorf("%w: event %d Next=%d but event %d executes %d",
						ErrMalformedTrace, prevIdx, prev.Next, idx, e.Block)
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
				counts[e.Block]++
			}
		}
		s.Recycle(c)
		if verr != nil {
			return nil, verr
		}
	}
}

// FootprintStream drains a stream and reports how many distinct blocks
// it touches — the streaming face of Trace.Footprint.
func FootprintStream(s Stream, numBlocks int) (int, error) {
	counts, err := BlockCountsStream(s, numBlocks)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n, nil
}
