// Package trace defines the dynamic block-granular instruction traces the
// IFetch simulators consume. The paper's compiler annotates code so the
// YULA emulator emits an instruction address trace; here traces are
// produced by package emu (either by interpreting TEPIC semantics or by a
// profile-driven stochastic walk) and carry, per executed basic block, the
// branch outcome and the successor block.
package trace

import "fmt"

// End marks the absence of a successor block.
const End = -1

// MaxBlocks is the largest program, in basic blocks, whose traces an
// Event can describe. Every block ID and successor of such a program
// lies in [0, MaxBlocks), so it fits the packed form with room to spare;
// CheckBlocks rejects larger programs with ErrTooManyBlocks.
const MaxBlocks = 1<<30 - 1

// minRef is the lowest reference an Event can hold. Together with
// MaxBlocks it bounds the packed range [minRef, MaxBlocks].
const minRef = -(MaxBlocks + 1)

// ErrTooManyBlocks marks a program with more than MaxBlocks blocks. It
// wraps ErrMalformedTrace.
var ErrTooManyBlocks = fmt.Errorf("%w: program has too many blocks for a trace", ErrMalformedTrace)

// CheckBlocks returns an error wrapping ErrTooManyBlocks when a program
// of numBlocks blocks is too large for its traces to be packed into
// Events. Trace producers call it before they build a single event.
func CheckBlocks(numBlocks int) error {
	if numBlocks > MaxBlocks {
		return fmt.Errorf("%w: %d blocks, limit %d", ErrTooManyBlocks, numBlocks, MaxBlocks)
	}
	return nil
}

// Event is one basic-block execution, packed into two int32 words so a
// materialized trace costs 8 bytes per event. The first word holds the
// executed block shifted left by one, with the terminating branch
// outcome in bit 0; the second holds the successor.
type Event struct {
	blockTaken int32
	next       int32
}

// MakeEvent packs one block execution: the global block ID executed,
// its terminating branch outcome (false for fall-through) and the block
// executed next, or End. A reference outside the packed range
// [-(MaxBlocks+1), MaxBlocks] saturates to the nearer bound, which lies
// outside [0, numBlocks) for every program CheckBlocks accepts, so the
// validators reject such an event instead of reading a truncated block.
func MakeEvent(block int, taken bool, next int) Event {
	bt := pack(block) << 1
	if taken {
		bt |= 1
	}
	return Event{blockTaken: bt, next: pack(next)}
}

// pack saturates a block reference to the packed range.
func pack(ref int) int32 {
	return int32(min(max(ref, minRef), MaxBlocks))
}

// Block returns the global block ID executed.
//
//tepic:hotpath
func (e Event) Block() int { return int(e.blockTaken >> 1) }

// Taken returns the terminating branch outcome (false for fall-through).
//
//tepic:hotpath
func (e Event) Taken() bool { return e.blockTaken&1 != 0 }

// Next returns the block executed next, or End.
//
//tepic:hotpath
func (e Event) Next() int { return int(e.next) }

// SetNext replaces the successor, saturating like MakeEvent. Producers
// use it to patch a window's final event to End.
func (e *Event) SetNext(next int) { e.next = pack(next) }

// Trace is a sequence of block executions for one program.
type Trace struct {
	Name   string
	Events []Event
	Ops    int64 // total dynamic operations
	MOPs   int64 // total dynamic MOPs (fetch cycles at 1 MOP/cycle)
}

// Len returns the number of block executions.
func (t *Trace) Len() int { return len(t.Events) }

// Validate checks that every block reference is in range (ValidateRefs)
// and that successor links are consistent: each event's Next must name
// the block the following event executes. Errors wrap ErrMalformedTrace;
// a program too large for packed events fails with ErrTooManyBlocks.
func (t *Trace) Validate(numBlocks int) error {
	return ValidateStream(NewSliceStream(t, 0), numBlocks)
}

// ValidateRefs checks only that every event's block references lie
// inside [0, numBlocks): the executed block, and the successor (which may
// also be End). Unlike Validate it does not require the successor chain
// to be consistent, so stitched or concatenated traces (whose seam events
// name a Next that differs from the following event) still pass — this
// is the precondition the IFetch simulators enforce before replay.
// Errors wrap ErrMalformedTrace; a program too large for packed events
// fails with ErrTooManyBlocks.
func (t *Trace) ValidateRefs(numBlocks int) error {
	return ValidateStreamRefs(NewSliceStream(t, 0), numBlocks)
}

// BlockCounts returns per-block execution counts. Unlike the streaming
// face (BlockCountsStream) it does not reject out-of-range references;
// callers are expected to have validated the trace first.
func (t *Trace) BlockCounts(numBlocks int) []int64 {
	counts := make([]int64, numBlocks)
	for _, e := range t.Events {
		counts[e.Block()]++
	}
	return counts
}

// Footprint returns how many distinct blocks the trace touches.
func (t *Trace) Footprint(numBlocks int) int {
	seen := make([]bool, numBlocks)
	n := 0
	for _, e := range t.Events {
		if b := e.Block(); !seen[b] {
			seen[b] = true
			n++
		}
	}
	return n
}
