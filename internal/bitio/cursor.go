package bitio

import (
	"encoding/binary"
	"fmt"
)

// Cursor is an independent peek/consume position over one byte stream:
// a register-resident bit window that many cursors can hold over the
// same backing slice at once. Where Reader owns its stream — seeking,
// reading, and error-checking one position — Cursor is the primitive
// beneath the Huffman lane kernel, which keeps it in locals so the
// per-symbol bookkeeping need not round-trip through the heap.
//
// The representation is the Giesen branchless-refill window: buf holds
// the next stream bits left-aligned (the next unconsumed bit is buf's
// bit 63), cnt counts how many of them are consumable, next is the
// first byte of data not yet counted, and off is the absolute bit
// offset of the next unconsumed bit. The refill arithmetic preserves
//
//	8*next == off + cnt
//
// exactly: counted bits always end on the byte boundary at next. Bits
// of buf past cnt are either zero or duplicates of bytes at index
// >= next, so re-loading them is idempotent — and once every byte is
// counted they are all zero, which is what makes Peek past the end of
// the stream behave as if the stream were zero-padded (matching
// Reader.PeekBits).
//
// Cursor trades Reader's per-call safety for speed: Peek and Skip trust
// their callers (see their contracts) and are kept trivially inlinable.
// The safety net is differential — TestCursorReaderEquivalence and
// FuzzCursorReaderEquivalence hold a Cursor and a Reader over the same
// stream and require identical bits, offsets, and remaining counts at
// every step.
type Cursor struct {
	data []byte
	buf  uint64 // next stream bits, left-aligned; next unconsumed bit at bit 63
	next int    // first byte index not yet counted into buf
	cnt  int    // consumable bits buffered in buf
	off  int    // absolute bit offset of the next unconsumed bit
}

// Init positions the cursor at an absolute bit offset from the start of
// data. Offsets in [0, 8*len(data)] are valid (the end of the stream is
// a legal, exhausted position); anything else reports ErrExhausted. A
// Cursor may be re-initialized freely — Init overwrites all state.
func (c *Cursor) Init(data []byte, bit int) error {
	if bit < 0 || bit > 8*len(data) {
		return fmt.Errorf("%w: cursor init at bit %d outside stream of %d bits",
			ErrExhausted, bit, 8*len(data))
	}
	c.data = data
	c.buf = 0
	c.next = bit >> 3
	c.cnt = 0
	c.off = bit
	if rem := bit & 7; rem != 0 {
		// Load the tail of the partially consumed byte so counted bits
		// land back on a byte boundary: 8*next == off + cnt.
		c.buf = uint64(c.data[c.next]) << uint(56+rem)
		c.cnt = 8 - rem
		c.next++
	}
	return nil
}

// SeekBit repositions the cursor at an absolute bit offset of its
// current stream, with Init's bounds contract. It exists so callers
// holding cursors in stack arrays can resync one without re-passing the
// data slice: a data parameter stored through the pointer receiver
// would read, to the compiler's escape analysis, as the caller's array
// leaking to the heap.
func (c *Cursor) SeekBit(bit int) error {
	if bit < 0 || bit > 8*len(c.data) {
		return fmt.Errorf("%w: cursor seek to bit %d outside stream of %d bits",
			ErrExhausted, bit, 8*len(c.data))
	}
	c.buf = 0
	c.next = bit >> 3
	c.cnt = 0
	c.off = bit
	if rem := bit & 7; rem != 0 {
		c.buf = uint64(c.data[c.next]) << uint(56+rem)
		c.cnt = 8 - rem
		c.next++
	}
	return nil
}

// Refill tops the window up to at least 56 consumable bits, or to the
// end of the stream, whichever comes first. The hot path ORs one
// big-endian word over the window top (branchless: the byte advance and
// the new count fall out of the old count's remainder mod 8); only the
// last seven bytes of the stream take the byte loop.
//
//tepic:hotpath
func (c *Cursor) Refill() {
	if len(c.data)-c.next >= 8 {
		c.buf |= binary.BigEndian.Uint64(c.data[c.next:]) >> uint(c.cnt)
		c.next += (63 - c.cnt) >> 3
		c.cnt |= 56
		return
	}
	c.refillTail()
}

// refillTail is Refill within the last word of the stream: byte loads
// until the window is full or every byte is counted. When it leaves
// next == len(data), cnt equals Remaining() exactly and all bits of buf
// past cnt are zero.
//
//tepic:hotpath
func (c *Cursor) refillTail() {
	for c.next < len(c.data) && c.cnt <= 56 {
		c.buf |= uint64(c.data[c.next]) << uint(56-c.cnt)
		c.cnt += 8
		c.next++
	}
}

// Peek returns the next width bits, MSB first, zero-padded past the end
// of the buffered window. Width must be in [1, 64]; the caller bounds
// real (consumable) bits by Buffered. Peek does not refill — pair it
// with Refill in the decode loop.
//
//tepic:hotpath
func (c *Cursor) Peek(width int) uint64 {
	return c.buf >> uint(64-width)
}

// Skip consumes width bits. The caller must ensure width <= Buffered();
// the kernel's decode loop guarantees it by testing code lengths
// against Buffered before consuming.
//
//tepic:hotpath
func (c *Cursor) Skip(width int) {
	c.buf <<= uint(width)
	c.cnt -= width
	c.off += width
}

// SkipAll consumes every remaining bit, leaving the cursor exhausted at
// the end of the stream — the truncated-codeword terminal, which must
// consume everything that remains (see huffman errTruncated).
//
//tepic:hotpath
func (c *Cursor) SkipAll() {
	c.buf = 0
	c.cnt = 0
	c.next = len(c.data)
	c.off = 8 * len(c.data)
}

// Buffered returns the number of consumable bits currently in the
// window (at most 63; Refill raises it to >= 56 or to Remaining).
func (c *Cursor) Buffered() int { return c.cnt }

// Offset returns the absolute bit offset of the next unconsumed bit —
// the same accounting as Reader.Offset after a SeekBit to the cursor's
// start.
func (c *Cursor) Offset() int { return c.off }

// Remaining returns the number of unconsumed bits left in the stream.
func (c *Cursor) Remaining() int { return 8*len(c.data) - c.off }

// Source returns the cursor's backing byte slice (read-only).
func (c *Cursor) Source() []byte { return c.data }
