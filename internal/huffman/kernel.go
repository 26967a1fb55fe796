package huffman

import (
	"fmt"

	"repro/internal/bitio"
)

// LaneDecoder is the table-schedule kernel beneath FastDecoder: Decode
// runs one stream with its cursor in locals, and it is the block
// decoder of every Huffman scheme. DecodeBlocks runs it over many
// blocks for the throughput measurement.
//
// The schedule is the kernel's second axis: sched lists the fast tables
// cycled per symbol. A whole-op scheme passes one table; the stream
// schemes pass their per-segment tables in segment order, because a
// stream-encoded operation is segment codewords interleaved in one bit
// stream (seg0 op0, seg1 op0, ..., seg0 op1) — the segments share a
// cursor and alternate tables.
//
// Symbols, consumed-bit offsets, and both error terminals are
// bit-identical to FastDecoder (and so to the reference Decoder): the
// equivalence is enforced per stream by the differential harness and
// FuzzLaneDecodeEquivalence.
type LaneDecoder struct {
	sched []*FastDecoder
}

// blockChunk is the length, in symbols, of DecodeBlocks' stack buffer,
// and so the longest schedule a LaneDecoder accepts. 240 is a multiple
// of every schedule length up to 6, the common ones.
const blockChunk = 240

// NewLaneDecoder builds a kernel over the per-symbol table schedule.
// The schedule needs between one and blockChunk tables, and every
// table's longest code must fit the 56-bit in-register window; the
// compression schemes bound codes at isa.OpBits, and a FastDecoder for
// longer codes could not be built in memory anyway.
func NewLaneDecoder(sched ...*FastDecoder) *LaneDecoder {
	if len(sched) == 0 || len(sched) > blockChunk {
		panic(fmt.Sprintf("huffman: lane decoder needs 1 to %d tables, got %d", blockChunk, len(sched)))
	}
	for i, fd := range sched {
		if fd == nil {
			panic(fmt.Sprintf("huffman: lane decoder schedule entry %d is nil", i))
		}
		if fd.maxLen > 56 {
			panic(fmt.Sprintf("huffman: lane decoder schedule entry %d has %d-bit codes, over the 56-bit window", i, fd.maxLen))
		}
	}
	return &LaneDecoder{sched: append([]*FastDecoder(nil), sched...)}
}

// Tables returns the number of tables in the per-symbol schedule.
func (k *LaneDecoder) Tables() int { return len(k.sched) }

// TableEntries returns the total lookup-table footprint of the schedule
// in 4-byte entries — the artifact the decode-plan cache memoizes.
func (k *LaneDecoder) TableEntries() int {
	n := 0
	for _, fd := range k.sched {
		n += fd.TableEntries()
	}
	return n
}

// Decode decodes len(out) symbols of one stream into out, starting at
// absolute bit offset bit of data with the schedule at phase 0. It
// returns the symbols decoded, the offset of the stream's next
// unconsumed bit and its terminal error, if decoding failed: all three
// equal the per-symbol FastDecoder path's from the same start, the
// terminal's consumed bits included. A start outside data decodes
// nothing and returns bit with the cursor's ErrExhausted error.
//
// It is the Huffman schemes' block decoder (compress's DecodeWords, one
// call per block, which /v1/decode runs on every block). The cursor and
// the schedule phase are locals, not fields of a caller-held struct, so
// the per-symbol bookkeeping need not round-trip through the heap.
//
//tepic:hotpath
func (k *LaneDecoder) Decode(data []byte, bit int, out []uint64) (n, end int, err error) {
	var c bitio.Cursor
	if err := c.Init(data, bit); err != nil {
		return 0, bit, err
	}
	sched := k.sched
	ti := 0
	for n < len(out) {
		fd := sched[ti]
		if c.Buffered() < 56 {
			c.Refill()
		}
		e := fd.root[c.Peek(fd.rootBits)]
		if e&fastSubFlag != 0 {
			bits := int(e & fastLenMask)
			w := c.Peek(fd.rootBits + bits)
			e = fd.sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(bits)-1))]
		}
		cl := int(e & fastLenMask)
		if cl == 0 || cl > c.Buffered() {
			err = laneFail(&c, fd) // before Offset: the terminal consumes bits
			return n, c.Offset(), err
		}
		c.Skip(cl)
		out[n] = fd.syms[e>>6]
		n++
		if ti++; ti == len(sched) {
			ti = 0
		}
	}
	return n, c.Offset(), nil
}

// laneFail mirrors FastDecoder.fail on a cursor, consuming the same
// bits the reference decoder's terminals would: everything that remains
// when the stream ends mid-codeword, exactly maxLen bits when they
// match no codeword. Reached only after a Refill, so a non-truncated
// failure always has maxLen bits buffered (NewLaneDecoder bounds maxLen
// at 56).
func laneFail(c *bitio.Cursor, fd *FastDecoder) error {
	start := c.Offset()
	if rem := c.Remaining(); rem < fd.maxLen {
		c.SkipAll()
		return errTruncated(start)
	}
	code := c.Peek(fd.maxLen)
	c.Skip(fd.maxLen)
	return errInvalid(code, start)
}

// DecodeBlocks is the allocation-free batch face over the kernel. It
// decodes the blocks described by parallel slices addrs (byte address
// of each block's first codeword in data) and counts (source operations
// per block), in block order, each through Decode — the same kernel
// every served block decode runs. A block's symbol count is the
// caller's affine map need = (n*mul + add) / div, passed as constants
// so the loop needs no per-scheme closure (closures are banned from the
// hot path and would allocate per call):
//
//	whole-op coding:  (n*1 + 0) / 1      one symbol per op
//	per-segment:      (n*nsegs + 0) / 1  one symbol per segment per op
//	per-byte:         (n*opbits + 7) / 8 one symbol per packed byte
//
// The symbols are discarded after the full decode work, the
// throughput-measurement shape: a block decodes into a stack buffer in
// chunks whose length is a multiple of the schedule's, so each chunk
// starts at phase 0 where the one before it stopped. It returns the
// symbols decoded and the total code bits consumed, both summed in
// block order through the first failing block (whose partial symbols
// count), then that block's terminal error. A block whose address lies
// outside data, even one of zero symbols, ends the scan with the
// Reader's seek error, after the totals of the blocks before it.
// Steady-state calls allocate nothing.
//
//tepic:hotpath
func (k *LaneDecoder) DecodeBlocks(data []byte, addrs, counts []int, mul, add, div int) (syms, bits int64, err error) {
	var buf [blockChunk]uint64
	chunk := buf[:blockChunk-blockChunk%len(k.sched)]
	r := bitio.MakeReader(data)
	for i, a := range addrs {
		if err := r.SeekBit(a * 8); err != nil {
			return syms, bits, err
		}
		bit := a * 8
		for want := (counts[i]*mul + add) / div; want > 0; want -= len(chunk) {
			n, end, err := k.Decode(data, bit, chunk[:min(want, len(chunk))])
			syms += int64(n)
			bits += int64(end - bit)
			if err != nil {
				return syms, bits, err
			}
			bit = end
		}
	}
	return syms, bits, nil
}
