package compress

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/isa"
)

// ErrShortBatchOutput reports a DecodeRun output buffer smaller than
// the batch's total symbol count (see BatchDecoder.BatchSymbols). It is
// the kernel's huffman.ErrShortOutput, re-exported at this layer.
var ErrShortBatchOutput = huffman.ErrShortOutput

// BatchDecoder is the allocation-free batch decode face of a Huffman
// scheme: many blocks decoded in one call through the lane-parallel
// kernel, up to huffman.MaxLanes blocks interleaved at a time. Blocks
// are the lane axis — every block starts byte-aligned (§3.3) and its
// symbol stream is independent of every other block's, so N cursors
// over one image decode N blocks with their table loads overlapped.
//
// DecodeRun decodes the blocks described by parallel slices addrs
// (byte address of each block's first codeword in data) and counts
// (operations per block). When out is non-nil the decoded symbols land
// in out, blocks in order, BatchSymbols(counts[i]) symbols each; a nil
// out discards symbols through stack scratch, the throughput-
// measurement shape. It returns the symbols decoded and the total code
// bits consumed (both summed through the first failing block, whose
// terminal error — bit-identical to the reference decoder's — is
// returned). Steady-state calls allocate nothing on either path.
type BatchDecoder interface {
	// BatchSymbols returns the Huffman symbol count of an n-op block.
	BatchSymbols(n int) int
	// DecodeRun batch-decodes blocks; see the interface comment.
	DecodeRun(data []byte, addrs, counts []int, out []uint64) (syms, bits int64, err error)
	// Kernel exposes the scheme's prebuilt lane decoder — the memoized
	// decode-table artifact (its TableEntries is the footprint the
	// decoder-complexity model charges).
	Kernel() *huffman.LaneDecoder
}

// The DecodeRun implementations below are thin adapters over the
// kernel's huffman.(*LaneDecoder).DecodeBlocks engine: each passes its
// scheme's affine symbol-count map need = (n*mul + add) / div as
// constants (see DecodeBlocks for why it is not a closure):
//
//	full:   (n*1 + 0) / 1          one symbol per op
//	stream: (n*nsegs + 0) / 1      one symbol per segment per op
//	byte:   (n*isa.OpBits + 7) / 8 one symbol per packed byte

// BatchSymbols implements BatchDecoder: one symbol per packed byte.
func (e *ByteHuffman) BatchSymbols(n int) int { return (n*isa.OpBits + 7) / 8 }

// DecodeRun implements BatchDecoder.
func (e *ByteHuffman) DecodeRun(data []byte, addrs, counts []int, out []uint64) (int64, int64, error) {
	return e.lane.DecodeBlocks(data, addrs, counts, isa.OpBits, 7, 8, out)
}

// Kernel implements BatchDecoder.
func (e *ByteHuffman) Kernel() *huffman.LaneDecoder { return e.lane }

// BatchSymbols implements BatchDecoder: one symbol per segment per op.
func (e *StreamHuffman) BatchSymbols(n int) int { return n * len(e.tabs) }

// DecodeRun implements BatchDecoder. The kernel's schedule cycles the
// per-segment tables within each lane (segment codewords interleave in
// one bit stream per block), while the lanes themselves run over
// independent blocks — the axis that actually parallelizes.
func (e *StreamHuffman) DecodeRun(data []byte, addrs, counts []int, out []uint64) (int64, int64, error) {
	return e.lane.DecodeBlocks(data, addrs, counts, len(e.tabs), 0, 1, out)
}

// Kernel implements BatchDecoder.
func (e *StreamHuffman) Kernel() *huffman.LaneDecoder { return e.lane }

// BatchSymbols implements BatchDecoder: one symbol per op.
func (e *FullHuffman) BatchSymbols(n int) int { return n }

// DecodeRun implements BatchDecoder.
func (e *FullHuffman) DecodeRun(data []byte, addrs, counts []int, out []uint64) (int64, int64, error) {
	return e.lane.DecodeBlocks(data, addrs, counts, 1, 0, 1, out)
}

// Kernel implements BatchDecoder.
func (e *FullHuffman) Kernel() *huffman.LaneDecoder { return e.lane }

// blockAssembler is a Huffman scheme's half of decodeBlock: its lane
// kernel and symbol count (BatchDecoder), and how its symbols become
// operations.
type blockAssembler interface {
	BatchDecoder
	// unitSyms returns how many symbols of an n-op block the oracle
	// decodes before it assembles them into operations.
	unitSyms(n int) int
	// assemble appends the operations of one unit's symbols to ops.
	assemble(ops []isa.Op, syms []uint64) ([]isa.Op, error)
}

// decodeBlock is the block decoder of every Huffman scheme: the block's
// BatchSymbols(n) symbols decode in one lane of the scheme's kernel,
// then assemble turns them into operations a unit at a time. A unit is
// what the oracle (ReferenceDecodeBlock) decodes before it assembles:
// one operation's symbols for the stream and whole-op schemes, the
// whole block for byte. The result matches the oracle's in operations,
// error and reader offset. A unit that fails to assemble ends the
// oracle's decode before any codeword error later in the block, so its
// error wins, and the lane is re-run from the block start through that
// unit to leave the reader where the oracle's stops. A codeword error
// leaves the reader at the lane's terminal, which is the oracle's.
func decodeBlock(a blockAssembler, r *bitio.Reader, n int) ([]isa.Op, error) {
	start := r.Offset()
	syms := make([]uint64, a.BatchSymbols(n))
	got, lerr := runLane(a.Kernel(), r, start, syms)
	unit := a.unitSyms(n)
	ops := make([]isa.Op, 0, n)
	for u := 0; unit > 0 && u+unit <= got; u += unit {
		var err error
		if ops, err = a.assemble(ops, syms[u:u+unit]); err != nil {
			if _, rerr := runLane(a.Kernel(), r, start, syms[:u+unit]); rerr != nil {
				return nil, rerr
			}
			return nil, err
		}
	}
	if lerr != nil {
		return nil, lerr
	}
	return ops, nil
}

// runLane decodes len(syms) symbols into syms through one lane of k,
// starting at bit start of r's source, and leaves r after the last bit
// the lane consumed. It returns the symbols decoded and the lane's
// terminal error.
func runLane(k *huffman.LaneDecoder, r *bitio.Reader, start int, syms []uint64) (int, error) {
	var lane [1]huffman.Lane
	if err := lane[0].Init(r.Source(), start, syms); err != nil {
		return 0, err
	}
	k.Run(lane[:])
	if err := r.SeekBit(lane[0].Offset()); err != nil {
		return lane[0].Decoded(), err
	}
	return lane[0].Decoded(), lane[0].Err()
}

// unitSyms implements blockAssembler: the oracle decodes every byte of
// the block before it unpacks any operation.
func (e *ByteHuffman) unitSyms(n int) int { return e.BatchSymbols(n) }

// assemble implements blockAssembler: each operation is its
// isa.OpBits/8 bytes, most significant first, with isa.UnpackOps' "op i"
// error wrapping.
func (e *ByteHuffman) assemble(ops []isa.Op, syms []uint64) ([]isa.Op, error) {
	const opBytes = isa.OpBits / 8
	for i := 0; i+opBytes <= len(syms); i += opBytes {
		var word uint64
		for _, b := range syms[i : i+opBytes] {
			word = word<<8 | b
		}
		op, err := isa.Decode(word)
		if err != nil {
			return ops, fmt.Errorf("op %d: %w", i/opBytes, err)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// unitSyms implements blockAssembler: one symbol per segment.
func (e *StreamHuffman) unitSyms(int) int { return len(e.segs) }

// assemble implements blockAssembler.
func (e *StreamHuffman) assemble(ops []isa.Op, syms []uint64) ([]isa.Op, error) {
	var word uint64
	for si, seg := range e.segs {
		word = word<<uint(seg[1]-seg[0]) | syms[si]
	}
	op, err := isa.Decode(word)
	if err != nil {
		return ops, err
	}
	return append(ops, op), nil
}

// unitSyms implements blockAssembler: one symbol per operation.
func (e *FullHuffman) unitSyms(int) int { return 1 }

// assemble implements blockAssembler.
func (e *FullHuffman) assemble(ops []isa.Op, syms []uint64) ([]isa.Op, error) {
	op, err := isa.Decode(syms[0])
	if err != nil {
		return ops, err
	}
	return append(ops, op), nil
}
