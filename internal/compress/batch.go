package compress

import (
	"fmt"
	"slices"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/isa"
)

// BatchDecoder is the allocation-free batch decode face of a Huffman
// scheme: many blocks decoded in one call, one after another, through
// the lane kernel's block decoder — the one every served block decode
// runs. Every block starts byte-aligned (§3.3), so each decodes from its
// own address with the schedule at phase 0.
//
// DecodeRun decodes the blocks described by parallel slices addrs
// (byte address of each block's first codeword in data) and counts
// (operations per block), BatchSymbols(counts[i]) symbols each, and
// discards the symbols: the throughput-measurement shape. It returns
// the symbols decoded and the total code bits consumed (both summed
// through the first failing block, whose terminal error — bit-identical
// to the reference decoder's — is returned). Steady-state calls
// allocate nothing.
type BatchDecoder interface {
	// BatchSymbols returns the Huffman symbol count of an n-op block.
	BatchSymbols(n int) int
	// DecodeRun batch-decodes blocks; see the interface comment.
	DecodeRun(data []byte, addrs, counts []int) (syms, bits int64, err error)
	// Kernel exposes the scheme's prebuilt lane decoder — the memoized
	// decode-table artifact (its TableEntries is the footprint the
	// decoder-complexity model charges).
	Kernel() *huffman.LaneDecoder
}

// The DecodeRun implementations below are thin adapters over
// huffman.(*LaneDecoder).DecodeBlocks: each passes its
// scheme's affine symbol-count map need = (n*mul + add) / div as
// constants (see DecodeBlocks for why it is not a closure):
//
//	stream: (n*nsegs + 0) / 1      one symbol per segment per op (full: nsegs = 1)
//	byte:   (n*isa.OpBits + 7) / 8 one symbol per packed byte

// BatchSymbols implements BatchDecoder: one symbol per packed byte.
func (e *ByteHuffman) BatchSymbols(n int) int { return (n*isa.OpBits + 7) / 8 }

// DecodeRun implements BatchDecoder.
func (e *ByteHuffman) DecodeRun(data []byte, addrs, counts []int) (int64, int64, error) {
	return e.lane.DecodeBlocks(data, addrs, counts, isa.OpBits, 7, 8)
}

// Kernel implements BatchDecoder.
func (e *ByteHuffman) Kernel() *huffman.LaneDecoder { return e.lane }

// BatchSymbols implements BatchDecoder: one symbol per segment per op.
func (e *StreamHuffman) BatchSymbols(n int) int { return n * len(e.tabs) }

// DecodeRun implements BatchDecoder. The kernel's schedule cycles the
// per-segment tables (segment codewords interleave in one bit stream
// per block).
func (e *StreamHuffman) DecodeRun(data []byte, addrs, counts []int) (int64, int64, error) {
	return e.lane.DecodeBlocks(data, addrs, counts, len(e.tabs), 0, 1)
}

// Kernel implements BatchDecoder.
func (e *StreamHuffman) Kernel() *huffman.LaneDecoder { return e.lane }

// blockAssembler is a Huffman scheme's half of decodeBlock: its lane
// kernel and symbol count (BatchDecoder), and how its symbols become
// op words.
type blockAssembler interface {
	BatchDecoder
	// unitSyms returns how many symbols of an n-op block the oracle
	// decodes before it assembles them into operations.
	unitSyms(n int) int
	// assemble turns one unit's symbols into checked op words (see
	// isa.CheckWord), stores them from words[0] on and returns how
	// many it stored. words may alias syms as long as it starts at or
	// before it: each word is stored only after its symbols are read,
	// and a unit never yields more words than it has symbols.
	assemble(words, syms []uint64) (int, error)
}

// decodeBlock is the block decoder of every Huffman scheme: the block's
// BatchSymbols(n) symbols decode through the kernel's single-stream
// face (LaneDecoder.Decode) into the spare capacity of dst, then
// assemble turns them into op words a unit at a time, in place: word i
// lands at or before symbol i*unit, whose symbols it has already read.
// A unit is what the oracle (ReferenceDecodeBlock) decodes before it
// assembles: one operation's symbols for the stream and whole-op
// schemes, the whole block for byte. The result matches the oracle's in
// operations, error and reader offset. A unit that fails to assemble
// ends the oracle's decode before any codeword error later in the
// block, so its error wins, and the kernel is re-run from the block
// start through that unit to leave the reader where the oracle's stops.
// A codeword error leaves the reader at the kernel's terminal, which is
// the oracle's. On an error dst returns with its contents untouched.
func decodeBlock(a blockAssembler, r *bitio.Reader, n int, dst []uint64) ([]uint64, error) {
	start, base, nsyms := r.Offset(), len(dst), a.BatchSymbols(n)
	buf := slices.Grow(dst, nsyms)[:base+nsyms]
	syms := buf[base:]
	got, lerr := runLane(a.Kernel(), r, start, syms)
	unit := a.unitSyms(n)
	words := 0
	for u := 0; unit > 0 && u+unit <= got; u += unit {
		k, err := a.assemble(syms[words:], syms[u:u+unit])
		if err != nil {
			if _, rerr := runLane(a.Kernel(), r, start, syms[:u+unit]); rerr != nil {
				return dst, rerr
			}
			return dst, err
		}
		words += k
	}
	if lerr != nil {
		return dst, lerr
	}
	return buf[:base+words], nil
}

// runLane decodes len(syms) symbols into syms through k's single-stream
// face, starting at bit start of r's source, and leaves r after the
// last bit the kernel consumed. It returns the symbols decoded and the
// stream's terminal error.
func runLane(k *huffman.LaneDecoder, r *bitio.Reader, start int, syms []uint64) (int, error) {
	n, end, err := k.Decode(r.Source(), start, syms)
	if serr := r.SeekBit(end); serr != nil {
		return n, serr
	}
	return n, err
}

// unitSyms implements blockAssembler: the oracle decodes every byte of
// the block before it unpacks any operation.
func (e *ByteHuffman) unitSyms(n int) int { return e.BatchSymbols(n) }

// assemble implements blockAssembler: each operation is its
// isa.OpBits/8 bytes, most significant first, with isa.UnpackOps' "op i"
// error wrapping.
func (e *ByteHuffman) assemble(words, syms []uint64) (int, error) {
	const opBytes = isa.OpBits / 8
	k := 0
	for i := 0; i+opBytes <= len(syms); i += opBytes {
		var word uint64
		for _, b := range syms[i : i+opBytes] {
			word = word<<8 | b
		}
		word, err := isa.CheckWord(word)
		if err != nil {
			return k, fmt.Errorf("op %d: %w", k, err)
		}
		words[k] = word
		k++
	}
	return k, nil
}

// unitSyms implements blockAssembler: one symbol per segment.
func (e *StreamHuffman) unitSyms(int) int { return len(e.segs) }

// assemble implements blockAssembler.
func (e *StreamHuffman) assemble(words, syms []uint64) (int, error) {
	var word uint64
	for si, seg := range e.segs {
		word = word<<uint(seg[1]-seg[0]) | syms[si]
	}
	word, err := isa.CheckWord(word)
	if err != nil {
		return 0, err
	}
	words[0] = word
	return 1, nil
}
