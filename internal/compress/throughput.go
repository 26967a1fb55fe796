package compress

import (
	"repro/internal/bitio"
	"repro/internal/huffman"
)

// SymbolDecoder exposes the Huffman symbol stream beneath a scheme's
// block encoding for throughput measurement: both methods consume
// exactly the codewords DecodeBlock would for an n-op block, discarding
// the symbols instead of re-materializing operations, and return the
// number of symbols decoded. DecodeBlockSymbols runs the table-driven
// fast decoder, ReferenceDecodeBlockSymbols the bit-by-bit oracle, so
// the pair isolates the entropy-decode swap that the decode-throughput
// numbers in the benchmark reports quantify — isa.Decode would sit on
// both sides of the comparison and only dilute it.
//
// Measurement contract (shared with BatchDecoder.DecodeRun and
// core.MeasureDecodeThroughput): a timed decode pass charges ONLY
// per-symbol work to the hot loop. Everything built once per
// scheme×program — Huffman tables, FastDecoders, the lane kernel, and
// the core-side decode plan (block addresses/counts) — is constructed
// in the scheme constructors or fetched from the artifact cache before
// the timer starts, and every per-pass buffer is caller-owned stack or
// reused scratch. A face that allocated or built tables inside the
// timed region would understate the decoder and overstate the swap.
//
// The three faces measured per scheme are deliberately distinct tiers:
// reference (bit-by-bit oracle), fast (FastDecoder.Decode one symbol at
// a time through a Reader, the baseline the lane gain is quoted
// against), and batch (BatchDecoder.DecodeRun, the served block kernel
// over every block of the image in turn).
type SymbolDecoder interface {
	DecodeBlockSymbols(r *bitio.Reader, n int) (int, error)
	ReferenceDecodeBlockSymbols(r *bitio.Reader, n int) (int, error)
}

// fastSymbols is the fast tier of every Huffman scheme: nsyms symbols
// decoded one at a time through FastDecoder.Decode, cycling the
// per-symbol table schedule sched (one table for byte, the segment
// tables for the stream schemes, of which full has one). It returns the
// symbols decoded before any error.
func fastSymbols(r *bitio.Reader, nsyms int, sched ...*huffman.FastDecoder) (int, error) {
	t := 0
	for i := 0; i < nsyms; i++ {
		if _, err := sched[t].Decode(r); err != nil {
			return i, err
		}
		if t++; t == len(sched) {
			t = 0
		}
	}
	return nsyms, nil
}

// referenceSymbols is fastSymbols on the bit-by-bit oracle decoders.
func referenceSymbols(r *bitio.Reader, nsyms int, sched ...*huffman.Decoder) (int, error) {
	t := 0
	for i := 0; i < nsyms; i++ {
		if _, err := sched[t].Decode(r); err != nil {
			return i, err
		}
		if t++; t == len(sched) {
			t = 0
		}
	}
	return nsyms, nil
}

// DecodeBlockSymbols implements SymbolDecoder.
func (e *ByteHuffman) DecodeBlockSymbols(r *bitio.Reader, n int) (int, error) {
	return fastSymbols(r, e.BatchSymbols(n), e.fast)
}

// ReferenceDecodeBlockSymbols implements SymbolDecoder.
func (e *ByteHuffman) ReferenceDecodeBlockSymbols(r *bitio.Reader, n int) (int, error) {
	return referenceSymbols(r, e.BatchSymbols(n), e.dec)
}

// DecodeBlockSymbols implements SymbolDecoder.
func (e *StreamHuffman) DecodeBlockSymbols(r *bitio.Reader, n int) (int, error) {
	return fastSymbols(r, e.BatchSymbols(n), e.fasts...)
}

// ReferenceDecodeBlockSymbols implements SymbolDecoder.
func (e *StreamHuffman) ReferenceDecodeBlockSymbols(r *bitio.Reader, n int) (int, error) {
	return referenceSymbols(r, e.BatchSymbols(n), e.decs...)
}
