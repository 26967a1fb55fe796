package huffman

import (
	"fmt"
	"sort"

	"repro/internal/bitio"
)

// DefaultRootBits is the index width of the fast decoder's first-level
// table. Ten bits keeps the root at 1K entries (4 KiB) — large enough
// that, with the skewed operation distributions the compression schemes
// see, almost every codeword resolves in a single lookup — while codes
// longer than the root index spill into per-prefix overflow sub-tables
// (the zlib layout). Tables whose longest code is shorter use that
// length instead and need no sub-tables at all.
const DefaultRootBits = 10

// Fast-decoder table entries are packed uint32s:
//
//	leaf:      symIndex<<6 | codeLen     (codeLen in 1..MaxCodeLen)
//	sub-link:  subFlag | subOffset<<6 | subBits
//	invalid:   0                         (reachable only in incomplete codes)
//
// The 6-bit low field fits MaxCodeLen (57); the 25-bit middle field
// bounds both the symbol count and the total sub-table size.
const (
	fastLenMask = 1<<6 - 1
	fastSubFlag = 1 << 31
	fastMaxSyms = 1 << 25
)

// FastDecoder is the table-driven decoder for a canonical Huffman code:
// a two-level lookup that replaces the reference decoder's bit-by-bit
// walk with one peek into a root table indexed by the next rootBits bits
// and, for codes longer than rootBits, one more peek into an overflow
// sub-table. Its symbol stream, consumed-bit offsets, and error
// behaviour are bit-identical to Decoder's; the equivalence is enforced
// by the differential harness and FuzzFastDecodeEquivalence.
type FastDecoder struct {
	rootBits int
	maxLen   int
	root     []uint32
	sub      []uint32
	syms     []uint64
}

// NewFastDecoder builds the two-level lookup tables for the code.
func (t *Table) NewFastDecoder() *FastDecoder {
	if len(t.syms) >= fastMaxSyms {
		panic(fmt.Sprintf("huffman: %d symbols overflow fast-decoder entries", len(t.syms)))
	}
	rootBits := DefaultRootBits
	if t.maxLen < rootBits {
		rootBits = t.maxLen
	}
	d := &FastDecoder{rootBits: rootBits, maxLen: t.maxLen, syms: t.syms}
	d.root = make([]uint32, 1<<uint(rootBits))

	// First pass: size one sub-table per rootBits prefix that long codes
	// share, wide enough for the longest code under it.
	subLen := map[uint64]int{}
	for i, s := range t.syms {
		if l := t.lens[i]; l > rootBits {
			p := t.codes[s].Bits >> uint(l-rootBits)
			if l > subLen[p] {
				subLen[p] = l
			}
		}
	}
	prefixes := make([]uint64, 0, len(subLen))
	for p := range subLen {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	subOff := make(map[uint64]int, len(prefixes))
	for _, p := range prefixes {
		bits := subLen[p] - rootBits
		subOff[p] = len(d.sub)
		d.root[p] = fastSubFlag | uint32(len(d.sub))<<6 | uint32(bits)
		d.sub = append(d.sub, make([]uint32, 1<<uint(bits))...)
	}

	// Second pass: replicate each leaf across every index its codeword
	// prefixes, so a single masked peek resolves it.
	for i, s := range t.syms {
		l := t.lens[i]
		c := t.codes[s].Bits
		e := uint32(i)<<6 | uint32(l)
		if l <= rootBits {
			base := c << uint(rootBits-l)
			for j := uint64(0); j < 1<<uint(rootBits-l); j++ {
				d.root[base+j] = e
			}
			continue
		}
		p := c >> uint(l-rootBits)
		span := subLen[p] - l
		base := uint64(subOff[p]) + (c&(1<<uint(l-rootBits)-1))<<uint(span)
		for j := uint64(0); j < 1<<uint(span); j++ {
			d.sub[base+j] = e
		}
	}
	return d
}

// Decode reads one symbol from the bit stream. See Decoder.Decode for
// the exact (shared) error contract. It is the per-symbol fast tier of
// the decode-throughput measurement, and its terminals (fail) are the
// ones the lane kernel shares.
//
//tepic:hotpath
func (d *FastDecoder) Decode(r *bitio.Reader) (uint64, error) {
	v, avail := r.PeekBits(d.rootBits)
	e := d.root[v]
	if e&fastSubFlag != 0 {
		bits := int(e & fastLenMask)
		w, a := r.PeekBits(d.rootBits + bits)
		e = d.sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(bits)-1))]
		avail = a
	}
	if l := int(e & fastLenMask); l != 0 && l <= avail {
		r.ConsumeBits(l)
		return d.syms[e>>6], nil
	}
	return 0, d.fail(r)
}

// fail mirrors the reference decoder's two error terminals, consuming
// the same bits it would: everything that remains when the stream ends
// mid-codeword, exactly maxLen bits when they match no codeword.
func (d *FastDecoder) fail(r *bitio.Reader) error {
	start := r.Offset()
	if rem := r.Remaining(); rem < d.maxLen {
		r.ConsumeBits(rem)
		return errTruncated(start)
	}
	code, _ := r.ReadBits(d.maxLen) //tepic:ignore-err Remaining() >= maxLen checked above; cannot fail
	return errInvalid(code, start)
}

// MaxLen returns the longest codeword the decoder accepts.
func (d *FastDecoder) MaxLen() int { return d.maxLen }

// RootBits returns the first-level index width.
func (d *FastDecoder) RootBits() int { return d.rootBits }

// TableEntries returns the total lookup-table size (root plus overflow
// sub-tables, in entries of 4 bytes) — the memory side of the paper's
// decoder-size tradeoff.
func (d *FastDecoder) TableEntries() int { return len(d.root) + len(d.sub) }
