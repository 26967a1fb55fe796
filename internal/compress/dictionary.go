package compress

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/sched"
)

// Dictionary is a beyond-Huffman scheme in the spirit the paper's future
// work calls for (§7) and its related work discusses (IBM CodePack, Liao's
// dictionary methods): the 2^IndexBits most frequent whole operations are
// replaced by a short index ('0' + index bits), every other operation is
// escaped verbatim ('1' + the raw 40-bit encoding). The decoder is a
// plain RAM lookup — far simpler than any Huffman tree — at the price of
// a worse compression ratio.
type Dictionary struct {
	indexBits int
	index     map[uint64]uint32 // op word -> dictionary slot
	words     []uint64          // slot -> op word
}

// DefaultDictionaryBits indexes a 256-entry operation dictionary.
const DefaultDictionaryBits = 8

// NewDictionary builds the scheme from a scheduled program's whole-op
// frequencies.
func NewDictionary(p *sched.Program, indexBits int) (*Dictionary, error) {
	if indexBits < 1 || indexBits > 20 {
		return nil, fmt.Errorf("%w: dictionary index bits %d outside [1,20]", ErrBadConfig, indexBits)
	}
	freq := map[uint64]int64{}
	for _, b := range p.Blocks {
		for i := range b.Ops {
			freq[b.Ops[i].Encode()]++
		}
	}
	type wf struct {
		w uint64
		f int64
	}
	all := make([]wf, 0, len(freq))
	for w, f := range freq {
		all = append(all, wf{w, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].w < all[j].w
	})
	d := &Dictionary{indexBits: indexBits, index: map[uint64]uint32{}}
	limit := 1 << uint(indexBits)
	for i, e := range all {
		if i >= limit {
			break
		}
		d.index[e.w] = uint32(i)
		d.words = append(d.words, e.w)
	}
	return d, nil
}

// Name implements Encoder.
func (d *Dictionary) Name() string { return "dict" }

// Entries returns the dictionary size.
func (d *Dictionary) Entries() int { return len(d.words) }

// IndexBits returns the index width.
func (d *Dictionary) IndexBits() int { return d.indexBits }

// opBits returns the encoded size of one op.
func (d *Dictionary) opBits(w uint64) int {
	if _, ok := d.index[w]; ok {
		return 1 + d.indexBits
	}
	return 1 + isa.OpBits
}

// BlockBits implements Encoder.
func (d *Dictionary) BlockBits(ops []isa.Op) int {
	bits := 0
	for i := range ops {
		bits += d.opBits(ops[i].Encode())
	}
	return bits
}

// EncodeBlock implements Encoder.
func (d *Dictionary) EncodeBlock(w *bitio.Writer, ops []isa.Op) error {
	for i := range ops {
		word := ops[i].Encode()
		if slot, ok := d.index[word]; ok {
			w.WriteBit(0)
			w.WriteBits(uint64(slot), d.indexBits)
		} else {
			w.WriteBit(1)
			w.WriteBits(word, isa.OpBits)
		}
	}
	return nil
}

// DecodeWords implements Encoder.
func (d *Dictionary) DecodeWords(r *bitio.Reader, n int, dst []uint64) ([]uint64, error) {
	out := slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		escape, err := r.ReadBit()
		if err != nil {
			return dst, err
		}
		var word uint64
		if escape == 0 {
			slot, err := r.ReadBits(d.indexBits)
			if err != nil {
				return dst, err
			}
			if int(slot) >= len(d.words) {
				return dst, fmt.Errorf("%w: dictionary slot %d of %d", ErrCorruptStream, slot, len(d.words))
			}
			word = d.words[slot]
		} else {
			if word, err = r.ReadBits(isa.OpBits); err != nil {
				return dst, err
			}
		}
		if word, err = isa.CheckWord(word); err != nil {
			return dst, err
		}
		out = append(out, word)
	}
	return out, nil
}

// DecodeBlock implements Encoder through LiftBlock.
func (d *Dictionary) DecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error) {
	return LiftBlock(d, r, n)
}

// Tables implements Encoder: the dictionary is not a Huffman code; its
// decoder is costed separately (a 2^IndexBits x 40-bit RAM).
func (*Dictionary) Tables() []*huffman.Table { return nil }

// DecoderRAMBits returns the dictionary storage the decoder needs.
func (d *Dictionary) DecoderRAMBits() int { return len(d.words) * isa.OpBits }

// NewSharedByteHuffman builds ONE byte-based table from the static byte
// histogram of several programs — the single-encoding-for-a-fixed-
// architecture approach of Wolfe et al. that the paper's related-work
// section contrasts with its per-program philosophy (§6). Encoding any of
// the contributing programs with the shared table is valid; the cost is a
// worse ratio than a per-program table.
func NewSharedByteHuffman(progs []*sched.Program) (*ByteHuffman, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("%w: no programs for shared table", ErrBadConfig)
	}
	freq := map[uint64]int64{}
	for _, p := range progs {
		for _, b := range p.Blocks {
			for _, by := range isa.PackOps(b.Ops) {
				freq[uint64(by)]++
			}
		}
	}
	// Guarantee completeness: any byte can appear in a future program
	// compressed with the shared table.
	for v := uint64(0); v < 256; v++ {
		if freq[v] == 0 {
			freq[v] = 1
		}
	}
	tab, err := buildBounded(freq, CodeLenLimit)
	if err != nil {
		return nil, err
	}
	return newByteHuffman(tab), nil
}
