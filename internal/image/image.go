// Package image builds binary program images under a given encoding
// scheme and generates the Address Translation Table (ATT) that maps the
// original address space to the encoded one (paper §3.3).
//
// Every block's first operation is byte-aligned (the paper's concession to
// byte/word-aligned ROM access); operations within a block are bit-packed
// sequentially. The ATT carries one entry per basic block — original
// address, encoded address, operation/MOP counts and encoded size — and is
// itself stored in compressed form in the ROM; portions of it are uploaded
// into the ATB at run time.
package image

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/sched"
)

// Block describes one basic block's placement within an image.
type Block struct {
	ID    int
	Addr  int // byte address of the block's first op
	Bytes int // encoded size, including byte-alignment padding
	Ops   int
	MOPs  int
}

// Lines returns how many memory lines of the given size the block spans.
func (b Block) Lines(lineBytes int) int {
	if b.Bytes == 0 {
		return 0
	}
	first := b.Addr / lineBytes
	last := (b.Addr + b.Bytes - 1) / lineBytes
	return last - first + 1
}

// Image is a program encoded under one scheme.
type Image struct {
	Name      string // program name
	Scheme    string // encoding scheme name
	Blocks    []Block
	Data      []byte // the encoded code segment
	CodeBytes int    // len(Data)
	ATT       *ATT   // nil until BuildATT is called
}

// TotalBytes returns code plus compressed ATT size.
func (im *Image) TotalBytes() int {
	if im.ATT == nil {
		return im.CodeBytes
	}
	return im.CodeBytes + im.ATT.CompressedBytes
}

// Build lays out a scheduled program under an encoding scheme, placing
// blocks in the program's natural order.
func Build(p *sched.Program, enc compress.Encoder) (*Image, error) {
	return BuildOrdered(p, enc, nil)
}

// BuildOrdered lays out blocks in an explicit placement order (see
// package layout); a nil order means the natural one. Blocks in the
// returned image remain indexed by block ID regardless of placement, so
// every consumer (simulators, the ATT builder, round-trip verification)
// is placement-agnostic.
func BuildOrdered(p *sched.Program, enc compress.Encoder, order []int) (*Image, error) {
	if order == nil {
		order = make([]int, len(p.Blocks))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(p.Blocks) {
		return nil, fmt.Errorf("image: order has %d entries for %d blocks",
			len(order), len(p.Blocks))
	}
	im := &Image{Name: p.Name, Scheme: enc.Name()}
	im.Blocks = make([]Block, len(p.Blocks))
	placed := make([]bool, len(p.Blocks))
	var w bitio.Writer
	for _, id := range order {
		if id < 0 || id >= len(p.Blocks) || placed[id] {
			return nil, fmt.Errorf("image: order is not a permutation (block %d)", id)
		}
		placed[id] = true
		b := p.Blocks[id]
		addr := w.BitLen() / 8
		if err := enc.EncodeBlock(&w, b.Ops); err != nil {
			return nil, fmt.Errorf("image: block %d: %w", b.ID, err)
		}
		w.AlignByte()
		im.Blocks[id] = Block{
			ID:    b.ID,
			Addr:  addr,
			Bytes: w.BitLen()/8 - addr,
			Ops:   len(b.Ops),
			MOPs:  len(b.MOPs),
		}
	}
	im.Data = w.Bytes()
	im.CodeBytes = len(im.Data)
	return im, nil
}

// VerifyRoundTrip decodes every block back out of the image and checks it
// against the scheduled program — the correctness proof that an encoding
// is actually executable.
func VerifyRoundTrip(im *Image, p *sched.Program, enc compress.Encoder) error {
	r := bitio.NewReader(im.Data)
	for i, b := range p.Blocks {
		if err := r.SeekBit(im.Blocks[i].Addr * 8); err != nil {
			return err
		}
		ops, err := enc.DecodeBlock(r, len(b.Ops))
		if err != nil {
			return fmt.Errorf("image: decode block %d: %w", b.ID, err)
		}
		for j := range ops {
			if ops[j] != b.Ops[j] {
				return fmt.Errorf("image: block %d op %d mismatch: %v != %v",
					b.ID, j, ops[j].String(), b.Ops[j].String())
			}
		}
	}
	return nil
}

// ATTEntry is one block's address-translation record: enough for the ATB
// to fetch the whole block in pipelined fashion (encoded address, size,
// op/MOP counts — the "last PC" is derivable from Ops).
type ATTEntry struct {
	Orig  int // address in the original program (OrigAddrs)
	Enc   int // address in this image
	Ops   int
	MOPs  int
	Bytes int // encoded block size
}

// ATT is the Address Translation Table: one entry per block, stored
// compressed in the ROM.
type ATT struct {
	Entries         []ATTEntry
	RawBytes        int // serialized (uncompressed) size
	CompressedBytes int // Huffman-compressed size as stored in ROM
}

// OrigAddrs returns each block's address in the original program: the
// base image's layout, where every op is isa.OpBits wide, each block
// starts on a byte boundary and blocks sit in program order. The ATT's
// Orig column is this prefix sum, so no base image is needed to build
// or check it.
func OrigAddrs(p *sched.Program) []int {
	addrs := make([]int, len(p.Blocks))
	addr := 0
	for i, b := range p.Blocks {
		addrs[i] = addr
		addr += (len(b.Ops)*isa.OpBits + 7) / 8
	}
	return addrs
}

// BuildATT constructs the translation table from the program's original
// addresses (OrigAddrs) to the encoded image and measures its ROM
// footprint: entries are delta/varint serialized and the byte stream
// Huffman compressed, with the dictionary's storage charged at one
// (symbol, length) pair per entry.
func BuildATT(p *sched.Program, im *Image) (*ATT, error) {
	if len(p.Blocks) != len(im.Blocks) {
		return nil, fmt.Errorf("image: block count mismatch: program has %d, image %d",
			len(p.Blocks), len(im.Blocks))
	}
	orig := OrigAddrs(p)
	att := &ATT{Entries: make([]ATTEntry, len(im.Blocks))}
	for i, b := range im.Blocks {
		att.Entries[i] = ATTEntry{
			Orig: orig[i], Enc: b.Addr,
			Ops: b.Ops, MOPs: b.MOPs, Bytes: b.Bytes,
		}
	}
	raw := SerializeATT(att.Entries)
	att.RawBytes = len(raw)
	if len(raw) > 0 {
		freq := map[uint64]int64{}
		for _, b := range raw {
			freq[uint64(b)]++
		}
		tab, err := huffman.Build(freq)
		if err != nil {
			return nil, err
		}
		// Dictionary storage: one byte symbol plus a 6-bit length field
		// per entry, rounded up.
		dict := (tab.Entries()*(8+6) + 7) / 8
		att.CompressedBytes = int((tab.TotalBits()+7)/8) + dict
	}
	return att, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// SerializeATT is the ATT's ROM wire format before Huffman compression:
// per entry, delta/uvarint-coded original and encoded addresses followed
// by the op, MOP and byte counts.
func SerializeATT(entries []ATTEntry) []byte {
	var raw []byte
	prevOrig, prevEnc := 0, 0
	for _, e := range entries {
		raw = appendUvarint(raw, uint64(e.Orig-prevOrig))
		raw = appendUvarint(raw, uint64(e.Enc-prevEnc))
		raw = appendUvarint(raw, uint64(e.Ops))
		raw = appendUvarint(raw, uint64(e.MOPs))
		raw = appendUvarint(raw, uint64(e.Bytes))
		prevOrig, prevEnc = e.Orig, e.Enc
	}
	return raw
}

// ParseATT decodes n entries from the wire format — the operation the ATB
// performs when it uploads a portion of the table from ROM.
func ParseATT(raw []byte, n int) ([]ATTEntry, error) {
	out := make([]ATTEntry, 0, n)
	pos := 0
	next := func() (int, error) {
		v, sh := uint64(0), uint(0)
		for {
			if pos >= len(raw) {
				return 0, fmt.Errorf("image: truncated ATT at byte %d", pos)
			}
			b := raw[pos]
			pos++
			v |= uint64(b&0x7f) << sh
			if b < 0x80 {
				return int(v), nil
			}
			sh += 7
			if sh > 35 {
				return 0, fmt.Errorf("image: ATT varint overflow at byte %d", pos)
			}
		}
	}
	prevOrig, prevEnc := 0, 0
	for i := 0; i < n; i++ {
		var e ATTEntry
		var err error
		var d int
		if d, err = next(); err != nil {
			return nil, err
		}
		e.Orig = prevOrig + d
		if d, err = next(); err != nil {
			return nil, err
		}
		e.Enc = prevEnc + d
		if e.Ops, err = next(); err != nil {
			return nil, err
		}
		if e.MOPs, err = next(); err != nil {
			return nil, err
		}
		if e.Bytes, err = next(); err != nil {
			return nil, err
		}
		prevOrig, prevEnc = e.Orig, e.Enc
		out = append(out, e)
	}
	return out, nil
}

// Ratio returns this image's code size as a fraction of a reference
// image's code size (the paper's Figure 5 metric, code segment only).
func (im *Image) Ratio(ref *Image) float64 {
	if ref.CodeBytes == 0 {
		return 0
	}
	return float64(im.CodeBytes) / float64(ref.CodeBytes)
}
