// Package compress implements the paper's operation-size reduction
// schemes: the three Huffman alphabet compositions of §2.2 (byte-based,
// stream-based with configurable field boundaries, and whole-op "Full",
// the stream alphabet with a single uncut stream) plus the uncompressed
// baseline, all behind a common Encoder interface.
// The tailored ISA (the paper's other family) lives in package tailor and
// implements the same interface.
//
// All schemes encode and decode at basic-block granularity: block starts
// are byte-aligned in the ROM (§3.3), operations within a block are
// bit-packed sequentially.
package compress

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/sched"
)

// CodeLenLimit is the bound applied to every Huffman code: the paper's
// compiler "keeps track of" over-long codewords and bounds them so the
// IFetch hardware can consume them (§2.2). Codes never exceed the original
// 40-bit operation size.
const CodeLenLimit = isa.OpBits

// Encoder encodes and decodes basic blocks under one scheme.
type Encoder interface {
	// Name identifies the scheme in reports ("base", "byte", "full",
	// stream configuration names, "tailored").
	Name() string
	// BlockBits returns the encoded size of a block, in bits, without
	// byte-alignment padding.
	BlockBits(ops []isa.Op) int
	// EncodeBlock appends the block's encoding to the bit stream.
	EncodeBlock(w *bitio.Writer, ops []isa.Op) error
	// DecodeWords reads back a block of n operations as their 40-bit
	// words, checked and canonical (isa.CheckWord), appended to dst. On
	// an error it returns dst with its contents untouched.
	DecodeWords(r *bitio.Reader, n int, dst []uint64) ([]uint64, error)
	// DecodeBlock reads back a block of n operations: DecodeWords
	// lifted into operations by LiftBlock.
	DecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error)
	// Tables returns the scheme's Huffman dictionaries (empty for
	// uncompressed schemes); used by the decoder-complexity model.
	Tables() []*huffman.Table
}

// Base is the uncompressed 40-bit TEPIC encoding.
type Base struct{}

// NewBase returns the baseline encoder.
func NewBase() *Base { return &Base{} }

// Name implements Encoder.
func (*Base) Name() string { return "base" }

// BlockBits implements Encoder.
func (*Base) BlockBits(ops []isa.Op) int { return len(ops) * isa.OpBits }

// EncodeBlock implements Encoder.
func (*Base) EncodeBlock(w *bitio.Writer, ops []isa.Op) error {
	for i := range ops {
		w.WriteBits(ops[i].Encode(), isa.OpBits)
	}
	return nil
}

// DecodeWords implements Encoder.
func (*Base) DecodeWords(r *bitio.Reader, n int, dst []uint64) ([]uint64, error) {
	out := slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		w, err := r.ReadBits(isa.OpBits)
		if err != nil {
			return dst, err
		}
		if w, err = isa.CheckWord(w); err != nil {
			return dst, err
		}
		out = append(out, w)
	}
	return out, nil
}

// DecodeBlock implements Encoder through LiftBlock.
func (e *Base) DecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error) {
	return LiftBlock(e, r, n)
}

// LiftBlock is every scheme's DecodeBlock: the block's checked words
// from e.DecodeWords, each unpacked into an operation by isa.Decode
// (which accepts every word CheckWord returned).
func LiftBlock(e Encoder, r *bitio.Reader, n int) ([]isa.Op, error) {
	words, err := e.DecodeWords(r, n, nil)
	if err != nil {
		return nil, err
	}
	ops := make([]isa.Op, len(words))
	for i, w := range words {
		if ops[i], err = isa.Decode(w); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// Tables implements Encoder.
func (*Base) Tables() []*huffman.Table { return nil }

// ReferenceDecoder is implemented by the Huffman schemes, which decode
// their hit path through the kernel's single-stream LaneDecoder.Decode
// (decodeBlock) but keep the canonical bit-by-bit decoder as an oracle:
// ReferenceDecodeBlock is DecodeBlock on the oracle, and DecodeWords
// and DecodeBlock must both match it — the same operations (as words,
// their Encode), the same error and the same reader offset on every
// block — on every image (the differential harness) and on corrupt
// blocks (FuzzBlockDecodeEquivalence).
type ReferenceDecoder interface {
	ReferenceDecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error)
}

// ByteHuffman is the byte-based alphabet of §2.2: the packed baseline
// image is treated as a byte stream and each byte is Huffman coded. It
// produces the smallest decoding table and simplest decoder.
type ByteHuffman struct {
	tab  *huffman.Table
	dec  *huffman.Decoder     // reference (oracle) decoder
	fast *huffman.FastDecoder // table-driven per-symbol decoder (fast tier)
	lane *huffman.LaneDecoder // kernel over fast's tables: the block decoder
}

// newByteHuffman wraps a built table with both of its decoders and the
// kernel (built once here, not per decode — see the measurement
// contract in throughput.go).
func newByteHuffman(tab *huffman.Table) *ByteHuffman {
	fast := tab.NewFastDecoder()
	return &ByteHuffman{tab: tab, dec: tab.NewDecoder(), fast: fast, lane: huffman.NewLaneDecoder(fast)}
}

// NewByteHuffman builds the byte-based scheme from a scheduled program's
// static byte histogram.
func NewByteHuffman(p *sched.Program) (*ByteHuffman, error) {
	freq := map[uint64]int64{}
	for _, b := range p.Blocks {
		for _, by := range isa.PackOps(b.Ops) {
			freq[uint64(by)]++
		}
	}
	tab, err := buildBounded(freq, CodeLenLimit)
	if err != nil {
		return nil, fmt.Errorf("compress: byte scheme: %w", err)
	}
	return newByteHuffman(tab), nil
}

// Name implements Encoder.
func (*ByteHuffman) Name() string { return "byte" }

// BlockBits implements Encoder.
func (e *ByteHuffman) BlockBits(ops []isa.Op) int {
	bits := 0
	for _, by := range isa.PackOps(ops) {
		bits += e.tab.EncodedBits(uint64(by))
	}
	return bits
}

// EncodeBlock implements Encoder.
func (e *ByteHuffman) EncodeBlock(w *bitio.Writer, ops []isa.Op) error {
	for _, by := range isa.PackOps(ops) {
		if err := e.tab.Encode(w, uint64(by)); err != nil {
			return err
		}
	}
	return nil
}

// DecodeWords implements Encoder through decodeBlock.
func (e *ByteHuffman) DecodeWords(r *bitio.Reader, n int, dst []uint64) ([]uint64, error) {
	return decodeBlock(e, r, n, dst)
}

// DecodeBlock implements Encoder through LiftBlock.
func (e *ByteHuffman) DecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error) {
	return LiftBlock(e, r, n)
}

// ReferenceDecodeBlock implements ReferenceDecoder on the bit-by-bit
// oracle decoder.
func (e *ByteHuffman) ReferenceDecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error) {
	nbytes := (n*isa.OpBits + 7) / 8
	data := make([]byte, nbytes)
	for i := range data {
		v, err := e.dec.Decode(r)
		if err != nil {
			return nil, err
		}
		data[i] = byte(v)
	}
	return isa.UnpackOps(data, n)
}

// Tables implements Encoder.
func (e *ByteHuffman) Tables() []*huffman.Table { return []*huffman.Table{e.tab} }

// StreamConfig fixes the stream boundaries of the stream-based alphabet
// (paper Figure 3): every operation's 40-bit word is cut at Cuts into
// independent compression streams, each with its own Huffman table.
type StreamConfig struct {
	Name string
	Cuts []int // strictly increasing interior cut points in (0, 40)
}

// Segments returns the [from, to) bit ranges of the configuration.
func (c StreamConfig) Segments() [][2]int {
	segs := make([][2]int, 0, len(c.Cuts)+1)
	prev := 0
	for _, cut := range c.Cuts {
		segs = append(segs, [2]int{prev, cut})
		prev = cut
	}
	segs = append(segs, [2]int{prev, isa.OpBits})
	return segs
}

// Validate checks the cut points.
func (c StreamConfig) Validate() error {
	prev := 0
	for _, cut := range c.Cuts {
		if cut <= prev || cut >= isa.OpBits {
			return fmt.Errorf("%w: stream config %s: bad cut %d", ErrBadConfig, c.Name, cut)
		}
		prev = cut
	}
	return nil
}

// Key returns the configuration's canonical content descriptor — the
// exact cut points, independent of the display name — for use in
// artifact-cache keys: two configurations with the same cuts produce
// identical encoders for the same program.
func (c StreamConfig) Key() string {
	var b strings.Builder
	b.WriteString("stream")
	for _, cut := range c.Cuts {
		fmt.Fprintf(&b, "/%d", cut)
	}
	return b.String()
}

// StreamConfigs are the six stream-boundary configurations explored for
// the paper's Figure 5, named by the paper's selection rule: of the six,
// the one with the smallest decoder is reported as "stream" and the one
// with the smallest code as "stream_1" (the assignments below follow the
// measured sweep; see core.Suite.StreamSweep). The field-boundary
// geography follows Table 2: bits [0,9) hold T/S/OPT/OPCODE, [9,14) Src1,
// [14,19) Src2 (or the immediate's upper bits), [34,35) L1, [35,40) the
// predicate.
var StreamConfigs = []StreamConfig{
	// Eight uniform 5-bit streams: tiny per-stream dictionaries give the
	// smallest stream decoder, at the worst stream compression — the
	// paper's "stream".
	{Name: "stream", Cuts: []int{5, 10, 15, 20, 25, 30, 35}},
	// Two 20-bit halves: widest symbols capture the most intra-op
	// correlation, the best stream compression — the paper's "stream_1".
	{Name: "stream_1", Cuts: []int{20}},
	// The paper's Figure 3 illustration: opcode / operands / middle /
	// predicate, cut at field boundaries.
	{Name: "stream_2", Cuts: []int{9, 19, 34}},
	{Name: "stream_3", Cuts: []int{9, 14, 19, 34}},
	{Name: "stream_4", Cuts: []int{9, 35}},
	{Name: "stream_5", Cuts: []int{9, 14, 19, 24, 34}},
}

// Figure3Config is the stream split the paper's Figure 3 illustrates.
var Figure3Config = StreamConfigs[2]

// FullConfig is the whole-op alphabet of §2.2 as a stream
// configuration: no cuts, so each distinct 40-bit operation is one
// symbol of a single stream. Greatest compression, largest decoder.
var FullConfig = StreamConfig{Name: "full"}

// StreamHuffman is the stream-based alphabet of §2.2/Figure 3; under
// FullConfig it is the whole-op alphabet.
type StreamHuffman struct {
	cfg   StreamConfig
	segs  [][2]int // cfg.Segments(), cut once at construction
	tabs  []*huffman.Table
	decs  []*huffman.Decoder     // reference (oracle) decoders
	fasts []*huffman.FastDecoder // table-driven per-symbol decoders (fast tier)
	lane  *huffman.LaneDecoder   // kernel cycling the segment tables: the block decoder
}

// NewStreamHuffman builds the stream-based scheme for one configuration.
func NewStreamHuffman(p *sched.Program, cfg StreamConfig) (*StreamHuffman, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	segs := cfg.Segments()
	freqs := make([]map[uint64]int64, len(segs))
	for i := range freqs {
		freqs[i] = map[uint64]int64{}
	}
	for _, b := range p.Blocks {
		for i := range b.Ops {
			w := b.Ops[i].Encode()
			for si, seg := range segs {
				freqs[si][isa.SliceWord(w, seg[0], seg[1])]++
			}
		}
	}
	e := &StreamHuffman{cfg: cfg, segs: segs}
	for si, f := range freqs {
		tab, err := buildBounded(f, CodeLenLimit)
		if err != nil {
			return nil, fmt.Errorf("compress: stream %s segment %d: %w", cfg.Name, si, err)
		}
		e.tabs = append(e.tabs, tab)
		e.decs = append(e.decs, tab.NewDecoder())
		e.fasts = append(e.fasts, tab.NewFastDecoder())
	}
	e.lane = huffman.NewLaneDecoder(e.fasts...)
	return e, nil
}

// NewFullHuffman builds the whole-op scheme from a scheduled program:
// the stream scheme under FullConfig.
func NewFullHuffman(p *sched.Program) (*StreamHuffman, error) {
	return NewStreamHuffman(p, FullConfig)
}

// Name implements Encoder.
func (e *StreamHuffman) Name() string { return e.cfg.Name }

// Config returns the stream configuration.
func (e *StreamHuffman) Config() StreamConfig { return e.cfg }

// BlockBits implements Encoder.
func (e *StreamHuffman) BlockBits(ops []isa.Op) int {
	bits := 0
	for i := range ops {
		w := ops[i].Encode()
		for si, seg := range e.segs {
			bits += e.tabs[si].EncodedBits(isa.SliceWord(w, seg[0], seg[1]))
		}
	}
	return bits
}

// EncodeBlock implements Encoder.
func (e *StreamHuffman) EncodeBlock(w *bitio.Writer, ops []isa.Op) error {
	for i := range ops {
		word := ops[i].Encode()
		for si, seg := range e.segs {
			if err := e.tabs[si].Encode(w, isa.SliceWord(word, seg[0], seg[1])); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeWords implements Encoder through decodeBlock.
func (e *StreamHuffman) DecodeWords(r *bitio.Reader, n int, dst []uint64) ([]uint64, error) {
	return decodeBlock(e, r, n, dst)
}

// DecodeBlock implements Encoder through LiftBlock.
func (e *StreamHuffman) DecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error) {
	return LiftBlock(e, r, n)
}

// ReferenceDecodeBlock implements ReferenceDecoder on the bit-by-bit
// oracle decoders.
func (e *StreamHuffman) ReferenceDecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error) {
	ops := make([]isa.Op, 0, n)
	for i := 0; i < n; i++ {
		var word uint64
		for si, seg := range e.segs {
			v, err := e.decs[si].Decode(r)
			if err != nil {
				return nil, err
			}
			word = word<<uint(seg[1]-seg[0]) | v
		}
		op, err := isa.Decode(word)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// Tables implements Encoder.
func (e *StreamHuffman) Tables() []*huffman.Table { return e.tabs }

// buildBounded builds an optimal table, falling back to the length-limited
// construction only when the optimal code exceeds the hardware bound —
// the paper's "the compiler keeps track of such events and alternates the
// compression process".
func buildBounded(freq map[uint64]int64, limit int) (*huffman.Table, error) {
	tab, err := huffman.Build(freq)
	if err != nil {
		return nil, err
	}
	if tab.MaxLen() <= limit {
		return tab, nil
	}
	return huffman.BuildLimited(freq, limit)
}
