// Package tailor implements the paper's Tailored Encoding (§2.3): a new,
// uncompressed but compact instruction encoding generated for one
// particular program. Every field gets exactly the bits the program
// needs — if only six floating-point opcodes occur, the FP opcode field
// needs three bits; if the predicate field is always p0, it vanishes
// entirely; reserved fields are dropped. Decoding a tailored operation
// yields the core processor's internal signals directly, so no
// decompression stage is required.
//
// Tailoring is *not* compression: operand fields keep their direct binary
// values, merely narrowed to the width of the largest value the program
// uses (register allocation compacts register numbers downward precisely
// to make these widths small). Only the OpType/OpCode prefix is remapped
// through the regenerated decoder, and fields that are constant across the
// whole program are dropped and hardwired in the decoder PLA.
//
// As the paper prescribes, the Tail bit, OpType and OpCode fields keep a
// fixed position and size across all formats, which makes decoding a
// fixed-prefix dispatch. All operations of the same (type, code) have the
// same size. The compiler-emitted PLA decoder is rendered as synthesizable
// Verilog by EmitVerilog.
package tailor

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/isa"
	"repro/internal/sched"
)

// Typed encoding failures, so callers (in particular the pipeline
// verifier) can attribute a rejection to the violated invariant.
var (
	// ErrNotInISA marks an operation whose (type, opcode) pair the
	// tailored ISA was not generated for.
	ErrNotInISA = errors.New("tailor: operation not in tailored ISA")
	// ErrWidth marks a field value that does not fit its tailored width
	// or differs from its hardwired constant.
	ErrWidth = errors.New("tailor: value does not fit tailored field")
)

// slotMap is one slot's tailoring decision: either a hardwired constant
// (width 0) or a direct binary field narrowed to `width` bits. A slot the
// program never fills (or one the shared prefix replaces) is not seen.
type slotMap struct {
	seen     bool
	id       isa.FieldID
	width    int    // 0 for constant slots
	constant uint32 // the hardwired value when width == 0
	maxVal   uint32 // largest value observed (determines width)
}

// Tailored is a program-specific compact encoding. It implements
// compress.Encoder. Every table is dense: slots by [format][slot],
// opcodes by [type][code], so the per-op paths read arrays, not maps.
type Tailored struct {
	optWidth int
	opcWidth int
	typeOf   [4]uint32       // type -> tailored OPT code
	types    []isa.OpType    // tailored OPT code -> type
	opcOf    [4][32]uint32   // (type, code) -> tailored OPCODE
	opcs     [4][]isa.Opcode // tailored OPCODE -> code, per type
	slots    [isa.NumFormats][isa.MaxSlots]slotMap
	opBits   [4][32]int // per-(type,code) op size; 0 = not in the ISA
}

// tPrefix is the number of leading layout slots replaced by the shared
// tailored prefix: only the tail bit; OPT/OPCODE slots are skipped by ID.
const tPrefix = 1

// tailorable reports whether a slot keeps a tailored field of its own:
// reserved bits are dropped, OPT and OPCODE live in the shared prefix.
func tailorable(id isa.FieldID) bool {
	return id != isa.FieldReserved && id != isa.FieldOpt && id != isa.FieldOpcode
}

// New analyzes a scheduled program and generates its tailored encoding.
func New(p *sched.Program) (*Tailored, error) {
	t := &Tailored{}

	// Pass 1: collect the value universe.
	var opcSet [4][32]bool
	var varies [isa.NumFormats][isa.MaxSlots]bool
	var buf [isa.MaxSlots]uint32
	for _, b := range p.Blocks {
		for i := range b.Ops {
			op := &b.Ops[i]
			if op.Type >= 4 || op.Code >= 32 {
				return nil, fmt.Errorf("tailor: %w: opcode %v/%d", isa.ErrBadOp, op.Type, op.Code)
			}
			opcSet[op.Type][op.Code] = true
			f := op.Format()
			layout := isa.Layout(f)
			vals := op.AppendFieldValues(buf[:0])
			for s := tPrefix; s < len(layout); s++ {
				if !tailorable(layout[s].ID) {
					continue
				}
				sm := &t.slots[f][s]
				if !sm.seen {
					*sm = slotMap{seen: true, id: layout[s].ID, constant: vals[s]}
				}
				if vals[s] != sm.constant {
					varies[f][s] = true
				}
				sm.maxVal = max(sm.maxVal, vals[s])
			}
		}
	}

	// Global OPT mapping: fixed position, fixed size. Global OPCODE
	// width: the max over types, so the (T, OPT, OPCODE) prefix has one
	// size everywhere.
	for ty := isa.OpType(0); ty < 4; ty++ {
		for c := isa.Opcode(0); c < 32; c++ {
			if opcSet[ty][c] {
				t.opcOf[ty][c] = uint32(len(t.opcs[ty]))
				t.opcs[ty] = append(t.opcs[ty], c)
			}
		}
		if len(t.opcs[ty]) > 0 {
			t.typeOf[ty] = uint32(len(t.types))
			t.types = append(t.types, ty)
			t.opcWidth = max(t.opcWidth, bitsFor(len(t.opcs[ty])))
		}
	}
	if len(t.types) == 0 {
		return nil, fmt.Errorf("tailor: empty program")
	}
	t.optWidth = bitsFor(len(t.types))

	// Per-slot widths: constants drop to zero bits, everything else keeps
	// its direct value narrowed to the observed maximum.
	for f := range t.slots {
		for s := range t.slots[f] {
			if sm := &t.slots[f][s]; varies[f][s] {
				sm.width = bitsFor(int(sm.maxVal) + 1)
				sm.constant = 0
			}
		}
	}

	// Cache per-opcode sizes.
	for _, ty := range t.types {
		for _, c := range t.opcs[ty] {
			f := isa.FormatOf(ty, c)
			bits := 1 + t.optWidth + t.opcWidth
			for s := range isa.Layout(f) {
				bits += t.slots[f][s].width
			}
			t.opBits[ty][c] = bits
		}
	}
	return t, nil
}

func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// Name implements compress.Encoder.
func (*Tailored) Name() string { return "tailored" }

// Tables implements compress.Encoder: the tailored ISA has no Huffman
// dictionaries (decoding is direct).
func (*Tailored) Tables() []*huffman.Table { return nil }

// OpBits returns the tailored size of one (type, code) operation.
func (t *Tailored) OpBits(ty isa.OpType, c isa.Opcode) (int, error) {
	if bits := t.opSize(ty, c); bits > 0 {
		return bits, nil
	}
	return 0, fmt.Errorf("tailor: opcode %v/%d not in tailored ISA", ty, c)
}

// opSize is the tailored size of a (type, code) operation, 0 if the
// tailored ISA lacks it.
func (t *Tailored) opSize(ty isa.OpType, c isa.Opcode) int {
	if ty >= 4 || c >= 32 {
		return 0
	}
	return t.opBits[ty][c]
}

// PrefixWidths returns the fixed (OPT, OPCODE) field widths.
func (t *Tailored) PrefixWidths() (opt, opc int) { return t.optWidth, t.opcWidth }

// BlockBits implements compress.Encoder.
func (t *Tailored) BlockBits(ops []isa.Op) int {
	bits := 0
	for i := range ops {
		bits += t.opSize(ops[i].Type, ops[i].Code)
	}
	return bits
}

// EncodeBlock implements compress.Encoder.
func (t *Tailored) EncodeBlock(w *bitio.Writer, ops []isa.Op) error {
	for i := range ops {
		if err := t.encodeOp(w, &ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// ValidateOp checks that an operation is representable under the
// tailored encoding without writing anything: its (type, opcode) pair
// must exist (ErrNotInISA) and every field value must fit its tailored
// width or match its hardwired constant (ErrWidth).
func (t *Tailored) ValidateOp(op *isa.Op) error {
	if op.Type >= 4 || len(t.opcs[op.Type]) == 0 {
		return fmt.Errorf("%w: type %v", ErrNotInISA, op.Type)
	}
	if t.opSize(op.Type, op.Code) == 0 {
		return fmt.Errorf("%w: opcode %v/%d", ErrNotInISA, op.Type, op.Code)
	}
	f := op.Format()
	layout := isa.Layout(f)
	var buf [isa.MaxSlots]uint32
	vals := op.AppendFieldValues(buf[:0])
	for s := tPrefix; s < len(layout); s++ {
		fs := layout[s]
		if !tailorable(fs.ID) {
			continue
		}
		sm := &t.slots[f][s]
		switch {
		case !sm.seen:
			if vals[s] != 0 {
				return fmt.Errorf("%w: unexpected value %d in unseen slot %v",
					ErrWidth, vals[s], fs.ID)
			}
		case sm.width == 0:
			if vals[s] != sm.constant {
				return fmt.Errorf("%w: value %d of field %v differs from hardwired %d",
					ErrWidth, vals[s], fs.ID, sm.constant)
			}
		case vals[s] > sm.maxVal:
			return fmt.Errorf("%w: value %d of field %v exceeds tailored max %d",
				ErrWidth, vals[s], fs.ID, sm.maxVal)
		}
	}
	return nil
}

func (t *Tailored) encodeOp(w *bitio.Writer, op *isa.Op) error {
	if err := t.ValidateOp(op); err != nil {
		return err
	}
	if op.Tail {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
	w.WriteBits(uint64(t.typeOf[op.Type]), t.optWidth)
	w.WriteBits(uint64(t.opcOf[op.Type][op.Code]), t.opcWidth)

	f := op.Format()
	var buf [isa.MaxSlots]uint32
	for s, v := range op.AppendFieldValues(buf[:0]) {
		// The prefix, untailorable and unseen slots have width 0, as do
		// hardwired constants.
		if width := t.slots[f][s].width; width > 0 {
			w.WriteBits(uint64(v), width)
		}
	}
	return nil
}

// DecodeBlock implements compress.Encoder.
func (t *Tailored) DecodeBlock(r *bitio.Reader, n int) ([]isa.Op, error) {
	ops := make([]isa.Op, 0, n)
	for i := 0; i < n; i++ {
		op, err := t.decodeOp(r)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func (t *Tailored) decodeOp(r *bitio.Reader) (isa.Op, error) {
	var op isa.Op
	tb, err := r.ReadBits(1)
	if err != nil {
		return op, err
	}
	op.Tail = tb == 1
	optCode := uint64(0)
	if t.optWidth > 0 {
		if optCode, err = r.ReadBits(t.optWidth); err != nil {
			return op, err
		}
	}
	if int(optCode) >= len(t.types) {
		return op, fmt.Errorf("tailor: bad OPT code %d", optCode)
	}
	ty := t.types[optCode]
	opcCode := uint64(0)
	if t.opcWidth > 0 {
		if opcCode, err = r.ReadBits(t.opcWidth); err != nil {
			return op, err
		}
	}
	if int(opcCode) >= len(t.opcs[ty]) {
		return op, fmt.Errorf("tailor: bad OPCODE %d for type %v", opcCode, ty)
	}
	code := t.opcs[ty][opcCode]
	op.Type = ty
	op.Code = code

	f := isa.FormatOf(ty, code)
	layout := isa.Layout(f)
	// Rebuild the original 40-bit word slotwise, then decode through the
	// baseline decoder so every field lands in the right struct member.
	var word uint64
	for s := 0; s < len(layout); s++ {
		fs := layout[s]
		var v uint32
		switch {
		case fs.ID == isa.FieldT:
			if op.Tail {
				v = 1
			}
		case fs.ID == isa.FieldOpt:
			v = uint32(ty)
		case fs.ID == isa.FieldOpcode:
			v = uint32(code)
		case fs.ID == isa.FieldReserved:
			// zero
		default:
			sm := &t.slots[f][s]
			if !sm.seen {
				break // slot never occurred: decode as zero
			}
			if sm.width == 0 {
				v = sm.constant
				break
			}
			raw, err := r.ReadBits(sm.width)
			if err != nil {
				return op, err
			}
			v = uint32(raw)
		}
		word = word<<uint(fs.Width) | uint64(v)
	}
	return isa.Decode(word)
}

// FieldReport describes one tailored slot for reporting and for the
// Verilog generator.
type FieldReport struct {
	Format   isa.Format
	Field    isa.FieldID
	Orig     int  // baseline width
	Width    int  // tailored width (0 = hardwired constant)
	Constant bool // slot dropped to a hardwired value
}

// Report returns every tailored slot, ordered by format then position.
func (t *Tailored) Report() []FieldReport {
	var out []FieldReport
	for f := range t.slots {
		layout := isa.Layout(isa.Format(f))
		for s, sm := range t.slots[f] {
			if !sm.seen {
				continue
			}
			out = append(out, FieldReport{
				Format:   isa.Format(f),
				Field:    sm.id,
				Orig:     layout[s].Width,
				Width:    sm.width,
				Constant: sm.width == 0,
			})
		}
	}
	return out
}

// DictionaryEntries returns the number of (code -> signal) mappings the
// regenerated PLA decoder holds: one per operation type, one per opcode,
// one per hardwired constant slot. Direct-value slots need no table —
// that is what keeps the tailored decoder small compared to any Huffman
// decoder.
func (t *Tailored) DictionaryEntries() int {
	n := len(t.types)
	for _, codes := range t.opcs {
		n += len(codes)
	}
	for f := range t.slots {
		for _, sm := range t.slots[f] {
			if sm.seen && sm.width == 0 {
				n++
			}
		}
	}
	return n
}
