package isa

import (
	"errors"
	"fmt"
)

// Op is one decoded TEPIC operation. The zero value is a non-tail
// "add r0, r0 -> r0 if p0" — a harmless integer no-op.
//
// Only the fields meaningful for the operation's format participate in
// encoding; the rest are ignored and decode as zero.
type Op struct {
	Tail    bool   // T: last op of its MOP
	Spec    bool   // S: speculative
	Type    OpType // OPT
	Code    Opcode // OPCODE
	Src1    uint8  // first source register (5 bits)
	Src2    uint8  // second source register (5 bits)
	BHWX    uint8  // operand size (2 bits)
	D1      uint8  // cmpp destination action (3 bits)
	SD      bool   // FP single/double
	TSS     uint8  // FP tss lower/upper (3 bits)
	SCS     uint8  // load source cache specifier (2 bits)
	TCS     uint8  // memory target cache specifier (2 bits)
	Lat     uint8  // load latency field (5 bits)
	Dest    uint8  // destination register (5 bits)
	L1      bool   // lower/upper half access
	Imm     uint32 // 20-bit literal for load-immediate
	Counter uint8  // branch counter register (5 bits)
	Pred    uint8  // guarding predicate register (5 bits)
}

// Format returns the instruction format this operation encodes in.
func (o *Op) Format() Format { return FormatOf(o.Type, o.Code) }

// Info returns the opcode metadata for the operation.
func (o *Op) Info() OpcodeInfo { return MustLookup(o.Type, o.Code) }

// field reads the value of one field identity from the operation.
func (o *Op) field(id FieldID) uint32 {
	switch id {
	case FieldT:
		return b2u(o.Tail)
	case FieldS:
		return b2u(o.Spec)
	case FieldOpt:
		return uint32(o.Type)
	case FieldOpcode:
		return uint32(o.Code)
	case FieldSrc1:
		return uint32(o.Src1)
	case FieldSrc2:
		return uint32(o.Src2)
	case FieldBHWX:
		return uint32(o.BHWX)
	case FieldD1:
		return uint32(o.D1)
	case FieldSD:
		return b2u(o.SD)
	case FieldTSS:
		return uint32(o.TSS)
	case FieldSCS:
		return uint32(o.SCS)
	case FieldTCS:
		return uint32(o.TCS)
	case FieldLat:
		return uint32(o.Lat)
	case FieldDest:
		return uint32(o.Dest)
	case FieldL1:
		return b2u(o.L1)
	case FieldImm:
		return o.Imm
	case FieldCounter:
		return uint32(o.Counter)
	case FieldPred:
		return uint32(o.Pred)
	case FieldReserved:
		return 0
	}
	panic(fmt.Sprintf("isa: unknown field %d", id))
}

// setField writes the value of one field identity into the operation.
func (o *Op) setField(id FieldID, v uint32) {
	switch id {
	case FieldT:
		o.Tail = v != 0
	case FieldS:
		o.Spec = v != 0
	case FieldOpt:
		o.Type = OpType(v)
	case FieldOpcode:
		o.Code = Opcode(v)
	case FieldSrc1:
		o.Src1 = uint8(v)
	case FieldSrc2:
		o.Src2 = uint8(v)
	case FieldBHWX:
		o.BHWX = uint8(v)
	case FieldD1:
		o.D1 = uint8(v)
	case FieldSD:
		o.SD = v != 0
	case FieldTSS:
		o.TSS = uint8(v)
	case FieldSCS:
		o.SCS = uint8(v)
	case FieldTCS:
		o.TCS = uint8(v)
	case FieldLat:
		o.Lat = uint8(v)
	case FieldDest:
		o.Dest = uint8(v)
	case FieldL1:
		o.L1 = v != 0
	case FieldImm:
		o.Imm = v
	case FieldCounter:
		o.Counter = uint8(v)
	case FieldPred:
		o.Pred = uint8(v)
	case FieldReserved:
		// reserved bits are dropped
	default:
		panic(fmt.Sprintf("isa: unknown field %d", id))
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ErrBadOp is returned when decoding or validating an operation with an
// undefined (type, opcode) pair or an out-of-range field value.
var ErrBadOp = errors.New("isa: invalid operation")

// Validate checks that all fields fit their encoded widths and that the
// (type, opcode) pair is defined.
func (o *Op) Validate() error {
	if _, ok := Lookup(o.Type, o.Code); !ok {
		return fmt.Errorf("%w: undefined opcode %v/%d", ErrBadOp, o.Type, o.Code)
	}
	for _, fs := range Layout(o.Format()) {
		if fs.ID == FieldReserved {
			continue
		}
		v := o.field(fs.ID)
		if v >= 1<<uint(fs.Width) {
			return fmt.Errorf("%w: field %v value %d exceeds %d bits",
				ErrBadOp, fs.ID, v, fs.Width)
		}
	}
	return nil
}

// Encode packs the operation into its 40-bit TEPIC encoding, returned in
// the low 40 bits of a uint64 with the paper's bit 0 (the tail bit) as the
// most significant bit.
func (o *Op) Encode() uint64 {
	var word uint64
	for _, fs := range Layout(o.Format()) {
		var v uint32
		if fs.ID != FieldReserved {
			v = o.field(fs.ID) & (1<<uint(fs.Width) - 1)
		}
		word = word<<uint(fs.Width) | uint64(v)
	}
	return word
}

// EncodeBytes returns the operation's 40-bit encoding as 5 bytes,
// most significant byte first.
func (o *Op) EncodeBytes() [OpBytes]byte {
	w := o.Encode()
	var b [OpBytes]byte
	for i := 0; i < OpBytes; i++ {
		b[i] = byte(w >> uint(8*(OpBytes-1-i)))
	}
	return b
}

// Decode unpacks a 40-bit TEPIC word (in the low 40 bits of w) into an
// operation. The format is recovered from the OPT/OPCODE fields, which sit
// at fixed positions in every format.
func Decode(w uint64) (Op, error) {
	if w >= 1<<OpBits {
		return Op{}, fmt.Errorf("%w: word exceeds %d bits", ErrBadOp, OpBits)
	}
	// T(1) S(1) OPT(2) OPCODE(5) are the leading 9 bits of every format.
	t := OpType(w >> (OpBits - 4) & 0x3)
	c := Opcode(w >> (OpBits - 9) & 0x1f)
	info, ok := Lookup(t, c)
	if !ok {
		return Op{}, fmt.Errorf("%w: undefined opcode %v/%d", ErrBadOp, t, c)
	}
	var o Op
	shift := uint(OpBits)
	for _, fs := range Layout(info.Format) {
		shift -= uint(fs.Width)
		v := uint32(w >> shift & (1<<uint(fs.Width) - 1))
		if fs.ID != FieldReserved {
			o.setField(fs.ID, v)
		}
	}
	return o, nil
}

// DecodeBytes decodes an operation from 5 bytes, most significant first.
func DecodeBytes(b [OpBytes]byte) (Op, error) {
	var w uint64
	for _, x := range b {
		w = w<<8 | uint64(x)
	}
	return Decode(w)
}

// AppendFieldValues appends the operation's value for every slot of its
// format layout, in layout order (reserved slots yield zero), and returns
// the extended slice. The tailored encoding and the schedule verifier
// read fields through it without re-deriving bit offsets; per-op callers
// pass a [MaxSlots]uint32 stack buffer so nothing is allocated.
func (o *Op) AppendFieldValues(dst []uint32) []uint32 {
	for _, fs := range Layout(o.Format()) {
		var v uint32
		if fs.ID != FieldReserved {
			v = o.field(fs.ID)
		}
		dst = append(dst, v)
	}
	return dst
}

// SliceWord extracts bits [from, to) of a 40-bit TEPIC word, where bit 0
// is the most significant (the tail bit). It is the primitive the
// stream-based Huffman alphabets are built on: encode an operation once,
// then slice every stream field from the word.
func SliceWord(w uint64, from, to int) uint64 {
	if from < 0 || to > OpBits || from >= to {
		panic(fmt.Sprintf("isa: bad bit slice [%d,%d)", from, to))
	}
	return w >> uint(OpBits-to) & (1<<uint(to-from) - 1)
}

// SliceBits extracts bits [from, to) of the operation's 40-bit encoding;
// see SliceWord.
func (o *Op) SliceBits(from, to int) uint64 { return SliceWord(o.Encode(), from, to) }
