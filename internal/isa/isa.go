// Package isa implements the TEPIC (TINKER EPIC) embedded VLIW instruction
// set architecture used as the baseline encoding in Larin & Conte,
// "Compiler-Driven Cached Code Compression Schemes for Embedded ILP
// Processors" (MICRO 1999).
//
// TEPIC is a 40-bit-per-operation encoding derived from the HP PlayDoh VLIW
// specification, adapted for embedded systems. RISC-like operations are
// combined into VLIW MultiOps (MOPs) by the scheduler; a dedicated tail bit
// in every operation marks the last operation of a MOP, so NOPs never need
// to be stored (the "zero-NOP" encoding). The package provides:
//
//   - the seven instruction formats of the paper's Table 2, with exact
//     field widths (every format totals 40 bits);
//   - bit-level encoding and decoding of operations;
//   - MOP assembly with tail bits and byte-aligned block packing;
//   - a disassembler used by the tools and tests.
//
// The core processor modeled throughout the repository is the paper's
// 6-issue machine: four units that execute anything except memory accesses
// plus two universal units, with 32 general-purpose, 32 floating-point and
// 32 predicate registers.
package isa

import "fmt"

// OpBits is the width of every baseline TEPIC operation.
const OpBits = 40

// OpBytes is OpBits expressed in bytes.
const OpBytes = OpBits / 8

// Machine resource constants for the modeled 6-issue TEPIC core.
const (
	// IssueWidth is the maximum number of operations per MOP.
	IssueWidth = 6
	// MemUnits is the number of units able to execute memory operations.
	MemUnits = 2
	// NumGPR, NumFPR and NumPred are the architectural register file sizes.
	NumGPR  = 32
	NumFPR  = 32
	NumPred = 32
)

// OpType is the 2-bit major operation type (the OPT field).
type OpType uint8

// The four major operation types.
const (
	TypeInt    OpType = 0 // integer ALU, compare-to-predicate, load-immediate
	TypeFloat  OpType = 1 // floating point
	TypeMemory OpType = 2 // loads and stores
	TypeBranch OpType = 3 // control transfer
)

// String returns the assembler mnemonic prefix for the type.
func (t OpType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FP"
	case TypeMemory:
		return "MEM"
	case TypeBranch:
		return "BR"
	}
	return fmt.Sprintf("OPT(%d)", uint8(t))
}

// Format identifies one of the seven instruction formats of Table 2.
type Format uint8

// The seven TEPIC instruction formats.
const (
	FmtIntALU  Format = iota // integer ALU operation
	FmtIntCmpp               // integer compare-to-predicate
	FmtLoadImm               // integer load immediate (20-bit literal)
	FmtFloat                 // floating point operation
	FmtLoad                  // memory load
	FmtStore                 // memory store
	FmtBranch                // branch operation
	numFormats
)

// NumFormats is the number of distinct instruction formats.
const NumFormats = int(numFormats)

// String returns a short name for the format.
func (f Format) String() string {
	switch f {
	case FmtIntALU:
		return "IntALU"
	case FmtIntCmpp:
		return "IntCmpp"
	case FmtLoadImm:
		return "LoadImm"
	case FmtFloat:
		return "Float"
	case FmtLoad:
		return "Load"
	case FmtStore:
		return "Store"
	case FmtBranch:
		return "Branch"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// FieldID names every field that appears in any TEPIC format. Field
// identity is shared across formats: for example FieldSrc1 is the first
// source register in every format that has one. The compression code uses
// these identities to build stream alphabets and the tailored-encoding
// generator uses them to shrink field widths.
type FieldID uint8

// All TEPIC instruction fields.
const (
	FieldT        FieldID = iota // tail bit for zero-NOP MOP encoding
	FieldS                       // speculative bit
	FieldOpt                     // 2-bit operation type
	FieldOpcode                  // 5-bit operation code within the type
	FieldSrc1                    // first source register
	FieldSrc2                    // second source register
	FieldBHWX                    // byte/half/word/double operand size
	FieldD1                      // cmpp destination action specifier
	FieldSD                      // FP single/double bit
	FieldTSS                     // FP tss lower/upper specifier
	FieldSCS                     // load source cache specifier
	FieldTCS                     // memory target cache specifier
	FieldLat                     // load latency specifier
	FieldDest                    // destination register
	FieldL1                      // lower/upper register-half access bit
	FieldImm                     // 20-bit literal (load-immediate format)
	FieldCounter                 // branch counter register
	FieldPred                    // 5-bit guarding predicate register
	FieldReserved                // reserved/padding bits (always zero)
	numFields
)

// NumFields is the number of distinct field identities.
const NumFields = int(numFields)

// String returns the field name as used in the paper's Table 2.
func (f FieldID) String() string {
	names := [...]string{
		"T", "S", "OPT", "OPCODE", "Src1", "Src2", "BHWX", "D1", "S/D",
		"TSS", "SCS", "TCS", "Lat", "Dest", "L1", "Imm", "Counter",
		"PREDICATE", "Reserved",
	}
	if int(f) < len(names) {
		return names[f]
	}
	return fmt.Sprintf("Field(%d)", uint8(f))
}

// FieldSpec is one field slot within a format: the field identity and its
// width in bits. Fields are listed most-significant first; bit 0 of the
// paper's figures is the most significant bit of the 40-bit word.
type FieldSpec struct {
	ID    FieldID
	Width int
}

// formatLayouts reproduces Table 2 of the paper exactly. Each layout sums
// to 40 bits; layout_test.go asserts this for every format.
var formatLayouts = [NumFormats][]FieldSpec{
	// Integer ALU: T S OPT OPCODE Src1 Src2 BHWX Reserved(8) Dest L1 PRED
	FmtIntALU: {
		{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5},
		{FieldSrc1, 5}, {FieldSrc2, 5}, {FieldBHWX, 2}, {FieldReserved, 8},
		{FieldDest, 5}, {FieldL1, 1}, {FieldPred, 5},
	},
	// Integer compare-to-predicate: T S OPT OPCODE Src1 Src2 BHWX D1(3)
	// Reserved(5) Dest L1 PRED
	FmtIntCmpp: {
		{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5},
		{FieldSrc1, 5}, {FieldSrc2, 5}, {FieldBHWX, 2}, {FieldD1, 3},
		{FieldReserved, 5}, {FieldDest, 5}, {FieldL1, 1}, {FieldPred, 5},
	},
	// Integer load immediate: T S OPT OPCODE Imm(20) Dest L1 PRED
	FmtLoadImm: {
		{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5},
		{FieldImm, 20}, {FieldDest, 5}, {FieldL1, 1}, {FieldPred, 5},
	},
	// Floating point: T S OPT OPCODE Src1 Src2 S/D Reserved(6) TSS(3)
	// Dest L1 PRED
	FmtFloat: {
		{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5},
		{FieldSrc1, 5}, {FieldSrc2, 5}, {FieldSD, 1}, {FieldReserved, 6},
		{FieldTSS, 3}, {FieldDest, 5}, {FieldL1, 1}, {FieldPred, 5},
	},
	// Load: T S OPT OPCODE Src1 BHWX SCS Res(1) TCS Reserved(3) Lat(5)
	// Dest Rsv(1) PRED
	FmtLoad: {
		{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5},
		{FieldSrc1, 5}, {FieldBHWX, 2}, {FieldSCS, 2}, {FieldReserved, 1},
		{FieldTCS, 2}, {FieldReserved, 3}, {FieldLat, 5}, {FieldDest, 5},
		{FieldReserved, 1}, {FieldPred, 5},
	},
	// Store: T S OPT OPCODE Src1 Src2 BHWX TCS Reserved(11) L1 PRED
	FmtStore: {
		{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5},
		{FieldSrc1, 5}, {FieldSrc2, 5}, {FieldBHWX, 2}, {FieldTCS, 2},
		{FieldReserved, 11}, {FieldL1, 1}, {FieldPred, 5},
	},
	// Branch: T S OPT OPCODE Src1 Counter Reserved(16) PRED
	FmtBranch: {
		{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5},
		{FieldSrc1, 5}, {FieldCounter, 5}, {FieldReserved, 16},
		{FieldPred, 5},
	},
}

// MaxSlots is the number of slots in the longest format layout (Load):
// the capacity a stack buffer for Op.AppendFieldValues needs, and the
// slot dimension of per-format tables.
const MaxSlots = 14

// Layout returns the ordered field specification for a format,
// most-significant field first. The returned slice must not be modified.
func Layout(f Format) []FieldSpec {
	return formatLayouts[f]
}

// FieldOffsets returns the starting bit offset of every slot in a
// format's layout, in layout order. Offsets use the paper's convention:
// bit 0 is the most significant bit of the 40-bit word (the tail bit).
func FieldOffsets(f Format) []int {
	layout := formatLayouts[f]
	offs := make([]int, len(layout))
	bit := 0
	for i, fs := range layout {
		offs[i] = bit
		bit += fs.Width
	}
	return offs
}

// LayoutBits returns the total width of a format. It is OpBits for every
// valid TEPIC format.
func LayoutBits(f Format) int {
	total := 0
	for _, fs := range formatLayouts[f] {
		total += fs.Width
	}
	return total
}

// BHWX operand size specifiers.
const (
	SizeByte   uint8 = 0
	SizeHalf   uint8 = 1
	SizeWord   uint8 = 2
	SizeDouble uint8 = 3
)

// Opcode is the 5-bit operation code within an OpType.
type Opcode uint8

// Integer opcodes (OpType TypeInt).
const (
	OpADD Opcode = iota
	OpSUB
	OpMUL
	OpDIV
	OpREM
	OpAND
	OpOR
	OpXOR
	OpSHL
	OpSHR
	OpSRA
	OpMOV
	OpNOT
	OpMIN
	OpMAX
	OpABS
	OpLDI    // load immediate (FmtLoadImm)
	OpLDIH   // load immediate into upper half (FmtLoadImm)
	OpCMPEQ  // compare-to-predicate (FmtIntCmpp)
	OpCMPNE  //
	OpCMPLT  //
	OpCMPLE  //
	OpCMPGT  //
	OpCMPGE  //
	OpCMPAND // predicate AND-combine
	OpCMPOR  // predicate OR-combine
)

// Floating-point opcodes (OpType TypeFloat).
const (
	OpFADD Opcode = iota
	OpFSUB
	OpFMUL
	OpFDIV
	OpFABS
	OpFNEG
	OpFMOV
	OpFCVT  // int <-> float conversion
	OpFSQRT // square root approximation
	OpFMIN
	OpFMAX
)

// Memory opcodes (OpType TypeMemory).
const (
	OpLD  Opcode = iota // load (FmtLoad)
	OpLDS               // load speculative
	OpST                // store (FmtStore)
	OpFLD               // floating-point load
	OpFST               // floating-point store
)

// Branch opcodes (OpType TypeBranch).
const (
	OpBR   Opcode = iota // unconditional branch
	OpBRCT               // branch if guarding predicate true
	OpBRCF               // branch if guarding predicate false
	OpCALL               // subroutine call
	OpRET                // subroutine return
	OpBRLC               // loop-closing branch on counter
)

// OpcodeInfo describes one (type, opcode) pair: its mnemonic, the format
// its operations are encoded in, and its execution latency in cycles.
type OpcodeInfo struct {
	Type    OpType
	Code    Opcode
	Name    string
	Format  Format
	Latency int
}

// opcodeTable is indexed [type][code]; a zero Name marks an undefined
// pair. OpType is 2 bits and Opcode 5 bits wide, so the array covers
// every encodable pair and Lookup reads one entry instead of hashing.
var opcodeTable = [4][32]OpcodeInfo{
	TypeInt: {
		OpADD:    {TypeInt, OpADD, "add", FmtIntALU, 1},
		OpSUB:    {TypeInt, OpSUB, "sub", FmtIntALU, 1},
		OpMUL:    {TypeInt, OpMUL, "mul", FmtIntALU, 3},
		OpDIV:    {TypeInt, OpDIV, "div", FmtIntALU, 8},
		OpREM:    {TypeInt, OpREM, "rem", FmtIntALU, 8},
		OpAND:    {TypeInt, OpAND, "and", FmtIntALU, 1},
		OpOR:     {TypeInt, OpOR, "or", FmtIntALU, 1},
		OpXOR:    {TypeInt, OpXOR, "xor", FmtIntALU, 1},
		OpSHL:    {TypeInt, OpSHL, "shl", FmtIntALU, 1},
		OpSHR:    {TypeInt, OpSHR, "shr", FmtIntALU, 1},
		OpSRA:    {TypeInt, OpSRA, "sra", FmtIntALU, 1},
		OpMOV:    {TypeInt, OpMOV, "mov", FmtIntALU, 1},
		OpNOT:    {TypeInt, OpNOT, "not", FmtIntALU, 1},
		OpMIN:    {TypeInt, OpMIN, "min", FmtIntALU, 1},
		OpMAX:    {TypeInt, OpMAX, "max", FmtIntALU, 1},
		OpABS:    {TypeInt, OpABS, "abs", FmtIntALU, 1},
		OpLDI:    {TypeInt, OpLDI, "ldi", FmtLoadImm, 1},
		OpLDIH:   {TypeInt, OpLDIH, "ldih", FmtLoadImm, 1},
		OpCMPEQ:  {TypeInt, OpCMPEQ, "cmpeq", FmtIntCmpp, 1},
		OpCMPNE:  {TypeInt, OpCMPNE, "cmpne", FmtIntCmpp, 1},
		OpCMPLT:  {TypeInt, OpCMPLT, "cmplt", FmtIntCmpp, 1},
		OpCMPLE:  {TypeInt, OpCMPLE, "cmple", FmtIntCmpp, 1},
		OpCMPGT:  {TypeInt, OpCMPGT, "cmpgt", FmtIntCmpp, 1},
		OpCMPGE:  {TypeInt, OpCMPGE, "cmpge", FmtIntCmpp, 1},
		OpCMPAND: {TypeInt, OpCMPAND, "cmpand", FmtIntCmpp, 1},
		OpCMPOR:  {TypeInt, OpCMPOR, "cmpor", FmtIntCmpp, 1},
	},
	TypeFloat: {
		OpFADD:  {TypeFloat, OpFADD, "fadd", FmtFloat, 3},
		OpFSUB:  {TypeFloat, OpFSUB, "fsub", FmtFloat, 3},
		OpFMUL:  {TypeFloat, OpFMUL, "fmul", FmtFloat, 3},
		OpFDIV:  {TypeFloat, OpFDIV, "fdiv", FmtFloat, 12},
		OpFABS:  {TypeFloat, OpFABS, "fabs", FmtFloat, 1},
		OpFNEG:  {TypeFloat, OpFNEG, "fneg", FmtFloat, 1},
		OpFMOV:  {TypeFloat, OpFMOV, "fmov", FmtFloat, 1},
		OpFCVT:  {TypeFloat, OpFCVT, "fcvt", FmtFloat, 2},
		OpFSQRT: {TypeFloat, OpFSQRT, "fsqrt", FmtFloat, 12},
		OpFMIN:  {TypeFloat, OpFMIN, "fmin", FmtFloat, 1},
		OpFMAX:  {TypeFloat, OpFMAX, "fmax", FmtFloat, 1},
	},
	TypeMemory: {
		OpLD:  {TypeMemory, OpLD, "ld", FmtLoad, 2},
		OpLDS: {TypeMemory, OpLDS, "lds", FmtLoad, 2},
		OpST:  {TypeMemory, OpST, "st", FmtStore, 1},
		OpFLD: {TypeMemory, OpFLD, "fld", FmtLoad, 2},
		OpFST: {TypeMemory, OpFST, "fst", FmtStore, 1},
	},
	TypeBranch: {
		OpBR:   {TypeBranch, OpBR, "br", FmtBranch, 1},
		OpBRCT: {TypeBranch, OpBRCT, "brct", FmtBranch, 1},
		OpBRCF: {TypeBranch, OpBRCF, "brcf", FmtBranch, 1},
		OpCALL: {TypeBranch, OpCALL, "call", FmtBranch, 1},
		OpRET:  {TypeBranch, OpRET, "ret", FmtBranch, 1},
		OpBRLC: {TypeBranch, OpBRLC, "brlc", FmtBranch, 1},
	},
}

// Lookup returns the OpcodeInfo for a (type, opcode) pair. The boolean is
// false if the pair is not a defined TEPIC operation.
func Lookup(t OpType, c Opcode) (OpcodeInfo, bool) {
	if t >= 4 || c >= 32 {
		return OpcodeInfo{}, false
	}
	info := &opcodeTable[t][c]
	return *info, info.Name != ""
}

// MustLookup is Lookup for pairs known to be valid; it panics otherwise.
func MustLookup(t OpType, c Opcode) OpcodeInfo {
	info, ok := Lookup(t, c)
	if !ok {
		panic(fmt.Sprintf("isa: undefined opcode %v/%d", t, c))
	}
	return info
}

// Opcodes returns all defined opcodes for a type in ascending code order.
func Opcodes(t OpType) []OpcodeInfo {
	var out []OpcodeInfo
	if t < 4 {
		for _, info := range opcodeTable[t] {
			if info.Name != "" {
				out = append(out, info)
			}
		}
	}
	return out
}

// FormatOf returns the encoding format used by a (type, opcode) pair,
// defaulting to FmtIntALU for undefined pairs.
func FormatOf(t OpType, c Opcode) Format {
	if info, ok := Lookup(t, c); ok {
		return info.Format
	}
	return FmtIntALU
}

// IsBranch reports whether the type is a control-transfer operation.
func IsBranch(t OpType) bool { return t == TypeBranch }

// IsMemory reports whether the type is a memory operation.
func IsMemory(t OpType) bool { return t == TypeMemory }

// PredAlways is the predicate register that is architecturally hardwired
// to true; operations guarded by it always execute. Keeping it at register
// zero matches the paper's observation that the predicate field is "most
// of the time set to true", which the stream-based compressor exploits.
const PredAlways = 0
