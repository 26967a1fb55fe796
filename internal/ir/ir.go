// Package ir defines the compiler intermediate representation that sits
// between the synthetic workload generator and the TEPIC backend (register
// allocation, VLIW scheduling, encoding).
//
// The IR is deliberately RISC-like and close to TEPIC: each instruction has
// at most two register sources, one destination, an optional immediate and a
// guarding predicate. Programs are flat lists of functions; each function is
// a list of basic blocks; control flow is explicit through per-block taken
// and fall-through targets. Blocks carry the profile annotations (execution
// counts, branch bias) that the paper's compiler obtains from profiling runs
// and that drive both treegion-style scheduling decisions and trace
// generation.
package ir

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// RegClass selects one of the three TEPIC register files.
type RegClass uint8

// Register classes.
const (
	ClassNone RegClass = iota // no register (absent operand)
	ClassGPR
	ClassFPR
	ClassPred
)

// String returns the assembler prefix for the class.
func (c RegClass) String() string {
	switch c {
	case ClassNone:
		return "-"
	case ClassGPR:
		return "r"
	case ClassFPR:
		return "f"
	case ClassPred:
		return "p"
	}
	return "?"
}

// Reg is a (possibly virtual) register reference. Before register
// allocation N is an unbounded virtual number; after allocation N is an
// architectural register index within the class's file.
type Reg struct {
	Class RegClass
	N     int
}

// None is the absent-register value.
var None = Reg{}

// IsValid reports whether the reference names a register.
func (r Reg) IsValid() bool { return r.Class != ClassNone }

// String renders the register, e.g. "r12" or "v7:r" for virtuals ≥ file
// size (virtual and physical numbering share the namespace; allocation
// compacts them below the file size).
func (r Reg) String() string {
	if !r.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%s%d", r.Class, r.N)
}

// PredTrue is the always-true predicate register reference (p0).
var PredTrue = Reg{ClassPred, isa.PredAlways}

// Instr is one IR instruction. Branch instructions never carry a Dest;
// their control-flow targets live on the owning Block.
type Instr struct {
	Type isa.OpType
	Code isa.Opcode
	Src1 Reg
	Src2 Reg
	Dest Reg
	Imm  int32 // literal for ldi/ldih (20-bit unsigned payload)
	BHWX uint8
	Pred Reg  // guarding predicate; PredTrue when unconditional
	Spec bool // speculative (hoisted above a branch); the TEPIC S bit
}

// Info returns the ISA metadata for the instruction.
func (in *Instr) Info() isa.OpcodeInfo { return isa.MustLookup(in.Type, in.Code) }

// IsBranch reports whether the instruction transfers control.
func (in *Instr) IsBranch() bool { return in.Type == isa.TypeBranch }

// IsMemory reports whether the instruction accesses memory.
func (in *Instr) IsMemory() bool { return in.Type == isa.TypeMemory }

// AppendUses appends the registers the instruction reads to dst and
// returns the extended slice: Src1, Src2, then the guard predicate if it
// is not the always-true predicate. At most three registers are
// appended, so a [3]Reg buffer on the caller's stack holds them without
// allocating.
func (in *Instr) AppendUses(dst []Reg) []Reg {
	if in.Src1.IsValid() {
		dst = append(dst, in.Src1)
	}
	if in.Src2.IsValid() {
		dst = append(dst, in.Src2)
	}
	if in.Pred.IsValid() && in.Pred != PredTrue {
		dst = append(dst, in.Pred)
	}
	return dst
}

// Def returns the register the instruction writes, or None.
func (in *Instr) Def() Reg { return in.Dest }

// String renders the instruction in assembly-like form.
func (in *Instr) String() string {
	s := fmt.Sprintf("%-6s", in.Info().Name)
	switch {
	case in.Code == isa.OpLDI || in.Code == isa.OpLDIH:
		s += fmt.Sprintf("#%d -> %s", in.Imm, in.Dest)
	case in.Type == isa.TypeBranch:
		s += in.Src1.String()
	case in.Dest.IsValid():
		s += fmt.Sprintf("%s, %s -> %s", in.Src1, in.Src2, in.Dest)
	default:
		s += fmt.Sprintf("%s, %s", in.Src1, in.Src2)
	}
	if in.Pred.IsValid() && in.Pred != PredTrue {
		s += " if " + in.Pred.String()
	}
	return s
}

// NoTarget marks an absent control-flow target.
const NoTarget = -1

// Block is one basic block: a single-entry, single-exit instruction
// sequence. If the block ends in a branch, that branch is Instrs[len-1]
// and Kind/TakenTarget describe its taken edge; FallTarget is the block
// executed when the branch is not taken (or always, for branchless blocks).
type Block struct {
	ID int // global block index within the program
	Fn int // owning function index

	Instrs []*Instr

	// TakenTarget is the global block ID reached when the terminating
	// branch is taken; NoTarget when the block has no branch or the branch
	// leaves the function (return).
	TakenTarget int
	// FallTarget is the global block ID executed on fall-through;
	// NoTarget at function end.
	FallTarget int
	// Callee is the callee function index when the terminator is a call;
	// NoTarget otherwise. Calls return to FallTarget.
	Callee int

	// Profile annotations.
	ExecCount int64   // dynamic executions observed/expected
	TakenProb float64 // probability the terminating branch is taken
}

// Terminator returns the block's branch instruction, or nil for pure
// fall-through blocks.
func (b *Block) Terminator() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsBranch() {
		return b.Instrs[n-1]
	}
	return nil
}

// NumOps returns the static operation count of the block.
func (b *Block) NumOps() int { return len(b.Instrs) }

// Succs returns the block's successor block IDs: the fall-through target
// and, for non-call terminators, the taken target. Call edges (the callee
// entry) are not included — calls resume at FallTarget.
func (b *Block) Succs() []int {
	var s []int
	if b.FallTarget != NoTarget {
		s = append(s, b.FallTarget)
	}
	if t := b.Terminator(); t != nil && t.Code != isa.OpCALL && t.Code != isa.OpRET &&
		b.TakenTarget != NoTarget && b.TakenTarget != b.FallTarget {
		s = append(s, b.TakenTarget)
	}
	return s
}

// Func is one function: a contiguous slice of the program's blocks, the
// first of which is the entry.
type Func struct {
	Name   string
	ID     int
	Blocks []*Block
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Program is a whole compiled program.
type Program struct {
	Name   string
	Funcs  []*Func
	blocks []*Block // flat index: blocks[b.ID] == b
}

// NewProgram builds a program from functions, assigning global block IDs
// in layout order (the order blocks will be placed in the ROM image).
func NewProgram(name string, funcs []*Func) *Program {
	p := &Program{Name: name, Funcs: funcs}
	id := 0
	for fi, f := range funcs {
		f.ID = fi
		for _, b := range f.Blocks {
			b.ID = id
			b.Fn = fi
			p.blocks = append(p.blocks, b)
			id++
		}
	}
	return p
}

// NumBlocks returns the number of basic blocks in layout order.
func (p *Program) NumBlocks() int { return len(p.blocks) }

// Block returns the block with the given global ID.
func (p *Program) Block(id int) *Block { return p.blocks[id] }

// Blocks returns all blocks in layout order. The slice must not be
// modified.
func (p *Program) Blocks() []*Block { return p.blocks }

// NumOps returns the static operation count of the whole program.
func (p *Program) NumOps() int {
	n := 0
	for _, b := range p.blocks {
		n += len(b.Instrs)
	}
	return n
}

// ErrInvalid is returned by Validate for malformed programs.
var ErrInvalid = errors.New("ir: invalid program")

// Validate checks structural invariants: global IDs match indices, branch
// terminators are last, targets are in range, conditional branches carry a
// guard predicate, and instruction opcodes are defined.
func (p *Program) Validate() error {
	for i, b := range p.blocks {
		if b.ID != i {
			return fmt.Errorf("%w: block %d has ID %d", ErrInvalid, i, b.ID)
		}
		for j, in := range b.Instrs {
			if _, ok := isa.Lookup(in.Type, in.Code); !ok {
				return fmt.Errorf("%w: block %d instr %d: undefined opcode %v/%d",
					ErrInvalid, i, j, in.Type, in.Code)
			}
			if in.IsBranch() && j != len(b.Instrs)-1 {
				return fmt.Errorf("%w: block %d: branch at position %d is not last",
					ErrInvalid, i, j)
			}
		}
		if t := b.Terminator(); t != nil {
			switch t.Code {
			case isa.OpBRCT, isa.OpBRCF:
				if !t.Pred.IsValid() || t.Pred == PredTrue {
					return fmt.Errorf("%w: block %d: conditional branch without guard",
						ErrInvalid, i)
				}
			case isa.OpCALL:
				if b.Callee < 0 || b.Callee >= len(p.Funcs) {
					return fmt.Errorf("%w: block %d: call to undefined function %d",
						ErrInvalid, i, b.Callee)
				}
			}
			if t.Code != isa.OpRET && t.Code != isa.OpCALL {
				if b.TakenTarget < 0 || b.TakenTarget >= len(p.blocks) {
					return fmt.Errorf("%w: block %d: taken target %d out of range",
						ErrInvalid, i, b.TakenTarget)
				}
			}
		}
		if b.FallTarget != NoTarget &&
			(b.FallTarget < 0 || b.FallTarget >= len(p.blocks)) {
			return fmt.Errorf("%w: block %d: fall target %d out of range",
				ErrInvalid, i, b.FallTarget)
		}
		if b.TakenProb < 0 || b.TakenProb > 1 {
			return fmt.Errorf("%w: block %d: taken probability %g out of [0,1]",
				ErrInvalid, i, b.TakenProb)
		}
	}
	return nil
}
