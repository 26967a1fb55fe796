package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Machine is a TEPIC interpreter: the 32-entry GPR/FPR/predicate files, a
// word-addressed memory, and a return stack. It executes scheduled
// programs at operation granularity (the scheduler has already proven
// intra-MOP independence, so sequential execution within a block is
// equivalent to VLIW issue).
type Machine struct {
	GPR  [isa.NumGPR]int64
	FPR  [isa.NumFPR]float64
	Pred [isa.NumPred]bool

	mem   map[int64]int64
	stack []int

	// Steps counts executed (not predicated-off) operations.
	Steps int64
	// MaxSteps bounds execution; 0 means DefaultMaxSteps.
	MaxSteps int64
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 50_000_000

// NewMachine returns a machine with zeroed state. Predicate p0 is wired
// true.
func NewMachine() *Machine {
	m := &Machine{mem: map[int64]int64{}}
	m.Pred[isa.PredAlways] = true
	return m
}

// Load reads a memory word.
func (m *Machine) Load(addr int64) int64 { return m.mem[addr] }

// Store writes a memory word.
func (m *Machine) Store(addr, v int64) { m.mem[addr] = v }

// Run executes a scheduled program from its entry function until main
// returns, emitting the block trace. The returned trace is suitable for
// the IFetch simulators.
func (m *Machine) Run(sp *sched.Program) (*trace.Trace, error) {
	tr, done, err := m.RunBounded(sp, m.MaxSteps)
	if err != nil {
		return nil, err
	}
	if !done {
		maxSteps := m.MaxSteps
		if maxSteps == 0 {
			maxSteps = DefaultMaxSteps
		}
		return nil, fmt.Errorf("emu: exceeded %d steps (infinite loop?)", maxSteps)
	}
	return tr, nil
}

// RunBounded executes like Run but treats the step bound as a stopping
// point rather than an error: it returns the partial trace accumulated so
// far and done=false when the bound is hit, done=true when the program
// ran to completion. maxSteps <= 0 selects m.MaxSteps (or
// DefaultMaxSteps). Execution always stops on a block boundary, so two
// machines bounded at the same step count observe identical prefixes of
// the same program.
func (m *Machine) RunBounded(sp *sched.Program, maxSteps int64) (*trace.Trace, bool, error) {
	if len(sp.Blocks) == 0 || len(sp.FuncEntries) == 0 {
		return nil, false, fmt.Errorf("emu: empty program")
	}
	if err := trace.CheckBlocks(len(sp.Blocks)); err != nil {
		return nil, false, fmt.Errorf("emu: %w", err)
	}
	if maxSteps <= 0 {
		maxSteps = m.MaxSteps
	}
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	tr := &trace.Trace{Name: sp.Name}
	m.Pred[isa.PredAlways] = true

	cur := sp.FuncEntries[0]
	for {
		b := sp.Blocks[cur]
		next, taken, err := m.execBlock(sp, b)
		if err != nil {
			return nil, false, fmt.Errorf("emu: block %d: %w", cur, err)
		}
		tr.Ops += int64(b.NumOps())
		tr.MOPs += int64(b.NumMOPs())
		tr.Events = append(tr.Events, trace.MakeEvent(cur, taken, next))
		if next == trace.End {
			return tr, true, nil
		}
		if m.Steps > maxSteps {
			return tr, false, nil
		}
		cur = next
	}
}

// MemSnapshot copies the machine's written memory words, for end-state
// comparison between two runs.
func (m *Machine) MemSnapshot() map[int64]int64 {
	out := make(map[int64]int64, len(m.mem))
	for k, v := range m.mem {
		out[k] = v
	}
	return out
}

// execBlock runs one basic block and resolves its successor.
func (m *Machine) execBlock(sp *sched.Program, b *sched.Block) (int, bool, error) {
	for i := range b.Ops {
		op := &b.Ops[i]
		if op.Type == isa.TypeBranch {
			if i != len(b.Ops)-1 {
				return 0, false, fmt.Errorf("interior branch at op %d", i)
			}
			break
		}
		if !m.Pred[op.Pred] {
			m.Steps++
			continue // predicated off
		}
		if err := m.exec(op); err != nil {
			return 0, false, err
		}
		m.Steps++
	}
	// Resolve the terminator.
	if len(b.Ops) == 0 {
		return b.FallTarget, false, nil
	}
	last := &b.Ops[len(b.Ops)-1]
	if last.Type != isa.TypeBranch {
		return b.FallTarget, false, nil
	}
	m.Steps++
	switch last.Code {
	case isa.OpBR, isa.OpBRLC:
		return b.TakenTarget, true, nil
	case isa.OpBRCT:
		if m.Pred[last.Pred] {
			return b.TakenTarget, true, nil
		}
		return b.FallTarget, false, nil
	case isa.OpBRCF:
		if !m.Pred[last.Pred] {
			return b.TakenTarget, true, nil
		}
		return b.FallTarget, false, nil
	case isa.OpCALL:
		if !m.Pred[last.Pred] {
			return b.FallTarget, false, nil
		}
		if b.FallTarget != trace.End {
			m.stack = append(m.stack, b.FallTarget)
		}
		return sp.FuncEntries[b.Callee], true, nil
	case isa.OpRET:
		if len(m.stack) == 0 {
			return trace.End, true, nil
		}
		ret := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		return ret, true, nil
	}
	return 0, false, fmt.Errorf("unknown branch opcode %d", last.Code)
}

// exec executes one non-branch operation's semantics.
func (m *Machine) exec(op *isa.Op) error {
	switch op.Format() {
	case isa.FmtIntALU:
		a, b := m.GPR[op.Src1], m.GPR[op.Src2]
		var v int64
		switch op.Code {
		case isa.OpADD:
			v = a + b
		case isa.OpSUB:
			v = a - b
		case isa.OpMUL:
			v = a * b
		case isa.OpDIV:
			if b == 0 {
				v = 0
			} else {
				v = a / b
			}
		case isa.OpREM:
			if b == 0 {
				v = 0
			} else {
				v = a % b
			}
		case isa.OpAND:
			v = a & b
		case isa.OpOR:
			v = a | b
		case isa.OpXOR:
			v = a ^ b
		case isa.OpSHL:
			v = a << uint(b&63)
		case isa.OpSHR:
			v = int64(uint64(a) >> uint(b&63))
		case isa.OpSRA:
			v = a >> uint(b&63)
		case isa.OpMOV:
			v = a
		case isa.OpNOT:
			v = ^a
		case isa.OpMIN:
			v = a
			if b < a {
				v = b
			}
		case isa.OpMAX:
			v = a
			if b > a {
				v = b
			}
		case isa.OpABS:
			v = a
			if v < 0 {
				v = -v
			}
		default:
			return fmt.Errorf("unimplemented int opcode %d", op.Code)
		}
		m.GPR[op.Dest] = truncate(v, op.BHWX)
	case isa.FmtLoadImm:
		switch op.Code {
		case isa.OpLDI:
			m.GPR[op.Dest] = int64(op.Imm)
		case isa.OpLDIH:
			m.GPR[op.Dest] = (m.GPR[op.Dest] & 0xfffff) | int64(op.Imm)<<20
		default:
			return fmt.Errorf("unimplemented load-imm opcode %d", op.Code)
		}
	case isa.FmtIntCmpp:
		a, b := m.GPR[op.Src1], m.GPR[op.Src2]
		var v bool
		switch op.Code {
		case isa.OpCMPEQ:
			v = a == b
		case isa.OpCMPNE:
			v = a != b
		case isa.OpCMPLT:
			v = a < b
		case isa.OpCMPLE:
			v = a <= b
		case isa.OpCMPGT:
			v = a > b
		case isa.OpCMPGE:
			v = a >= b
		case isa.OpCMPAND:
			v = m.Pred[op.Dest] && a != 0
		case isa.OpCMPOR:
			v = m.Pred[op.Dest] || a != 0
		default:
			return fmt.Errorf("unimplemented cmpp opcode %d", op.Code)
		}
		if op.Dest == isa.PredAlways {
			return fmt.Errorf("write to hardwired predicate p0")
		}
		m.Pred[op.Dest] = v
	case isa.FmtFloat:
		a, b := m.FPR[op.Src1], m.FPR[op.Src2]
		var v float64
		switch op.Code {
		case isa.OpFADD:
			v = a + b
		case isa.OpFSUB:
			v = a - b
		case isa.OpFMUL:
			v = a * b
		case isa.OpFDIV:
			v = a / b
		case isa.OpFABS:
			v = math.Abs(a)
		case isa.OpFNEG:
			v = -a
		case isa.OpFMOV:
			v = a
		case isa.OpFCVT:
			v = float64(m.GPR[op.Src1])
		case isa.OpFSQRT:
			v = math.Sqrt(a)
		case isa.OpFMIN:
			v = math.Min(a, b)
		case isa.OpFMAX:
			v = math.Max(a, b)
		default:
			return fmt.Errorf("unimplemented fp opcode %d", op.Code)
		}
		m.FPR[op.Dest] = v
	case isa.FmtLoad:
		addr := m.GPR[op.Src1]
		switch op.Code {
		case isa.OpLD, isa.OpLDS:
			m.GPR[op.Dest] = truncate(m.mem[addr], op.BHWX)
		case isa.OpFLD:
			m.FPR[op.Dest] = math.Float64frombits(uint64(m.mem[addr]))
		default:
			return fmt.Errorf("unimplemented load opcode %d", op.Code)
		}
	case isa.FmtStore:
		addr := m.GPR[op.Src1]
		switch op.Code {
		case isa.OpST:
			m.mem[addr] = truncate(m.GPR[op.Src2], op.BHWX)
		case isa.OpFST:
			m.mem[addr] = int64(math.Float64bits(m.FPR[op.Src2]))
		default:
			return fmt.Errorf("unimplemented store opcode %d", op.Code)
		}
	default:
		return fmt.Errorf("unexpected format %v", op.Format())
	}
	return nil
}

// truncate narrows a value per the BHWX operand-size field.
func truncate(v int64, bhwx uint8) int64 {
	switch bhwx {
	case isa.SizeByte:
		return int64(int8(v))
	case isa.SizeHalf:
		return int64(int16(v))
	case isa.SizeWord:
		return int64(int32(v))
	default:
		return v
	}
}
