package sched

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Speculate is the treegion-flavored global scheduling pass: it hoists
// operations from a basic block into its fall-through predecessor when
// that is provably safe, marking them with the TEPIC speculative bit
// (and converting hoisted loads to the speculative-load opcode), exactly
// the compiler transformation the paper's LEGO/treegion references
// [4,5,6] perform before the code is decomposed back into basic blocks.
// Hoisting lengthens blocks and raises MOP density — the knob the paper
// turns with "restricting code duplication in the compiler to RISC-like
// levels".
//
// The pass runs on a register-allocated program (register numbers must
// fit the architectural files so liveness can use bitmasks) and mutates
// it in place. An operation hoists from block B into predecessor A only
// if
//
//   - A falls through to B, B has no other predecessors, both belong to
//     the same function, and A does not end in a call or unconditional
//     transfer (treegion edges are fall-through tree edges);
//   - the op is not a branch or store (stores cannot speculate);
//   - every source it reads is available at the end of A (not defined by
//     an un-hoisted earlier op of B);
//   - its destination is dead on A's taken path and not read by A's
//     terminator — executing it on the wrong path must be harmless;
//   - at most HoistMax ops hoist across one edge.
//
// Returns the number of hoisted operations.
func Speculate(p *ir.Program) (int, error) {
	hoisted := 0
	for _, f := range p.Funcs {
		n, err := speculateFunc(p, f)
		if err != nil {
			return hoisted, err
		}
		hoisted += n
	}
	return hoisted, nil
}

// HoistMax bounds speculation per edge, the paper's "RISC-like" level of
// code motion.
const HoistMax = 3

// regSet is a liveness bitmask over the three architectural files.
type regSet struct {
	gpr, fpr, prd uint32
}

func (s *regSet) add(r ir.Reg) {
	if !r.IsValid() || r.N < 0 || r.N >= 32 {
		return
	}
	switch r.Class {
	case ir.ClassGPR:
		s.gpr |= 1 << uint(r.N)
	case ir.ClassFPR:
		s.fpr |= 1 << uint(r.N)
	case ir.ClassPred:
		s.prd |= 1 << uint(r.N)
	}
}

func (s *regSet) remove(r ir.Reg) {
	if !r.IsValid() || r.N < 0 || r.N >= 32 {
		return
	}
	switch r.Class {
	case ir.ClassGPR:
		s.gpr &^= 1 << uint(r.N)
	case ir.ClassFPR:
		s.fpr &^= 1 << uint(r.N)
	case ir.ClassPred:
		s.prd &^= 1 << uint(r.N)
	}
}

func (s regSet) contains(r ir.Reg) bool {
	if !r.IsValid() {
		return false
	}
	if r.N < 0 || r.N >= 32 {
		return true // unallocated register: assume live (conservative)
	}
	switch r.Class {
	case ir.ClassGPR:
		return s.gpr&(1<<uint(r.N)) != 0
	case ir.ClassFPR:
		return s.fpr&(1<<uint(r.N)) != 0
	case ir.ClassPred:
		return s.prd&(1<<uint(r.N)) != 0
	}
	return true
}

func (s *regSet) union(o regSet) bool {
	before := *s
	s.gpr |= o.gpr
	s.fpr |= o.fpr
	s.prd |= o.prd
	return *s != before
}

var allLive = regSet{gpr: ^uint32(0), fpr: ^uint32(0), prd: ^uint32(0)}

// liveness computes per-block live-in sets for one function by backward
// fixed-point iteration. Calls and returns are conservative barriers:
// everything is considered live across them (our IR has no calling
// convention, so callee/caller register communication is untyped).
func liveness(p *ir.Program, f *ir.Func) map[int]regSet {
	liveIn := map[int]regSet{}
	inFunc := map[int]bool{}
	for _, b := range f.Blocks {
		inFunc[b.ID] = true
	}
	changed := true
	for changed {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			var out regSet
			term := b.Terminator()
			if term != nil && (term.Code == isa.OpRET || term.Code == isa.OpCALL) {
				out = allLive
			} else {
				if b.FallTarget >= 0 && inFunc[b.FallTarget] {
					out.union(liveIn[b.FallTarget])
				}
				if b.TakenTarget >= 0 && inFunc[b.TakenTarget] {
					out.union(liveIn[b.TakenTarget])
				}
			}
			// Backward transfer through the block.
			in := out
			var buf [3]ir.Reg
			for j := len(b.Instrs) - 1; j >= 0; j-- {
				instr := b.Instrs[j]
				if d := instr.Def(); d.IsValid() {
					in.remove(d)
				}
				for _, u := range instr.AppendUses(buf[:0]) {
					in.add(u)
				}
			}
			cur := liveIn[b.ID]
			if cur.union(in) {
				liveIn[b.ID] = cur
				changed = true
			}
		}
	}
	return liveIn
}

func speculateFunc(p *ir.Program, f *ir.Func) (int, error) {
	liveIn := liveness(p, f)
	inFunc := map[int]bool{}
	preds := map[int]int{}
	for _, b := range f.Blocks {
		inFunc[b.ID] = true
	}
	for _, b := range p.Blocks() {
		if b.FallTarget >= 0 {
			preds[b.FallTarget]++
		}
		if b.TakenTarget >= 0 {
			preds[b.TakenTarget]++
		}
	}
	entry := map[int]bool{}
	for _, fn := range p.Funcs {
		entry[fn.Entry().ID] = true
	}

	hoisted := 0
	for _, a := range f.Blocks {
		bID := a.FallTarget
		if bID < 0 || !inFunc[bID] || entry[bID] || preds[bID] != 1 {
			continue
		}
		term := a.Terminator()
		if term != nil {
			switch term.Code {
			case isa.OpBRCT, isa.OpBRCF:
				// conditional fall-through edge: hoisting allowed
			default:
				continue // call/ret/unconditional: barrier
			}
		}
		b := p.Block(bID)

		// Registers that must not be clobbered by a hoisted op: anything
		// live on A's taken path, plus the terminator's own sources.
		var protected regSet
		if term != nil && a.TakenTarget >= 0 && inFunc[a.TakenTarget] {
			protected = liveIn[a.TakenTarget]
		}
		if term != nil {
			var buf [3]ir.Reg
			for _, u := range term.AppendUses(buf[:0]) {
				protected.add(u)
			}
		}
		// Only a contiguous prefix of B hoists, and it moves as a unit in
		// order, so prefix-internal def-use chains stay correct and every
		// other source was already available at the end of A.
		moved := 0
		for moved < HoistMax && moved < len(b.Instrs) {
			in := b.Instrs[moved]
			if !canSpeculate(in) {
				break
			}
			if protected.contains(in.Def()) {
				break
			}
			moved++
		}
		if moved == 0 {
			continue
		}
		// Splice the prefix out of B and into A (before the terminator).
		// Across a conditional edge the moved ops are genuinely
		// speculative (they execute on the taken path too) and carry the
		// S bit; across an unconditional fall-through edge this is plain
		// code motion. The prefix is copied: appending to a sub-slice of
		// b.Instrs would scribble over B's remaining instructions.
		prefix := append([]*ir.Instr(nil), b.Instrs[:moved]...)
		for _, in := range prefix {
			if term != nil {
				in.Spec = true
				if in.Code == isa.OpLD && in.Type == isa.TypeMemory {
					in.Code = isa.OpLDS
				}
			}
		}
		b.Instrs = b.Instrs[moved:]
		insertAt := len(a.Instrs)
		if term != nil {
			insertAt--
		}
		rest := append([]*ir.Instr(nil), a.Instrs[insertAt:]...)
		a.Instrs = append(a.Instrs[:insertAt], append(prefix, rest...)...)
		hoisted += moved
	}
	if err := p.Validate(); err != nil {
		return hoisted, fmt.Errorf("sched: speculation broke the program: %w", err)
	}
	return hoisted, nil
}

// canSpeculate reports whether an operation may execute on the wrong
// path: branches end blocks, stores have irrevocable side effects, and
// ops guarded by a predicate are left alone (their guard may be defined
// by the block's own prefix in ways the simple prefix rule cannot see
// through once predicates are involved).
func canSpeculate(in *ir.Instr) bool {
	if in.IsBranch() {
		return false
	}
	if in.Type == isa.TypeMemory && (in.Code == isa.OpST || in.Code == isa.OpFST) {
		return false
	}
	if in.Pred.IsValid() && in.Pred != ir.PredTrue {
		return false
	}
	if d := in.Def(); !d.IsValid() {
		return false
	}
	return true
}
