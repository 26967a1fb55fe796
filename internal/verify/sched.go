package verify

import (
	"repro/internal/atb"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/sched"
)

// Schedule verifies a scheduled program's MOP and block invariants:
// exactly one tail op per MOP, issue width and memory-unit limits,
// format-field legality for every operation, flat-sequence consistency,
// terminator placement, target existence, and the validity of the
// per-block table the ATB will be loaded with. With a non-nil IR program
// it additionally cross-checks that scheduling preserved op counts and
// control flow.
func Schedule(sp *sched.Program, p *ir.Program) *Report {
	const stage = "sched"
	rep := &Report{}
	n := len(sp.Blocks)

	for fi, entry := range sp.FuncEntries {
		if entry < 0 || entry >= n {
			rep.Errorf(stage, CheckMOPFuncEntry, Pos{Func: fi, Block: -1, Op: -1, Bit: -1},
				"function entry %d outside [0,%d)", entry, n)
		}
	}

	falls := make([]int, n)
	for i, b := range sp.Blocks {
		falls[i] = b.FallTarget
		checkMOPs(rep, b)
		checkFlat(rep, b)
		checkSchedTargets(rep, sp, b)
	}
	if err := atb.ValidateInfos(atb.InfosFromFalls(falls)); err != nil {
		rep.Errorf(stage, CheckATBInfo, NoPos, "%v", err)
	}

	if p != nil {
		checkAgainstIR(rep, sp, p)
	}
	return rep
}

func checkMOPs(rep *Report, b *sched.Block) {
	const stage = "sched"
	opIdx := 0
	for mi, m := range b.MOPs {
		if len(m) == 0 {
			rep.Errorf(stage, CheckMOPEmpty, At(b.ID), "MOP %d is empty", mi)
			continue
		}
		if len(m) > isa.IssueWidth {
			rep.Errorf(stage, CheckMOPWidth, AtOp(b.ID, opIdx),
				"MOP %d issues %d ops, width is %d", mi, len(m), isa.IssueWidth)
		}
		mem := 0
		for i := range m {
			pos := AtOp(b.ID, opIdx+i)
			if isa.IsMemory(m[i].Type) {
				mem++
			}
			if wantTail := i == len(m)-1; m[i].Tail != wantTail {
				rep.Errorf(stage, CheckMOPTail, pos,
					"MOP %d op %d tail bit is %v, want %v", mi, i, m[i].Tail, wantTail)
			}
			checkOpFields(rep, b.ID, opIdx+i, &m[i])
		}
		if mem > isa.MemUnits {
			rep.Errorf(stage, CheckMOPMemUnits, AtOp(b.ID, opIdx),
				"MOP %d issues %d memory ops, only %d units", mi, mem, isa.MemUnits)
		}
		opIdx += len(m)
	}
}

// checkOpFields verifies one operation's format-field legality via its
// isa.Op.Format layout, reporting the bit offset of any offending field.
func checkOpFields(rep *Report, block, op int, o *isa.Op) {
	const stage = "sched"
	if _, ok := isa.Lookup(o.Type, o.Code); !ok {
		rep.Errorf(stage, CheckMOPOpField, AtOp(block, op),
			"undefined opcode %v/%d", o.Type, o.Code)
		return
	}
	layout := isa.Layout(o.Format())
	offs := isa.FieldOffsets(o.Format())
	var buf [isa.MaxSlots]uint32
	vals := o.AppendFieldValues(buf[:0])
	for i, fs := range layout {
		if fs.ID == isa.FieldReserved {
			continue
		}
		if uint64(vals[i]) >= 1<<uint(fs.Width) {
			rep.Errorf(stage, CheckMOPOpField,
				Pos{Func: -1, Block: block, Op: op, Bit: offs[i]},
				"field %v value %d exceeds %d bits", fs.ID, vals[i], fs.Width)
		}
	}
}

func checkFlat(rep *Report, b *sched.Block) {
	const stage = "sched"
	flat := 0
	for _, m := range b.MOPs {
		flat += len(m)
	}
	if flat != len(b.Ops) {
		rep.Errorf(stage, CheckMOPFlatten, At(b.ID),
			"%d ops across MOPs but %d in the flat sequence", flat, len(b.Ops))
		return
	}
	i := 0
	for mi, m := range b.MOPs {
		for j := range m {
			if b.Ops[i] != m[j] {
				rep.Errorf(stage, CheckMOPFlatten, AtOp(b.ID, i),
					"flat op %d differs from MOP %d op %d", i, mi, j)
				return
			}
			i++
		}
	}
}

func checkSchedTargets(rep *Report, sp *sched.Program, b *sched.Block) {
	const stage = "sched"
	n := len(sp.Blocks)
	var term *isa.Op
	for i := range b.Ops {
		if isa.IsBranch(b.Ops[i].Type) {
			if i != len(b.Ops)-1 {
				rep.Errorf(stage, CheckMOPBranchNotLast, AtOp(b.ID, i),
					"branch at op %d of %d is not the terminator", i, len(b.Ops))
			} else {
				term = &b.Ops[i]
			}
		}
	}
	isCall := term != nil && term.Code == isa.OpCALL
	isRet := term != nil && term.Code == isa.OpRET
	if term != nil && !isCall && !isRet {
		if b.TakenTarget < 0 || b.TakenTarget >= n {
			rep.Errorf(stage, CheckMOPTarget, At(b.ID),
				"taken target %d outside [0,%d)", b.TakenTarget, n)
		}
	}
	if term == nil && b.TakenTarget != ir.NoTarget {
		rep.Errorf(stage, CheckMOPTarget, At(b.ID),
			"taken target %d but the block has no branch terminator", b.TakenTarget)
	}
	if b.FallTarget != ir.NoTarget && (b.FallTarget < 0 || b.FallTarget >= n) {
		rep.Errorf(stage, CheckMOPTarget, At(b.ID),
			"fall target %d outside [0,%d)", b.FallTarget, n)
	}
	if isCall && (b.Callee < 0 || b.Callee >= len(sp.FuncEntries)) {
		rep.Errorf(stage, CheckMOPTarget, At(b.ID),
			"call to undefined function %d of %d", b.Callee, len(sp.FuncEntries))
	}
}

// checkAgainstIR cross-checks the schedule against the IR it came from:
// same block count, same per-block op count, same control-flow metadata.
func checkAgainstIR(rep *Report, sp *sched.Program, p *ir.Program) {
	const stage = "sched"
	if len(sp.Blocks) != p.NumBlocks() {
		rep.Errorf(stage, CheckMOPAgainstIR, NoPos,
			"schedule has %d blocks, IR has %d", len(sp.Blocks), p.NumBlocks())
		return
	}
	for i, sb := range sp.Blocks {
		ib := p.Block(i)
		pos := At(i)
		if sb.ID != ib.ID {
			rep.Errorf(stage, CheckMOPAgainstIR, pos,
				"scheduled block ID %d at index %d", sb.ID, i)
		}
		if len(sb.Ops) != len(ib.Instrs) {
			rep.Errorf(stage, CheckMOPAgainstIR, pos,
				"schedule has %d ops, IR has %d instructions", len(sb.Ops), len(ib.Instrs))
		}
		if sb.TakenTarget != ib.TakenTarget || sb.FallTarget != ib.FallTarget ||
			sb.Callee != ib.Callee {
			rep.Errorf(stage, CheckMOPAgainstIR, pos,
				"control flow (taken %d fall %d callee %d) differs from IR (%d %d %d)",
				sb.TakenTarget, sb.FallTarget, sb.Callee,
				ib.TakenTarget, ib.FallTarget, ib.Callee)
		}
	}
}
