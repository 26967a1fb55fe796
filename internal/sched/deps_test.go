package sched

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/workload"
)

// refBuildDeps is the map-keyed dependence builder buildDeps replaced,
// kept as the reference its dense tables must reproduce edge for edge,
// duplicates and order included.
func refBuildDeps(instrs []*ir.Instr) [][]int {
	preds := make([][]int, len(instrs))
	type rk struct {
		class ir.RegClass
		n     int
	}
	lastDef := map[rk]int{}
	lastUses := map[rk][]int{}
	lastStore := -1
	lastMem := -1
	addDep := func(i, p int) {
		if p < 0 || p == i {
			return
		}
		preds[i] = append(preds[i], p)
	}
	for i, in := range instrs {
		var buf [3]ir.Reg
		for _, u := range in.AppendUses(buf[:0]) {
			k := rk{u.Class, u.N}
			if d, ok := lastDef[k]; ok {
				addDep(i, d) // RAW
			}
			lastUses[k] = append(lastUses[k], i)
		}
		if d := in.Def(); d.IsValid() {
			k := rk{d.Class, d.N}
			if pd, ok := lastDef[k]; ok {
				addDep(i, pd) // WAW
			}
			for _, u := range lastUses[k] {
				addDep(i, u) // WAR
			}
			lastDef[k] = i
			lastUses[k] = nil
		}
		if in.IsMemory() {
			if in.Code == isa.OpST || in.Code == isa.OpFST {
				addDep(i, lastMem)
				addDep(i, lastStore)
				lastStore = i
			} else {
				addDep(i, lastStore)
			}
			lastMem = i
		}
	}
	return preds
}

// byteSrc hands out fuzz input bytes one at a time, then zeros.
type byteSrc []byte

func (s *byteSrc) next() int {
	if len(*s) == 0 {
		return 0
	}
	v := (*s)[0]
	*s = (*s)[1:]
	return int(v)
}

// reg picks an architectural register of class c: usually one of a few
// low numbers, so ops collide on registers often, else any of the 32.
func (s *byteSrc) reg(c ir.RegClass) ir.Reg {
	v := s.next()
	if v&0x80 != 0 {
		return ir.Reg{Class: c, N: v % 32}
	}
	return ir.Reg{Class: c, N: v % 5}
}

// genBlock decodes data into a register-allocated basic block of integer,
// compare, predicate-combine, float, load and store ops, some guarded by
// a predicate (p0 among them), optionally ending in a branch. Fields an
// op's format does not encode stay empty, so two ops that lower to the
// same isa.Op are the same IR op.
func genBlock(data []byte) []*ir.Instr {
	s := byteSrc(data)
	n := 1 + s.next()%24
	instrs := make([]*ir.Instr, 0, n+1)
	for range n {
		k := s.next()
		in := &ir.Instr{Pred: ir.PredTrue}
		if s.next()%4 == 0 {
			in.Pred = s.reg(ir.ClassPred) // p0 included
		}
		switch k % 7 {
		case 0:
			in.Type, in.Code = isa.TypeInt, isa.OpADD+isa.Opcode(k/8%16)
			in.Src1, in.Src2, in.Dest = s.reg(ir.ClassGPR), s.reg(ir.ClassGPR), s.reg(ir.ClassGPR)
		case 1:
			in.Type, in.Code = isa.TypeInt, isa.OpCMPEQ+isa.Opcode(k/8%6)
			in.Src1, in.Src2, in.Dest = s.reg(ir.ClassGPR), s.reg(ir.ClassGPR), s.reg(ir.ClassPred)
		case 2:
			in.Type, in.Code = isa.TypeInt, isa.OpCMPAND+isa.Opcode(k/8%2)
			in.Src1, in.Src2, in.Dest = s.reg(ir.ClassPred), s.reg(ir.ClassPred), s.reg(ir.ClassPred)
		case 3:
			in.Type, in.Code, in.Imm = isa.TypeInt, isa.OpLDI, int32(k)
			in.Dest = s.reg(ir.ClassGPR)
		case 4:
			in.Type, in.Code = isa.TypeFloat, isa.OpFADD+isa.Opcode(k/8%11)
			in.Src1, in.Src2, in.Dest = s.reg(ir.ClassFPR), s.reg(ir.ClassFPR), s.reg(ir.ClassFPR)
		case 5:
			in.Type, in.BHWX = isa.TypeMemory, isa.SizeWord
			switch k / 8 % 3 {
			case 0:
				in.Code, in.Src1, in.Dest = isa.OpLD, s.reg(ir.ClassGPR), s.reg(ir.ClassGPR)
			case 1:
				in.Code, in.Src1, in.Dest = isa.OpLDS, s.reg(ir.ClassGPR), s.reg(ir.ClassGPR)
			default:
				in.Code, in.Src1, in.Dest = isa.OpFLD, s.reg(ir.ClassGPR), s.reg(ir.ClassFPR)
			}
		case 6:
			in.Type, in.BHWX = isa.TypeMemory, isa.SizeWord
			if k/8%2 == 0 {
				in.Code, in.Src1, in.Src2 = isa.OpST, s.reg(ir.ClassGPR), s.reg(ir.ClassGPR)
			} else {
				in.Code, in.Src1, in.Src2 = isa.OpFST, s.reg(ir.ClassGPR), s.reg(ir.ClassFPR)
			}
		}
		instrs = append(instrs, in)
	}
	switch t := s.next(); t % 4 {
	case 1:
		guard := ir.Reg{Class: ir.ClassPred, N: 1 + t/4%31}
		instrs = append(instrs, &ir.Instr{Type: isa.TypeBranch, Code: isa.OpBRCT + isa.Opcode(t/4%2), Pred: guard})
	case 2:
		instrs = append(instrs, &ir.Instr{Type: isa.TypeBranch, Code: isa.OpRET, Pred: ir.PredTrue})
	case 3:
		instrs = append(instrs, &ir.Instr{Type: isa.TypeBranch, Code: isa.OpBR, Src1: s.reg(ir.ClassGPR), Pred: ir.PredTrue})
	}
	return instrs
}

// checkDeps requires s.buildDeps to reproduce refBuildDeps on instrs.
func checkDeps(t *testing.T, s *scheduler, instrs []*ir.Instr) [][]int {
	t.Helper()
	want := refBuildDeps(instrs)
	nodes := s.buildDeps(instrs)
	if len(nodes) != len(instrs) {
		t.Fatalf("buildDeps returned %d nodes for %d instructions", len(nodes), len(instrs))
	}
	for i := range nodes {
		if !slices.Equal(nodes[i].preds, want[i]) {
			t.Fatalf("op %d (%v): preds %v, reference %v", i, instrs[i], nodes[i].preds, want[i])
		}
	}
	return want
}

// checkRespects requires the scheduled block to place every op exactly
// once, each after all its predecessors' MOPs, the branch last, and
// every MOP within the issue and memory-unit limits.
func checkRespects(t *testing.T, instrs []*ir.Instr, preds [][]int, sb *Block) {
	t.Helper()
	lowered := make([]isa.Op, len(instrs))
	for i, in := range instrs {
		op, err := ToISA(in)
		if err != nil {
			t.Fatal(err)
		}
		lowered[i] = op
	}
	// Identical ops are ordered by WAW or store-store edges, so matching
	// each scheduled op to the first unplaced identical instruction
	// recovers the placement of a schedule that keeps those edges.
	mopOf := make([]int, len(instrs))
	for i := range mopOf {
		mopOf[i] = -1
	}
	for mi, m := range sb.MOPs {
		if err := m.Validate(); err != nil {
			t.Fatalf("MOP %d: %v", mi, err)
		}
		for _, op := range m {
			op.Tail = false
			j := slices.IndexFunc(lowered, func(o isa.Op) bool { return o == op })
			for j >= 0 && mopOf[j] >= 0 {
				k := slices.IndexFunc(lowered[j+1:], func(o isa.Op) bool { return o == op })
				if k < 0 {
					j = -1
				} else {
					j += 1 + k
				}
			}
			if j < 0 {
				t.Fatalf("MOP %d carries %v, which no unplaced instruction lowers to", mi, op)
			}
			mopOf[j] = mi
		}
	}
	for i, mi := range mopOf {
		if mi < 0 {
			t.Fatalf("op %d (%v) never scheduled", i, instrs[i])
		}
		for _, p := range preds[i] {
			if mopOf[p] >= mi {
				t.Fatalf("op %d in MOP %d, but its predecessor %d is in MOP %d", i, mi, p, mopOf[p])
			}
		}
	}
	if last := len(instrs) - 1; instrs[last].IsBranch() {
		if mopOf[last] != len(sb.MOPs)-1 || !isa.IsBranch(sb.Ops[last].Type) {
			t.Fatalf("branch in MOP %d of %d, op %v ends the block", mopOf[last], len(sb.MOPs), sb.Ops[last])
		}
	}
}

// FuzzScheduleDeps checks the dense dependence builder against the
// map-keyed reference on random register-allocated blocks, with one
// scheduler reused across two blocks so stale table entries would show,
// and checks that the schedule respects every edge.
func FuzzScheduleDeps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{23, 0, 0, 1, 2, 3, 5, 0, 1, 1, 1, 6, 0, 1, 2, 1})
	f.Add([]byte{12, 6, 0, 1, 1, 5, 4, 1, 2, 6, 0, 1, 1, 13, 1, 3, 3, 1, 1, 9})
	f.Add([]byte{30, 0x81, 0, 0x9f, 0x80, 0x84, 4, 0, 1, 2, 3, 2, 0, 1, 1, 0, 3, 0, 4, 2, 2, 1, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		instrs := genBlock(data)
		var s scheduler
		checkDeps(t, &s, genBlock(append([]byte{7}, data...)))
		preds := checkDeps(t, &s, instrs)

		sp, err := Schedule(oneBlockProgram(instrs))
		if err != nil {
			t.Fatal(err)
		}
		checkRespects(t, instrs, preds, sp.Blocks[0])
	})
}

// TestBuildDepsMatchesReference runs the same check over every block of
// two allocated benchmarks, with one scheduler across all blocks.
func TestBuildDepsMatchesReference(t *testing.T) {
	for _, name := range []string{"compress", "gcc"} {
		p, err := workload.GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := regalloc.Allocate(p); err != nil {
			t.Fatal(err)
		}
		var s scheduler
		for _, b := range p.Blocks() {
			checkDeps(t, &s, b.Instrs)
		}
	}
}

// TestMOPsViewOps pins the block layout: every MOP is a capped window of
// the block's Ops, in order, so the two share one array.
func TestMOPsViewOps(t *testing.T) {
	p, err := workload.GenerateBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.Allocate(p); err != nil {
		t.Fatal(err)
	}
	sp, err := Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sp.Blocks {
		at := 0
		for mi, m := range b.MOPs {
			if &m[0] != &b.Ops[at] || cap(m) != len(m) {
				t.Fatalf("block %d MOP %d is not the capped window Ops[%d:%d]", b.ID, mi, at, at+len(m))
			}
			at += len(m)
		}
		if at != len(b.Ops) || cap(b.Ops) != len(b.Ops) {
			t.Fatalf("block %d: MOPs cover %d of %d ops (cap %d)", b.ID, at, len(b.Ops), cap(b.Ops))
		}
	}
}

// TestScheduleRejectsUnallocated pins the lowering pass: a register
// outside the files is rejected before any table is indexed by it, in
// encoded fields and in fields the op's format leaves out alike.
func TestScheduleRejectsUnallocated(t *testing.T) {
	for _, in := range []*ir.Instr{
		{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(32), Src2: gpr(1), Dest: gpr(2), Pred: ir.PredTrue},
		{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(0), Src2: gpr(1), Dest: gpr(-1), Pred: ir.PredTrue},
		{Type: isa.TypeInt, Code: isa.OpLDI, Src1: gpr(1 << 30), Dest: gpr(2), Pred: ir.PredTrue},
		{Type: isa.TypeMemory, Code: isa.OpST, Src1: gpr(0), Src2: gpr(1), Dest: gpr(99), Pred: ir.PredTrue},
	} {
		if _, err := Schedule(oneBlockProgram([]*ir.Instr{in})); err == nil {
			t.Errorf("%v: scheduled an unallocated register", in)
		}
	}
}
