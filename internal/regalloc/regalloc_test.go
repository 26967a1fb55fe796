package regalloc

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/workload"
)

func gpr(n int) ir.Reg  { return ir.Reg{Class: ir.ClassGPR, N: n} }
func pred(n int) ir.Reg { return ir.Reg{Class: ir.ClassPred, N: n} }

func simpleProgram() *ir.Program {
	// Virtual registers 100..103; chained adds.
	b := &ir.Block{
		Instrs: []*ir.Instr{
			{Type: isa.TypeInt, Code: isa.OpLDI, Imm: 1, Dest: gpr(100), Pred: ir.PredTrue},
			{Type: isa.TypeInt, Code: isa.OpLDI, Imm: 2, Dest: gpr(101), Pred: ir.PredTrue},
			{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(100), Src2: gpr(101), Dest: gpr(102), Pred: ir.PredTrue},
			{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(102), Src2: gpr(101), Dest: gpr(103), Pred: ir.PredTrue},
			{Type: isa.TypeBranch, Code: isa.OpRET, Pred: ir.PredTrue},
		},
		TakenTarget: ir.NoTarget, FallTarget: ir.NoTarget, Callee: ir.NoTarget,
	}
	return ir.NewProgram("simple", []*ir.Func{{Name: "main", Blocks: []*ir.Block{b}}})
}

func TestAllocateSimple(t *testing.T) {
	p := simpleProgram()
	res, err := Allocate(p)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	b := p.Block(0)
	// All registers must now be architectural.
	for i, in := range b.Instrs {
		for _, r := range []ir.Reg{in.Src1, in.Src2, in.Dest} {
			if r.IsValid() && r.N >= isa.NumGPR {
				t.Errorf("instr %d: register %v not architectural", i, r)
			}
		}
	}
	// ldi #1 and ldi #2 live simultaneously plus their sum: peak 2 before
	// the first add retires r(100).
	if res.MaxPressure.GPR < 2 {
		t.Errorf("peak GPR pressure %d, want >= 2", res.MaxPressure.GPR)
	}
	// Dataflow must be preserved: the first add reads what the ldis wrote.
	add := b.Instrs[2]
	if add.Src1 != b.Instrs[0].Dest || add.Src2 != b.Instrs[1].Dest {
		t.Errorf("add sources %v,%v do not match ldi dests %v,%v",
			add.Src1, add.Src2, b.Instrs[0].Dest, b.Instrs[1].Dest)
	}
	// Second add reads the first add's result.
	if b.Instrs[3].Src1 != add.Dest {
		t.Errorf("chained add source %v != %v", b.Instrs[3].Src1, add.Dest)
	}
	if res.Steals != 0 {
		t.Errorf("simple program caused %d steals", res.Steals)
	}
}

func TestAllocateDeterministic(t *testing.T) {
	p1 := simpleProgram()
	p2 := simpleProgram()
	if _, err := Allocate(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := Allocate(p2); err != nil {
		t.Fatal(err)
	}
	// Assignment is a deterministic per-function permutation: identical
	// programs allocate identically.
	for i := range p1.Block(0).Instrs {
		a, b := p1.Block(0).Instrs[i], p2.Block(0).Instrs[i]
		if *a != *b {
			t.Fatalf("instr %d allocated differently: %v vs %v", i, a, b)
		}
	}
	// Register reuse stays function-local: a short program touches few
	// distinct registers even under a permuted preference order.
	distinct := map[int]bool{}
	for _, in := range p1.Block(0).Instrs {
		if in.Dest.Class == ir.ClassGPR {
			distinct[in.Dest.N] = true
		}
	}
	if len(distinct) > 4 {
		t.Errorf("simple program used %d distinct GPRs", len(distinct))
	}
}

func TestAllocatePreservesP0(t *testing.T) {
	b := &ir.Block{
		Instrs: []*ir.Instr{
			{Type: isa.TypeInt, Code: isa.OpCMPEQ, Src1: gpr(100), Src2: gpr(100),
				Dest: pred(5), Pred: ir.PredTrue},
			{Type: isa.TypeInt, Code: isa.OpLDI, Imm: 3, Dest: gpr(100), Pred: ir.PredTrue},
			{Type: isa.TypeBranch, Code: isa.OpRET, Pred: ir.PredTrue},
		},
		TakenTarget: ir.NoTarget, FallTarget: ir.NoTarget, Callee: ir.NoTarget,
	}
	// Reorder so def precedes use.
	b.Instrs[0], b.Instrs[1] = b.Instrs[1], b.Instrs[0]
	p := ir.NewProgram("p0test", []*ir.Func{{Name: "main", Blocks: []*ir.Block{b}}})
	if _, err := Allocate(p); err != nil {
		t.Fatal(err)
	}
	cmp := b.Instrs[1]
	if cmp.Dest.N == isa.PredAlways {
		t.Error("predicate definition allocated to reserved p0")
	}
	if cmp.Pred != ir.PredTrue {
		t.Error("p0 guard was rewritten")
	}
}

func TestAllocateUseBeforeDefFails(t *testing.T) {
	b := &ir.Block{
		Instrs: []*ir.Instr{
			{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(100), Src2: gpr(100),
				Dest: gpr(101), Pred: ir.PredTrue},
			{Type: isa.TypeBranch, Code: isa.OpRET, Pred: ir.PredTrue},
		},
		TakenTarget: ir.NoTarget, FallTarget: ir.NoTarget, Callee: ir.NoTarget,
	}
	p := ir.NewProgram("bad", []*ir.Func{{Name: "main", Blocks: []*ir.Block{b}}})
	if _, err := Allocate(p); err == nil {
		t.Error("Allocate accepted use-before-def")
	}
}

func TestAllocateAllBenchmarks(t *testing.T) {
	for _, name := range workload.Benchmarks {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := workload.GenerateBenchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Allocate(p)
			if err != nil {
				t.Fatalf("Allocate(%s): %v", name, err)
			}
			// Every register must fit the 5-bit encoding fields.
			for _, b := range p.Blocks() {
				for _, in := range b.Instrs {
					for _, r := range []ir.Reg{in.Src1, in.Src2, in.Dest, in.Pred} {
						if r.IsValid() && (r.N < 0 || r.N >= 32) {
							t.Fatalf("block %d: register %v out of range", b.ID, r)
						}
					}
				}
			}
			if res.GPRUsed == 0 {
				t.Error("no GPRs used")
			}
			// Working sets are bounded by the profile, so stealing should
			// be rare relative to program size.
			if res.Steals > p.NumOps()/20 {
				t.Errorf("%s: %d steals for %d ops", name, res.Steals, p.NumOps())
			}
		})
	}
}

func TestPressureBounded(t *testing.T) {
	p, _ := workload.GenerateBenchmark("gcc")
	res, err := Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPressure.GPR > isa.NumGPR {
		t.Errorf("GPR pressure %d exceeds file size", res.MaxPressure.GPR)
	}
	if res.MaxPressure.Pred > isa.NumPred {
		t.Errorf("pred pressure %d exceeds file size", res.MaxPressure.Pred)
	}
}

// pressureProgram defines 40 GPR virtuals before reading any of them,
// so the 32-register file must steal.
func pressureProgram() *ir.Program {
	var instrs []*ir.Instr
	for v := 0; v < 40; v++ {
		instrs = append(instrs, &ir.Instr{Type: isa.TypeInt, Code: isa.OpLDI, Imm: int32(v), Dest: gpr(v), Pred: ir.PredTrue})
	}
	for v := 39; v > 0; v-- {
		instrs = append(instrs, &ir.Instr{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(v), Src2: gpr(v - 1), Dest: gpr(40 + v), Pred: ir.PredTrue})
	}
	b := &ir.Block{Instrs: instrs, TakenTarget: ir.NoTarget, FallTarget: ir.NoTarget, Callee: ir.NoTarget}
	return ir.NewProgram("pressure", []*ir.Func{{Name: "main", Blocks: []*ir.Block{b}}})
}

// TestAllocateIgnoresVirtualNumbering pins that allocation depends only
// on which references name the same virtual register, never on the
// numbers: renaming every virtual to huge, negative or gapped numbers
// (p0 kept) must give the same physical registers and the same Result,
// on gcc and on a program that steals. Tables sized by the largest
// number could not hold these.
func TestAllocateIgnoresVirtualNumbering(t *testing.T) {
	rename := func(r *ir.Reg) {
		switch r.Class {
		case ir.ClassGPR:
			r.N = math.MaxInt - 3*r.N // huge, descending, gaps of 3
		case ir.ClassFPR:
			r.N = math.MinInt + 5*r.N // negative, gaps of 5
		case ir.ClassPred:
			if r.N != isa.PredAlways {
				r.N = -r.N // negative, no gaps
			}
		}
	}
	gcc := func() *ir.Program {
		p, err := workload.GenerateBenchmark("gcc")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, mk := range []func() *ir.Program{gcc, pressureProgram} {
		want, renamed := mk(), mk()
		for _, b := range renamed.Blocks() {
			for _, in := range b.Instrs {
				rename(&in.Src1)
				rename(&in.Src2)
				rename(&in.Dest)
				rename(&in.Pred)
			}
		}
		wantRes, err := Allocate(want)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := Allocate(renamed)
		if err != nil {
			t.Fatal(err)
		}
		if gotRes != wantRes {
			t.Errorf("%s: renamed Result %+v, want %+v", want.Name, gotRes, wantRes)
		}
		if want.Name == "pressure" && wantRes.Steals == 0 {
			t.Error("pressure program allocated without a steal")
		}
		for i, b := range renamed.Blocks() {
			for j, in := range b.Instrs {
				if w := want.Block(i).Instrs[j]; *in != *w {
					t.Fatalf("%s block %d instr %d: renamed allocates to %v, want %v", want.Name, i, j, in, w)
				}
			}
		}
	}
}
