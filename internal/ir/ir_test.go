package ir

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

// tinyProgram builds a two-function program:
//
//	main:  b0 (ldi, add, brct->b1)  b1 (call f)  b2 (ret)
//	f:     b3 (add, ret)
func tinyProgram() *Program {
	gpr := func(n int) Reg { return Reg{ClassGPR, n} }
	pred := func(n int) Reg { return Reg{ClassPred, n} }

	b0 := &Block{
		Instrs: []*Instr{
			{Type: isa.TypeInt, Code: isa.OpLDI, Imm: 7, Dest: gpr(1), Pred: PredTrue},
			{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(1), Src2: gpr(1), Dest: gpr(2), Pred: PredTrue},
			{Type: isa.TypeInt, Code: isa.OpCMPLT, Src1: gpr(1), Src2: gpr(2), Dest: pred(1), Pred: PredTrue},
			{Type: isa.TypeBranch, Code: isa.OpBRCT, Src1: gpr(0), Pred: pred(1)},
		},
		TakenProb: 0.5,
	}
	b1 := &Block{
		Instrs: []*Instr{
			{Type: isa.TypeBranch, Code: isa.OpCALL, Src1: gpr(0), Pred: PredTrue},
		},
	}
	b2 := &Block{
		Instrs: []*Instr{
			{Type: isa.TypeBranch, Code: isa.OpRET, Pred: PredTrue},
		},
	}
	b3 := &Block{
		Instrs: []*Instr{
			{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(1), Src2: gpr(2), Dest: gpr(3), Pred: PredTrue},
			{Type: isa.TypeBranch, Code: isa.OpRET, Pred: PredTrue},
		},
	}
	main := &Func{Name: "main", Blocks: []*Block{b0, b1, b2}}
	f := &Func{Name: "f", Blocks: []*Block{b3}}
	p := NewProgram("tiny", []*Func{main, f})
	b0.TakenTarget = b2.ID
	b0.FallTarget = b1.ID
	b1.Callee = 1
	b1.FallTarget = b2.ID
	b1.TakenTarget = NoTarget
	b2.TakenTarget = NoTarget
	b2.FallTarget = NoTarget
	b3.TakenTarget = NoTarget
	b3.FallTarget = NoTarget
	b2.Callee = NoTarget
	b0.Callee = NoTarget
	b3.Callee = NoTarget
	return p
}

func TestNewProgramAssignsIDs(t *testing.T) {
	p := tinyProgram()
	if p.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", p.NumBlocks())
	}
	for i := 0; i < p.NumBlocks(); i++ {
		if p.Block(i).ID != i {
			t.Errorf("block %d has ID %d", i, p.Block(i).ID)
		}
	}
	if p.Block(3).Fn != 1 {
		t.Errorf("block 3 owned by function %d, want 1", p.Block(3).Fn)
	}
}

func TestValidateOK(t *testing.T) {
	p := tinyProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsInteriorBranch(t *testing.T) {
	p := tinyProgram()
	b := p.Block(0)
	// Move the branch to the front.
	b.Instrs[0], b.Instrs[3] = b.Instrs[3], b.Instrs[0]
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted interior branch")
	}
}

func TestValidateRejectsUnguardedCondBranch(t *testing.T) {
	p := tinyProgram()
	p.Block(0).Terminator().Pred = PredTrue
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted brct guarded by p0")
	}
}

func TestValidateRejectsBadTarget(t *testing.T) {
	p := tinyProgram()
	p.Block(0).TakenTarget = 99
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range taken target")
	}
}

func TestValidateRejectsBadProb(t *testing.T) {
	p := tinyProgram()
	p.Block(0).TakenProb = 1.5
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted probability > 1")
	}
}

func TestValidateRejectsBadCallee(t *testing.T) {
	p := tinyProgram()
	p.Block(1).Callee = 42
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted call to undefined function")
	}
}

func TestTerminator(t *testing.T) {
	p := tinyProgram()
	if p.Block(0).Terminator() == nil {
		t.Error("block 0 should have a terminator")
	}
	b := &Block{Instrs: []*Instr{
		{Type: isa.TypeInt, Code: isa.OpADD, Pred: PredTrue},
	}}
	if b.Terminator() != nil {
		t.Error("branchless block reported a terminator")
	}
}

func TestUsesAndDef(t *testing.T) {
	in := &Instr{
		Type: isa.TypeInt, Code: isa.OpADD,
		Src1: Reg{ClassGPR, 1}, Src2: Reg{ClassGPR, 2},
		Dest: Reg{ClassGPR, 3}, Pred: Reg{ClassPred, 4},
	}
	var buf [3]Reg
	uses := in.AppendUses(buf[:0])
	want := []Reg{{ClassGPR, 1}, {ClassGPR, 2}, {ClassPred, 4}}
	if !slices.Equal(uses, want) {
		t.Fatalf("AppendUses = %v, want %v (src1, src2, pred)", uses, want)
	}
	if &uses[0] != &buf[0] {
		t.Error("AppendUses did not fill the caller's buffer")
	}
	if in.Def() != (Reg{ClassGPR, 3}) {
		t.Errorf("Def() = %v", in.Def())
	}
	// Guard p0 does not count as a use.
	in.Pred = PredTrue
	if got := in.AppendUses(buf[:0]); len(got) != 2 {
		t.Errorf("p0 guard counted as a use: %v", got)
	}
	// It appends: what dst held before stays in front.
	if got := in.AppendUses([]Reg{{ClassFPR, 7}}); !slices.Equal(got, []Reg{{ClassFPR, 7}, {ClassGPR, 1}, {ClassGPR, 2}}) {
		t.Errorf("AppendUses onto a non-empty slice = %v", got)
	}
}

func TestCollectStats(t *testing.T) {
	p := tinyProgram()
	s := Collect(p)
	if s.Funcs != 2 || s.Blocks != 4 {
		t.Errorf("funcs/blocks = %d/%d, want 2/4", s.Funcs, s.Blocks)
	}
	if s.Ops != 8 {
		t.Errorf("ops = %d, want 8", s.Ops)
	}
	if s.Branches != 4 || s.CondBr != 1 || s.Calls != 1 {
		t.Errorf("branches=%d cond=%d calls=%d, want 4/1/1",
			s.Branches, s.CondBr, s.Calls)
	}
	if s.Immediate != 1 {
		t.Errorf("immediates = %d, want 1", s.Immediate)
	}
	if s.MaxGPR != 4 {
		t.Errorf("MaxGPR = %d, want 4", s.MaxGPR)
	}
	if s.String() == "" {
		t.Error("Stats.String() empty")
	}
}

func TestInstrString(t *testing.T) {
	in := &Instr{Type: isa.TypeInt, Code: isa.OpLDI, Imm: 9,
		Dest: Reg{ClassGPR, 5}, Pred: PredTrue}
	if got := in.String(); !strings.Contains(got, "#9") || !strings.Contains(got, "r5") {
		t.Errorf("ldi renders %q", got)
	}
	guarded := &Instr{Type: isa.TypeInt, Code: isa.OpADD,
		Src1: Reg{ClassGPR, 1}, Src2: Reg{ClassGPR, 2},
		Dest: Reg{ClassGPR, 3}, Pred: Reg{ClassPred, 2}}
	if got := guarded.String(); !strings.Contains(got, "if p2") {
		t.Errorf("guarded add renders %q", got)
	}
}

func TestRegString(t *testing.T) {
	if (Reg{ClassGPR, 3}).String() != "r3" {
		t.Error("GPR string")
	}
	if None.String() != "-" {
		t.Error("None string")
	}
	if None.IsValid() {
		t.Error("None is valid")
	}
}
