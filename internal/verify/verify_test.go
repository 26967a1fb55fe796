package verify

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/huffman"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/sched"
)

// ---- fixtures -------------------------------------------------------------

func intOp(tail bool) isa.Op { return isa.Op{Tail: tail} } // zero value: add r0,r0 -> r0
func memOp(tail bool) isa.Op {
	return isa.Op{Tail: tail, Type: isa.TypeMemory, Code: isa.OpLD}
}
func brOp(code isa.Opcode, tail bool) isa.Op {
	return isa.Op{Tail: tail, Type: isa.TypeBranch, Code: code, Pred: 1}
}

func flatten(mops []isa.MOP) []isa.Op {
	var ops []isa.Op
	for _, m := range mops {
		ops = append(ops, m...)
	}
	return ops
}

// cleanSched builds a minimal valid two-block scheduled program: block 0
// branches to block 1, block 1 returns.
func cleanSched() *sched.Program {
	b0 := &sched.Block{
		ID: 0, Fn: 0,
		MOPs: []isa.MOP{
			{intOp(false), intOp(true)},
			{brOp(isa.OpBR, true)},
		},
		TakenTarget: 1, FallTarget: ir.NoTarget, Callee: ir.NoTarget,
		TakenProb: 1,
	}
	b1 := &sched.Block{
		ID: 1, Fn: 0,
		MOPs: []isa.MOP{
			{intOp(false), brOp(isa.OpRET, true)},
		},
		TakenTarget: ir.NoTarget, FallTarget: ir.NoTarget, Callee: ir.NoTarget,
	}
	for _, b := range []*sched.Block{b0, b1} {
		b.Ops = flatten(b.MOPs)
	}
	return &sched.Program{Name: "t", Blocks: []*sched.Block{b0, b1}, FuncEntries: []int{0}}
}

func gpr(n int) ir.Reg { return ir.Reg{Class: ir.ClassGPR, N: n} }
func prd(n int) ir.Reg { return ir.Reg{Class: ir.ClassPred, N: n} }

// cleanIR builds a minimal valid IR program mirroring cleanSched's shape.
func cleanIR() *ir.Program {
	b0 := &ir.Block{
		Instrs: []*ir.Instr{
			{Type: isa.TypeInt, Code: isa.OpADD, Src1: gpr(0), Src2: gpr(1), Dest: gpr(2), Pred: ir.PredTrue},
			{Type: isa.TypeBranch, Code: isa.OpBRCT, Pred: prd(1)},
		},
		TakenTarget: 1, FallTarget: 1, Callee: ir.NoTarget, TakenProb: 0.5,
	}
	b1 := &ir.Block{
		Instrs: []*ir.Instr{
			{Type: isa.TypeBranch, Code: isa.OpRET, Pred: ir.PredTrue},
		},
		TakenTarget: ir.NoTarget, FallTarget: ir.NoTarget, Callee: ir.NoTarget,
	}
	return ir.NewProgram("t", []*ir.Func{{Name: "main", Blocks: []*ir.Block{b0, b1}}})
}

// ---- seeded-broken IR fixtures -------------------------------------------

func TestIRCatchesBrokenFixtures(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(p *ir.Program)
		want   CheckID
		warn   bool
	}{
		{"dangling-branch-target", func(p *ir.Program) {
			p.Block(0).TakenTarget = 99
		}, CheckIRTakenTarget, false},
		{"dangling-fall-target", func(p *ir.Program) {
			p.Block(0).FallTarget = 99
		}, CheckIRFallTarget, false},
		{"branch-not-last", func(p *ir.Program) {
			b := p.Block(0)
			b.Instrs = append(b.Instrs, &ir.Instr{
				Type: isa.TypeInt, Code: isa.OpADD, Pred: ir.PredTrue})
		}, CheckIRBranchNotLast, false},
		{"undefined-opcode", func(p *ir.Program) {
			p.Block(0).Instrs[0].Code = 200
		}, CheckIROpcode, false},
		{"register-out-of-file", func(p *ir.Program) {
			p.Block(0).Instrs[0].Dest = gpr(40)
		}, CheckIRRegBound, false},
		{"guard-not-predicate", func(p *ir.Program) {
			p.Block(0).Instrs[0].Pred = gpr(1)
		}, CheckIRRegClass, false},
		{"cond-branch-unguarded", func(p *ir.Program) {
			p.Block(0).Instrs[1].Pred = ir.PredTrue
		}, CheckIRCondGuard, false},
		{"call-undefined-function", func(p *ir.Program) {
			p.Block(0).Instrs[1].Code = isa.OpCALL
			p.Block(0).Callee = 7
		}, CheckIRCallee, false},
		{"probability-out-of-range", func(p *ir.Program) {
			p.Block(0).TakenProb = 1.5
		}, CheckIRProbRange, false},
		{"block-id-mismatch", func(p *ir.Program) {
			p.Block(1).ID = 5
		}, CheckIRBlockID, false},
		{"unreachable-block", func(p *ir.Program) {
			p.Block(0).TakenTarget = 0
			p.Block(0).FallTarget = 0
		}, CheckIRUnreachable, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := cleanIR()
			if rep := IR(p, true); !rep.OK() || rep.Warnings() != 0 {
				t.Fatalf("clean fixture not clean: %v", rep.Diags)
			}
			tt.mutate(p)
			rep := IR(p, true)
			if !rep.Has(tt.want) {
				t.Fatalf("want %s, got %v", tt.want, rep.Diags)
			}
			if tt.warn && !rep.OK() {
				t.Errorf("%s should be a warning, got errors: %v", tt.want, rep.Diags)
			}
			if !tt.warn && rep.OK() {
				t.Errorf("%s should be an error, report is OK", tt.want)
			}
		})
	}
}

// ---- seeded-broken schedule fixtures -------------------------------------

func TestScheduleCatchesBrokenFixtures(t *testing.T) {
	reflatten := func(b *sched.Block) { b.Ops = flatten(b.MOPs) }
	tests := []struct {
		name   string
		mutate func(sp *sched.Program)
		want   CheckID
	}{
		{"missing-tail-bit", func(sp *sched.Program) {
			b := sp.Blocks[0]
			b.MOPs[0][1].Tail = false
			reflatten(b)
		}, CheckMOPTail},
		{"tail-bit-mid-mop", func(sp *sched.Program) {
			b := sp.Blocks[0]
			b.MOPs[0][0].Tail = true
			reflatten(b)
		}, CheckMOPTail},
		{"overwide-mop", func(sp *sched.Program) {
			b := sp.Blocks[0]
			wide := make(isa.MOP, isa.IssueWidth+1)
			for i := range wide {
				wide[i] = intOp(i == len(wide)-1)
			}
			b.MOPs[0] = wide
			reflatten(b)
		}, CheckMOPWidth},
		{"empty-mop", func(sp *sched.Program) {
			b := sp.Blocks[0]
			b.MOPs = append([]isa.MOP{{}}, b.MOPs...)
		}, CheckMOPEmpty},
		{"too-many-memory-ops", func(sp *sched.Program) {
			b := sp.Blocks[0]
			b.MOPs[0] = isa.MOP{memOp(false), memOp(false), memOp(true)}
			reflatten(b)
		}, CheckMOPMemUnits},
		{"field-overflow", func(sp *sched.Program) {
			b := sp.Blocks[0]
			b.MOPs[0][0].Src1 = 40 // 5-bit field
			reflatten(b)
		}, CheckMOPOpField},
		{"undefined-opcode", func(sp *sched.Program) {
			b := sp.Blocks[0]
			b.MOPs[0][0].Code = 200
			reflatten(b)
		}, CheckMOPOpField},
		{"flat-sequence-drift", func(sp *sched.Program) {
			sp.Blocks[0].Ops[0].Dest = 9 // MOP copy still has Dest 0
		}, CheckMOPFlatten},
		{"branch-not-last", func(sp *sched.Program) {
			b := sp.Blocks[0]
			b.MOPs = []isa.MOP{{brOp(isa.OpBR, false), intOp(true)}}
			reflatten(b)
		}, CheckMOPBranchNotLast},
		{"dangling-taken-target", func(sp *sched.Program) {
			sp.Blocks[0].TakenTarget = 99
		}, CheckMOPTarget},
		{"taken-target-without-branch", func(sp *sched.Program) {
			b := sp.Blocks[1]
			b.MOPs = []isa.MOP{{intOp(true)}}
			reflatten(b)
			b.TakenTarget = 0
		}, CheckMOPTarget},
		{"call-undefined-function", func(sp *sched.Program) {
			b := sp.Blocks[1]
			b.MOPs = []isa.MOP{{brOp(isa.OpCALL, true)}}
			reflatten(b)
			b.Callee = 7
		}, CheckMOPTarget},
		{"dangling-func-entry", func(sp *sched.Program) {
			sp.FuncEntries[0] = 42
		}, CheckMOPFuncEntry},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sp := cleanSched()
			if rep := Schedule(sp, nil); !rep.OK() {
				t.Fatalf("clean fixture not clean: %v", rep.Diags)
			}
			tt.mutate(sp)
			rep := Schedule(sp, nil)
			if !rep.Has(tt.want) {
				t.Fatalf("want %s, got %v", tt.want, rep.Diags)
			}
			if rep.OK() {
				t.Errorf("%s should be an error, report is OK", tt.want)
			}
		})
	}
}

func TestScheduleAgainstIR(t *testing.T) {
	sp := cleanSched()
	p := cleanIR()
	// The fixtures differ (op counts, fall targets), so the cross-check
	// must fire; same-shape inputs must pass.
	if rep := Schedule(sp, p); !rep.Has(CheckMOPAgainstIR) {
		t.Errorf("mismatched IR not flagged: %v", rep.Diags)
	}
}

// ---- seeded-broken Huffman tables ----------------------------------------

func TestCheckCodesCatchesBrokenTables(t *testing.T) {
	c := func(bits uint64, l int) huffman.Code { return huffman.Code{Bits: bits, Len: l} }
	tests := []struct {
		name  string
		syms  []uint64
		codes []huffman.Code
		want  CheckID
		warn  bool
	}{
		{"non-canonical", []uint64{0, 1, 2},
			// Lengths 1,2,2: canonical is 0,10,11; symbols 1 and 2 swapped.
			[]huffman.Code{c(0, 1), c(3, 2), c(2, 2)},
			CheckHuffCanonical, false},
		{"prefix-collision", []uint64{0, 1},
			[]huffman.Code{c(0, 1), c(1, 2)}, // "0" prefixes "01"
			CheckHuffPrefix, false},
		{"kraft-overfull", []uint64{0, 1, 2},
			[]huffman.Code{c(0, 1), c(1, 1), c(2, 2)},
			CheckHuffKraftOver, false},
		{"kraft-slack", []uint64{0, 1},
			[]huffman.Code{c(0, 2), c(1, 2)},
			CheckHuffKraftSlack, true},
		{"over-long-code", []uint64{0, 1},
			[]huffman.Code{c(0, 1), c(1, compress.CodeLenLimit+1)},
			CheckHuffMaxLen, false},
		{"duplicate-symbol", []uint64{7, 7},
			[]huffman.Code{c(0, 1), c(1, 1)},
			CheckHuffDup, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rep := &Report{}
			CheckCodes("test", 0, tt.syms, tt.codes, compress.CodeLenLimit, rep)
			if !rep.Has(tt.want) {
				t.Fatalf("want %s, got %v", tt.want, rep.Diags)
			}
			if tt.warn != (rep.ByCheck(tt.want)[0].Sev == SevWarn) {
				t.Errorf("%s severity wrong (warn=%v): %v", tt.want, tt.warn, rep.Diags)
			}
		})
	}

	t.Run("clean-canonical", func(t *testing.T) {
		rep := &Report{}
		CheckCodes("test", 0, []uint64{0, 1, 2},
			[]huffman.Code{c(0, 1), c(2, 2), c(3, 2)}, compress.CodeLenLimit, rep)
		if len(rep.Diags) != 0 {
			t.Errorf("clean table flagged: %v", rep.Diags)
		}
	})
}

func TestEncodingRealTables(t *testing.T) {
	sp := cleanSched()
	enc, err := compress.NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep := Encoding(sp, enc); !rep.OK() {
		t.Errorf("real encoder flagged: %v", rep.Diags)
	}
}

// ---- seeded-broken images and ATTs ---------------------------------------

// buildImage encodes cleanSched under full-op Huffman and attaches an ATT.
func buildImage(t *testing.T) (*sched.Program, *compress.FullHuffman, *image.Image) {
	t.Helper()
	sp := cleanSched()
	enc, err := compress.NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	im, err := image.Build(sp, enc)
	if err != nil {
		t.Fatal(err)
	}
	if im.ATT, err = image.BuildATT(sp, im); err != nil {
		t.Fatal(err)
	}
	return sp, enc, im
}

func TestImageCatchesBrokenFixtures(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(im *image.Image)
		want   CheckID
	}{
		{"corrupt-data", func(im *image.Image) {
			im.Data[0] ^= 0xFF
		}, CheckImgDecode},
		{"truncated-blocks", func(im *image.Image) {
			im.Blocks = im.Blocks[:1]
		}, CheckImgBlockCount},
		{"block-outside-image", func(im *image.Image) {
			im.Blocks[1].Addr = im.CodeBytes + 4
		}, CheckImgExtent},
		{"overlapping-blocks", func(im *image.Image) {
			im.Blocks[1].Addr = im.Blocks[0].Addr
		}, CheckImgOverlap},
		{"op-count-drift", func(im *image.Image) {
			im.Blocks[0].Ops++
		}, CheckImgCounts},
		{"att-dropped", func(im *image.Image) {
			im.ATT = nil
		}, CheckATTMissing},
		{"att-short", func(im *image.Image) {
			im.ATT.Entries = im.ATT.Entries[:1]
		}, CheckATTCount},
		{"att-unsorted", func(im *image.Image) {
			e := im.ATT.Entries
			e[0].Orig, e[1].Orig = e[1].Orig, e[0].Orig
		}, CheckATTSorted},
		{"att-entry-drift", func(im *image.Image) {
			im.ATT.Entries[1].Bytes += 3
		}, CheckATTEntry},
		{"att-orig-drift", func(im *image.Image) {
			im.ATT.Entries[len(im.ATT.Entries)-1].Orig++ // still ascending
		}, CheckATTEntry},
		{"att-enc-overlap", func(im *image.Image) {
			im.ATT.Entries[1].Enc = im.ATT.Entries[0].Enc
			im.Blocks[1].Addr = im.Blocks[0].Addr
		}, CheckATTOverlap},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sp, enc, im := buildImage(t)
			if rep := Image(im, sp, enc, ImageOpts{RequireATT: true}); !rep.OK() {
				t.Fatalf("clean fixture not clean: %v", rep.Diags)
			}
			tt.mutate(im)
			rep := Image(im, sp, enc, ImageOpts{RequireATT: true})
			if !rep.Has(tt.want) {
				t.Fatalf("want %s, got %v", tt.want, rep.Diags)
			}
			if rep.OK() {
				t.Errorf("%s should be an error, report is OK", tt.want)
			}
		})
	}
}

// TestImageEmptyBlockClean: a block with no ops (an empty label that
// falls through) has the same original address as its successor, and
// its program's ATT is correct — the verifier must not flag it.
func TestImageEmptyBlockClean(t *testing.T) {
	sp := cleanSched()
	b0, b1 := sp.Blocks[0], sp.Blocks[1]
	empty := &sched.Block{
		ID: 1, Fn: 0,
		TakenTarget: ir.NoTarget, FallTarget: 2, Callee: ir.NoTarget,
	}
	b0.TakenTarget = 1
	b1.ID = 2
	sp.Blocks = []*sched.Block{b0, empty, b1}
	enc, err := compress.NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	im, err := image.Build(sp, enc)
	if err != nil {
		t.Fatal(err)
	}
	if im.ATT, err = image.BuildATT(sp, im); err != nil {
		t.Fatal(err)
	}
	if rep := Image(im, sp, enc, ImageOpts{RequireATT: true}); !rep.OK() {
		t.Errorf("empty block flagged: %v", rep.Diags)
	}
	// The exception covers only a predecessor with no ops.
	im.ATT.Entries[1].Orig = im.ATT.Entries[0].Orig
	if rep := Image(im, sp, enc, ImageOpts{RequireATT: true}); !rep.Has(CheckATTSorted) {
		t.Errorf("repeated address after a non-empty block not flagged: %v", rep.Diags)
	}
}

func TestImageUntranslatableTarget(t *testing.T) {
	sp, enc, im := buildImage(t)
	sp.Blocks[1].TakenTarget = 99 // beyond the ATT
	rep := Image(im, sp, enc, ImageOpts{RequireATT: true})
	if !rep.Has(CheckATTTarget) {
		t.Errorf("untranslatable target not flagged: %v", rep.Diags)
	}
}

func TestImageOrderMismatch(t *testing.T) {
	sp, enc, im := buildImage(t)
	// The image was built in natural order; claiming a reversed layout
	// must trip the placement check.
	rep := Image(im, sp, enc, ImageOpts{Order: layout.Order{1, 0}, RequireATT: true})
	if !rep.Has(CheckImgOrder) {
		t.Errorf("wrong placement not flagged: %v", rep.Diags)
	}
}

func TestImageOrderedLayoutClean(t *testing.T) {
	sp := cleanSched()
	enc, err := compress.NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	order := layout.Order{1, 0}
	im, err := image.BuildOrdered(sp, enc, order)
	if err != nil {
		t.Fatal(err)
	}
	rep := Image(im, sp, enc, ImageOpts{Order: order})
	if !rep.OK() {
		t.Errorf("ordered image flagged: %v", rep.Diags)
	}
}

// ---- pipeline and report plumbing ----------------------------------------

func TestPipelineClean(t *testing.T) {
	sp, enc, im := buildImage(t)
	rep := Pipeline(nil, sp, []Artifact{{Scheme: "full", Enc: enc, Im: im}})
	if !rep.OK() {
		t.Errorf("clean pipeline flagged: %v", rep.Diags)
	}
}

func TestReportOutput(t *testing.T) {
	rep := &Report{}
	rep.Errorf("sched", CheckMOPTail, AtOp(3, 1), "missing tail")
	rep.Warnf("ir", CheckIRUnreachable, At(2), "dead block")
	if rep.Errors() != 1 || rep.Warnings() != 1 || rep.OK() {
		t.Fatalf("counts wrong: %+v", rep)
	}
	rep.Sort()

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "[mop-tail] b3/op1") ||
		!strings.Contains(text.String(), "1 error(s), 1 warning(s)") {
		t.Errorf("text output:\n%s", text.String())
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Errors   int `json:"errors"`
		Warnings int `json:"warnings"`
		Diags    []struct {
			Check    string `json:"check"`
			Severity string `json:"severity"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Errors != 1 || parsed.Warnings != 1 || len(parsed.Diags) != 2 {
		t.Errorf("JSON envelope: %+v", parsed)
	}
	if parsed.Diags[0].Severity != "error" && parsed.Diags[1].Severity != "error" {
		t.Errorf("severity not serialized as string: %+v", parsed.Diags)
	}
}

func TestPosString(t *testing.T) {
	if got := NoPos.String(); got != "-" {
		t.Errorf("NoPos = %q", got)
	}
	p := Pos{Func: 2, Block: 14, Op: 3, Bit: -1}
	if got := p.String(); got != "fn2/b14/op3" {
		t.Errorf("Pos = %q", got)
	}
}
