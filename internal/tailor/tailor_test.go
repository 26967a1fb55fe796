package tailor

import (
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/workload"
)

func compile(t testing.TB, name string) *sched.Program {
	t.Helper()
	p, err := workload.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.Allocate(p); err != nil {
		t.Fatal(err)
	}
	sp, err := sched.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestTailoredRoundTrip(t *testing.T) {
	sp := compile(t, "compress")
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sp.Blocks {
		var w bitio.Writer
		if err := tl.EncodeBlock(&w, b.Ops); err != nil {
			t.Fatalf("block %d: %v", b.ID, err)
		}
		if w.BitLen() > tl.BlockBits(b.Ops)+7 {
			t.Fatalf("block %d: wrote %d bits, BlockBits %d", b.ID, w.BitLen(), tl.BlockBits(b.Ops))
		}
		r := bitio.NewReader(w.Bytes())
		back, err := tl.DecodeBlock(r, len(b.Ops))
		if err != nil {
			t.Fatalf("block %d decode: %v", b.ID, err)
		}
		for i := range back {
			if back[i] != b.Ops[i] {
				t.Fatalf("block %d op %d: %v != %v", b.ID, i,
					back[i].String(), b.Ops[i].String())
			}
		}
	}
}

func TestTailoredShrinks(t *testing.T) {
	for _, name := range []string{"compress", "go", "vortex"} {
		sp := compile(t, name)
		tl, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		orig, tailored := 0, 0
		for _, b := range sp.Blocks {
			orig += len(b.Ops) * isa.OpBits
			tailored += tl.BlockBits(b.Ops)
		}
		ratio := float64(tailored) / float64(orig)
		// Paper §2.3: tailored code is on the order of 64% of original.
		if ratio < 0.40 || ratio > 0.85 {
			t.Errorf("%s: tailored ratio %.3f outside plausible band", name, ratio)
		}
		t.Logf("%s: tailored ratio %.3f", name, ratio)
	}
}

func TestFixedOpSizePerOpcode(t *testing.T) {
	// §2.3/§3.4: all ops of the same type and code have the same size.
	sp := compile(t, "go")
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[[2]uint8]int{}
	for _, b := range sp.Blocks {
		for i := range b.Ops {
			op := b.Ops[i]
			var w bitio.Writer
			if err := tl.EncodeBlock(&w, []isa.Op{op}); err != nil {
				t.Fatal(err)
			}
			want, err := tl.OpBits(op.Type, op.Code)
			if err != nil {
				t.Fatal(err)
			}
			key := [2]uint8{uint8(op.Type), uint8(op.Code)}
			if prev, ok := sizes[key]; ok && prev != want {
				t.Fatalf("opcode %v/%d has two sizes: %d and %d",
					op.Type, op.Code, prev, want)
			}
			sizes[key] = want
			// Written bits (minus byte padding) must equal OpBits.
			if w.BitLen()-want >= 8 {
				t.Fatalf("op %v: wrote %d bits, expected %d (+padding)",
					op.String(), w.BitLen(), want)
			}
		}
	}
}

func TestNoOpExceedsBaseline(t *testing.T) {
	sp := compile(t, "gcc")
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range tl.types {
		for _, c := range tl.opcs[ty] {
			bits := tl.opBits[ty][c]
			if bits > isa.OpBits {
				t.Errorf("opcode %v/%d tailored to %d bits > baseline 40", ty, c, bits)
			}
			if bits < 1 {
				t.Errorf("opcode %v/%d tailored to %d bits", ty, c, bits)
			}
		}
	}
}

func TestDroppedFields(t *testing.T) {
	sp := compile(t, "compress")
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	// compress has no speculative ops and constant load latency: those
	// slots must tailor to zero bits.
	w := tl.SlotWidths(isa.FmtLoad)
	if got := w[isa.FieldLat]; got != 0 {
		t.Errorf("load latency field width %d, want 0 (constant)", got)
	}
	if got := w[isa.FieldS]; got != 0 {
		t.Errorf("speculative bit width %d, want 0 (never set)", got)
	}
	alu := tl.SlotWidths(isa.FmtIntALU)
	if alu[isa.FieldSrc1] == 0 || alu[isa.FieldSrc1] > 5 {
		t.Errorf("ALU Src1 width %d, want in [1,5]", alu[isa.FieldSrc1])
	}
}

func TestPrefixWidths(t *testing.T) {
	sp := compile(t, "ijpeg") // uses all four op types
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	opt, opc := tl.PrefixWidths()
	if opt != 2 {
		t.Errorf("OPT width %d, want 2 (four types in use)", opt)
	}
	if opc < 3 || opc > 5 {
		t.Errorf("OPCODE width %d, want in [3,5]", opc)
	}
}

func TestEncodeUnknownOpcode(t *testing.T) {
	sp := compile(t, "compress") // no FP ops at all
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	var w bitio.Writer
	err = tl.EncodeBlock(&w, []isa.Op{{Type: isa.TypeFloat, Code: isa.OpFADD}})
	if err == nil {
		t.Error("tailored ISA accepted an op type the program never uses")
	}
}

func TestReportAndDictionary(t *testing.T) {
	sp := compile(t, "go")
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	rep := tl.Report()
	if len(rep) == 0 {
		t.Fatal("empty tailoring report")
	}
	constants := 0
	for _, fr := range rep {
		if fr.Width > fr.Orig {
			t.Errorf("field %v/%v widened: %d > %d", fr.Format, fr.Field, fr.Width, fr.Orig)
		}
		if fr.Constant {
			constants++
			if fr.Width != 0 {
				t.Errorf("constant slot %v/%v has width %d", fr.Format, fr.Field, fr.Width)
			}
		}
	}
	if constants == 0 {
		t.Error("no slots tailored to hardwired constants")
	}
	if tl.DictionaryEntries() < 10 {
		t.Errorf("dictionary entries %d implausibly small", tl.DictionaryEntries())
	}
}

func TestEmitVerilog(t *testing.T) {
	sp := compile(t, "compress")
	tl, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tl.EmitVerilog(&sb, "tepic_decoder"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		"module tepic_decoder",
		"endmodule",
		"sig_opcode",
		"case (opt_w)",
		"always @(*)",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("Verilog output missing %q", want)
		}
	}
	// Balanced case/endcase.
	if strings.Count(v, "case (") != strings.Count(v, "endcase") {
		t.Errorf("unbalanced case/endcase: %d vs %d",
			strings.Count(v, "case ("), strings.Count(v, "endcase"))
	}
}

func TestDeterministic(t *testing.T) {
	sp := compile(t, "li")
	t1, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sp.Blocks {
		if t1.BlockBits(b.Ops) != t2.BlockBits(b.Ops) {
			t.Fatal("non-deterministic tailored sizes")
		}
	}
}
