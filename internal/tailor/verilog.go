package tailor

import (
	"io"
	"slices"

	"repro/internal/cliio"
	"repro/internal/isa"
)

// EmitVerilog writes a synthesizable Verilog description of the tailored
// decoder, in the style the paper's compiler emits for PLA programming:
// a fixed-prefix dispatch on (OPT, OPCODE) followed by per-slot lookup
// tables that expand tailored field codes into the core's internal
// signals (the original TEPIC field values).
func (t *Tailored) EmitVerilog(w io.Writer, module string) error {
	maxBits := 0
	for ty := range t.opBits {
		maxBits = max(maxBits, slices.Max(t.opBits[ty][:]))
	}
	cw := cliio.New(w)
	p := func(format string, args ...any) {
		cw.Printf(format+"\n", args...)
	}
	p("// Tailored ISA decoder generated by the TEPIC compression toolchain.")
	p("// Fixed prefix: tail(1) | opt(%d) | opcode(%d); widest op %d bits.",
		t.optWidth, t.opcWidth, maxBits)
	p("module %s (", module)
	p("    input  wire [%d:0] insn,", maxBits-1)
	p("    output reg         sig_tail,")
	p("    output reg  [1:0]  sig_opt,")
	p("    output reg  [4:0]  sig_opcode,")
	p("    output reg  [4:0]  sig_src1,")
	p("    output reg  [4:0]  sig_src2,")
	p("    output reg  [4:0]  sig_dest,")
	p("    output reg  [4:0]  sig_pred,")
	p("    output reg  [19:0] sig_imm,")
	p("    output reg  [7:0]  sig_misc")
	p(");")
	p("")
	p("  // Prefix extraction (bit 0 is the MSB, as in the TEPIC manual).")
	hi := maxBits - 1
	p("  wire tail_w = insn[%d];", hi)
	if t.optWidth > 0 {
		p("  wire [%d:0] opt_w = insn[%d:%d];", t.optWidth-1, hi-1, hi-t.optWidth)
	} else {
		p("  wire opt_w = 1'b0; // single operation type")
	}
	if t.opcWidth > 0 {
		p("  wire [%d:0] opc_w = insn[%d:%d];", t.opcWidth-1,
			hi-t.optWidth-1, hi-t.optWidth-t.opcWidth)
	} else {
		p("  wire opc_w = 1'b0; // single opcode per type")
	}
	p("")
	p("  always @(*) begin")
	p("    sig_tail   = tail_w;")
	p("    sig_opt    = 2'd0;")
	p("    sig_opcode = 5'd0;")
	p("    sig_src1   = 5'd0;")
	p("    sig_src2   = 5'd0;")
	p("    sig_dest   = 5'd0;")
	p("    sig_pred   = 5'd0;")
	p("    sig_imm    = 20'd0;")
	p("    sig_misc   = 8'd0;")
	p("    case (opt_w)")
	for optCode, ty := range t.types {
		p("      %d'd%d: begin // %v operations", maxInt(t.optWidth, 1), optCode, ty)
		p("        sig_opt = 2'd%d;", uint32(ty))
		p("        case (opc_w)")
		for opcCode, code := range t.opcs[ty] {
			info := isa.MustLookup(ty, code)
			p("          %d'd%d: begin // %s (%d-bit op)",
				maxInt(t.opcWidth, 1), opcCode, info.Name, t.opBits[ty][code])
			p("            sig_opcode = 5'd%d;", uint32(code))
			t.emitSlots(p, ty, code, hi)
			p("          end")
		}
		p("          default: ; // undefined opcode")
		p("        endcase")
		p("      end")
	}
	p("      default: ; // undefined type")
	p("    endcase")
	p("  end")
	p("")
	p("endmodule")
	return cw.Err()
}

// emitSlots renders the per-slot expansion for one opcode: hardwired
// constants for zero-width slots, direct bit-slice extraction otherwise.
func (t *Tailored) emitSlots(p func(string, ...any), ty isa.OpType, code isa.Opcode, hi int) {
	f := isa.FormatOf(ty, code)
	layout := isa.Layout(f)
	off := 1 + t.optWidth + t.opcWidth
	for s := tPrefix; s < len(layout); s++ {
		fs := layout[s]
		sm := &t.slots[f][s]
		if !sm.seen {
			continue
		}
		sig := signalFor(fs.ID)
		if sm.width == 0 {
			p("            %s = %d; // %v: hardwired", sig, sm.constant, fs.ID)
			continue
		}
		top := hi - off
		bot := top - sm.width + 1
		p("            %s = insn[%d:%d]; // %v (%d of %d bits)",
			sig, top, bot, fs.ID, sm.width, fs.Width)
		off += sm.width
	}
}

// signalFor maps a TEPIC field to the decoder's output signal.
func signalFor(id isa.FieldID) string {
	switch id {
	case isa.FieldSrc1:
		return "sig_src1"
	case isa.FieldSrc2, isa.FieldCounter:
		return "sig_src2"
	case isa.FieldDest:
		return "sig_dest"
	case isa.FieldPred:
		return "sig_pred"
	case isa.FieldImm:
		return "sig_imm"
	default:
		return "sig_misc"
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SlotWidths returns the tailored widths of all slots of a format, in
// layout order, for tests and reports.
func (t *Tailored) SlotWidths(f isa.Format) map[isa.FieldID]int {
	out := map[isa.FieldID]int{}
	for _, sm := range t.slots[f] {
		if sm.seen {
			out[sm.id] = sm.width
		}
	}
	return out
}
