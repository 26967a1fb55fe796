package isa

import (
	"errors"
	"math/rand"
	"testing"
)

// TestLayoutWidths asserts paper Table 2: every format is exactly 40 bits.
func TestLayoutWidths(t *testing.T) {
	for f := Format(0); int(f) < NumFormats; f++ {
		if got := LayoutBits(f); got != OpBits {
			t.Errorf("format %v: layout sums to %d bits, want %d", f, got, OpBits)
		}
	}
}

// TestLayoutCommonPrefix asserts that T, S, OPT, OPCODE occupy the same
// leading 9 bits in every format — the property Decode relies on and the
// property the tailored encoding preserves to simplify decoding.
func TestLayoutCommonPrefix(t *testing.T) {
	want := []FieldSpec{{FieldT, 1}, {FieldS, 1}, {FieldOpt, 2}, {FieldOpcode, 5}}
	for f := Format(0); int(f) < NumFormats; f++ {
		layout := Layout(f)
		if len(layout) < len(want) {
			t.Fatalf("format %v: layout too short", f)
		}
		for i, w := range want {
			if layout[i] != w {
				t.Errorf("format %v slot %d = %+v, want %+v", f, i, layout[i], w)
			}
		}
	}
}

func TestLayoutFieldCounts(t *testing.T) {
	// Spot-check distinctive fields from Table 2.
	cases := []struct {
		f     Format
		id    FieldID
		width int
	}{
		{FmtIntALU, FieldBHWX, 2},
		{FmtIntCmpp, FieldD1, 3},
		{FmtLoadImm, FieldImm, 20},
		{FmtFloat, FieldSD, 1},
		{FmtFloat, FieldTSS, 3},
		{FmtLoad, FieldLat, 5},
		{FmtLoad, FieldSCS, 2},
		{FmtStore, FieldTCS, 2},
		{FmtBranch, FieldCounter, 5},
	}
	for _, c := range cases {
		found := false
		for _, fs := range Layout(c.f) {
			if fs.ID == c.id && fs.Width == c.width {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("format %v: missing field %v width %d", c.f, c.id, c.width)
		}
	}
}

func TestOpcodeTableFormats(t *testing.T) {
	for _, typ := range []OpType{TypeInt, TypeFloat, TypeMemory, TypeBranch} {
		infos := Opcodes(typ)
		if len(infos) == 0 {
			t.Fatalf("type %v has no opcodes", typ)
		}
		for _, info := range infos {
			if info.Type != typ {
				t.Errorf("%s: type mismatch %v != %v", info.Name, info.Type, typ)
			}
			if info.Latency < 1 {
				t.Errorf("%s: latency %d < 1", info.Name, info.Latency)
			}
			if int(info.Code) >= 32 {
				t.Errorf("%s: opcode %d does not fit 5 bits", info.Name, info.Code)
			}
		}
	}
}

func TestLookupUndefined(t *testing.T) {
	if _, ok := Lookup(TypeBranch, 31); ok {
		t.Error("Lookup(TypeBranch, 31) should be undefined")
	}
	if _, ok := Lookup(TypeFloat, 31); ok {
		t.Error("Lookup(TypeFloat, 31) should be undefined")
	}
}

// TestLookupOutOfRange sweeps every (type, code) byte pair. The opcode
// table is a dense [4][32] array, so a pair outside it must come back
// undefined rather than index past the array.
func TestLookupOutOfRange(t *testing.T) {
	defined := 0
	for ti := 0; ti < 256; ti++ {
		typ := OpType(ti)
		infos := Opcodes(typ)
		if ti >= 4 && len(infos) != 0 {
			t.Errorf("Opcodes(%d) = %d entries, want none", ti, len(infos))
		}
		for ci := 0; ci < 256; ci++ {
			code := Opcode(ci)
			info, ok := Lookup(typ, code)
			o := Op{Type: typ, Code: code}
			err := o.Validate()
			if !ok {
				if !errors.Is(err, ErrBadOp) {
					t.Errorf("Validate(%d/%d) = %v, want ErrBadOp", ti, ci, err)
				}
				if f := FormatOf(typ, code); f != FmtIntALU {
					t.Errorf("FormatOf(%d/%d) = %v, want fallback IntALU", ti, ci, f)
				}
				continue
			}
			defined++
			if info.Type != typ || info.Code != code {
				t.Errorf("Lookup(%d/%d) returned %v/%d", ti, ci, info.Type, info.Code)
			}
			if err != nil {
				t.Errorf("Validate(%d/%d) = %v on a defined pair", ti, ci, err)
			}
		}
	}
	if defined != 48 {
		t.Errorf("%d defined (type, code) pairs, want 48", defined)
	}
}

// TestMaxSlots pins MaxSlots to the longest format layout.
func TestMaxSlots(t *testing.T) {
	longest := 0
	for f := Format(0); int(f) < NumFormats; f++ {
		longest = max(longest, len(Layout(f)))
	}
	if longest != MaxSlots {
		t.Errorf("longest layout has %d slots, MaxSlots = %d", longest, MaxSlots)
	}
}

func TestOpTypeStrings(t *testing.T) {
	for _, c := range []struct {
		t    OpType
		want string
	}{{TypeInt, "INT"}, {TypeFloat, "FP"}, {TypeMemory, "MEM"}, {TypeBranch, "BR"}} {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.t, got, c.want)
		}
	}
}

// RandomOp builds a uniformly random *valid* operation; shared by property
// tests across packages via export_test-style reuse within this package.
func RandomOp(r *rand.Rand) Op {
	types := []OpType{TypeInt, TypeFloat, TypeMemory, TypeBranch}
	typ := types[r.Intn(len(types))]
	infos := Opcodes(typ)
	info := infos[r.Intn(len(infos))]
	o := Op{
		Tail: r.Intn(2) == 0,
		Spec: r.Intn(8) == 0,
		Type: typ,
		Code: info.Code,
		Pred: uint8(r.Intn(NumPred)),
	}
	switch info.Format {
	case FmtIntALU:
		o.Src1, o.Src2 = uint8(r.Intn(32)), uint8(r.Intn(32))
		o.Dest = uint8(r.Intn(32))
		o.BHWX = uint8(r.Intn(4))
		o.L1 = r.Intn(2) == 0
	case FmtIntCmpp:
		o.Src1, o.Src2 = uint8(r.Intn(32)), uint8(r.Intn(32))
		o.Dest = uint8(r.Intn(32))
		o.BHWX = uint8(r.Intn(4))
		o.D1 = uint8(r.Intn(8))
	case FmtLoadImm:
		o.Imm = uint32(r.Intn(1 << 20))
		o.Dest = uint8(r.Intn(32))
	case FmtFloat:
		o.Src1, o.Src2 = uint8(r.Intn(32)), uint8(r.Intn(32))
		o.Dest = uint8(r.Intn(32))
		o.SD = r.Intn(2) == 0
		o.TSS = uint8(r.Intn(8))
	case FmtLoad:
		o.Src1 = uint8(r.Intn(32))
		o.Dest = uint8(r.Intn(32))
		o.BHWX = uint8(r.Intn(4))
		o.SCS, o.TCS = uint8(r.Intn(4)), uint8(r.Intn(4))
		o.Lat = uint8(r.Intn(32))
	case FmtStore:
		o.Src1, o.Src2 = uint8(r.Intn(32)), uint8(r.Intn(32))
		o.BHWX = uint8(r.Intn(4))
		o.TCS = uint8(r.Intn(4))
	case FmtBranch:
		o.Src1 = uint8(r.Intn(32))
		o.Counter = uint8(r.Intn(32))
	}
	return o
}
