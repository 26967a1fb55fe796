package isa

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		o := RandomOp(r)
		if err := o.Validate(); err != nil {
			t.Fatalf("RandomOp produced invalid op: %v", err)
		}
		w := o.Encode()
		if w >= 1<<OpBits {
			t.Fatalf("encoding exceeds 40 bits: %x", w)
		}
		back, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%x): %v", w, err)
		}
		if back != o {
			t.Fatalf("roundtrip mismatch:\n  in  %+v\n  out %+v", o, back)
		}
	}
}

func TestEncodeBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		o := RandomOp(r)
		b := o.EncodeBytes()
		back, err := DecodeBytes(b)
		if err != nil {
			t.Fatalf("DecodeBytes: %v", err)
		}
		if back != o {
			t.Fatalf("byte roundtrip mismatch: %+v != %+v", back, o)
		}
	}
}

// TestEncodeDeterministicQuick: encoding is a pure function of the op, and
// distinct bit patterns decode to distinct ops.
func TestEncodeDeterministicQuick(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		o := RandomOp(rr)
		return o.Encode() == o.Encode()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsOversizedWord(t *testing.T) {
	if _, err := Decode(1 << OpBits); err == nil {
		t.Error("Decode accepted a word wider than 40 bits")
	}
}

func TestDecodeRejectsUndefinedOpcode(t *testing.T) {
	// Branch type (3) with opcode 31 is undefined.
	w := uint64(3)<<(OpBits-4) | uint64(31)<<(OpBits-9)
	if _, err := Decode(w); err == nil {
		t.Error("Decode accepted an undefined opcode")
	}
}

func TestValidateRejectsWideField(t *testing.T) {
	o := Op{Type: TypeInt, Code: OpLDI, Imm: 1 << 20}
	if err := o.Validate(); err == nil {
		t.Error("Validate accepted a 21-bit immediate in a 20-bit field")
	}
}

func TestSliceBits(t *testing.T) {
	o := Op{Type: TypeInt, Code: OpADD, Src1: 3, Src2: 7, Dest: 12, Pred: 5}
	// Leading 9 bits: T(0) S(0) OPT(00) OPCODE(00000) for add = 0.
	if got := o.SliceBits(0, 9); got != 0 {
		t.Errorf("SliceBits(0,9) = %d, want 0", got)
	}
	// Predicate is the trailing 5 bits.
	if got := o.SliceBits(OpBits-5, OpBits); got != 5 {
		t.Errorf("predicate slice = %d, want 5", got)
	}
	// Src1 occupies bits [9,14).
	if got := o.SliceBits(9, 14); got != 3 {
		t.Errorf("src1 slice = %d, want 3", got)
	}
}

func TestSliceBitsPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SliceBits accepted an inverted range")
		}
	}()
	var o Op
	o.SliceBits(10, 10)
}

func TestFieldValuesMatchesSliceBits(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		o := RandomOp(r)
		layout := Layout(o.Format())
		vals := o.AppendFieldValues(nil)
		off := 0
		for j, fs := range layout {
			got := o.SliceBits(off, off+fs.Width)
			want := uint64(vals[j])
			if fs.ID == FieldReserved {
				want = 0
			}
			if got != want {
				t.Fatalf("op %v slot %d (%v): bits %d != field %d",
					o.Format(), j, fs.ID, got, want)
			}
			off += fs.Width
		}
	}
}

func TestStringForms(t *testing.T) {
	ops := []Op{
		{Type: TypeInt, Code: OpADD, Src1: 1, Src2: 2, Dest: 3},
		{Type: TypeInt, Code: OpLDI, Imm: 42, Dest: 4},
		{Type: TypeInt, Code: OpCMPLT, Src1: 1, Src2: 2, Dest: 6},
		{Type: TypeFloat, Code: OpFMUL, Src1: 1, Src2: 2, Dest: 3},
		{Type: TypeMemory, Code: OpLD, Src1: 5, Dest: 6, Lat: 2},
		{Type: TypeMemory, Code: OpST, Src1: 5, Src2: 7},
		{Type: TypeBranch, Code: OpBRCT, Src1: 0, Pred: 9, Tail: true},
	}
	for i := range ops {
		s := ops[i].String()
		if s == "" {
			t.Errorf("op %d renders empty", i)
		}
	}
	// Tail marker and predicate guard must be visible.
	if s := ops[6].String(); s == "" || s[len(s)-3:] != "[t]" {
		t.Errorf("tail op string %q lacks [t] suffix", ops[6].String())
	}
}

// TestCheckWordAllOpcodes drives CheckWord over every (type, opcode)
// pair with every field and every reserved bit set: a defined pair
// keeps exactly its format's non-reserved bits, which is also
// Decode+Encode's word and the encoding of an op with every field
// all-ones; an undefined pair fails with Decode's error.
func TestCheckWordAllOpcodes(t *testing.T) {
	const ones = uint64(1)<<OpBits - 1
	for ty := OpType(0); ty < 4; ty++ {
		for c := Opcode(0); c < 32; c++ {
			// Keep T and S set, put the pair in OPT/OPCODE, and set
			// every bit after them.
			w := ones&^(0x7f<<(OpBits-9)) | uint64(ty)<<(OpBits-4) | uint64(c)<<(OpBits-9)
			got, err := CheckWord(w)
			op, derr := Decode(w)
			info, ok := Lookup(ty, c)
			if !ok {
				if err == nil || derr == nil || err.Error() != derr.Error() || !errors.Is(err, ErrBadOp) {
					t.Errorf("%v/%d: CheckWord error %v, Decode error %v", ty, c, err, derr)
				}
				continue
			}
			if err != nil || derr != nil {
				t.Fatalf("%v/%d: CheckWord error %v, Decode error %v", ty, c, err, derr)
			}
			if got != op.Encode() {
				t.Errorf("%v/%d: CheckWord = %#x, Decode+Encode = %#x", ty, c, got, op.Encode())
			}
			// Every field over-full: Encode keeps each field's own
			// width and drops the fields the format lacks.
			full := Op{Tail: true, Spec: true, Type: ty, Code: c, Src1: 0xff, Src2: 0xff,
				BHWX: 0xff, D1: 0xff, SD: true, TSS: 0xff, SCS: 0xff, TCS: 0xff, Lat: 0xff,
				Dest: 0xff, L1: true, Imm: ^uint32(0), Counter: 0xff, Pred: 0xff}
			if full.Encode() != got {
				t.Errorf("%v/%d: all-ones op encodes to %#x, want %#x", ty, c, full.Encode(), got)
			}
			offs := FieldOffsets(info.Format)
			for s, fs := range Layout(info.Format) {
				want := SliceWord(w, offs[s], offs[s]+fs.Width)
				if fs.ID == FieldReserved {
					want = 0
				}
				if v := SliceWord(got, offs[s], offs[s]+fs.Width); v != want {
					t.Errorf("%v/%d slot %d (%v): bits %#x, want %#x", ty, c, s, fs.ID, v, want)
				}
			}
		}
	}
	if _, err := CheckWord(ones + 1); err == nil || !errors.Is(err, ErrBadOp) {
		t.Errorf("CheckWord accepted a 41-bit word: %v", err)
	}
}
