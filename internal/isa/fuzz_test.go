package isa

import "testing"

// FuzzDecode: decoding arbitrary 40-bit words never panics, and accepted
// words decode to a fixed point (decode∘encode∘decode = decode — encode
// canonicalizes reserved bits to zero).
func FuzzDecode(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1)<<OpBits - 1)
	addOp := Op{Type: TypeInt, Code: OpADD, Src1: 3, Src2: 7, Dest: 12}
	f.Add(addOp.Encode())
	retOp := Op{Type: TypeBranch, Code: OpRET, Tail: true}
	f.Add(retOp.Encode())
	f.Fuzz(func(t *testing.T, w uint64) {
		w &= 1<<OpBits - 1
		op, err := Decode(w)
		if err != nil {
			return
		}
		canon := op.Encode()
		op2, err := Decode(canon)
		if err != nil {
			t.Fatalf("canonical word rejected: %v", err)
		}
		if op2 != op {
			t.Fatalf("decode not idempotent: %+v vs %+v", op, op2)
		}
		if err := op.Validate(); err != nil {
			t.Fatalf("decoded op invalid: %v", err)
		}
	})
}

// FuzzUnpackOps: arbitrary byte streams never panic the op unpacker.
func FuzzUnpackOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, 1)
	f.Add(PackOps([]Op{{Type: TypeInt, Code: OpADD, Tail: true}}), 1)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 64 {
			return
		}
		ops, err := UnpackOps(data, n)
		if err != nil {
			return
		}
		if len(ops) != n {
			t.Fatalf("unpacked %d ops, asked for %d", len(ops), n)
		}
	})
}

// FuzzCheckWord: for any uint64, CheckWord is Decode followed by
// Encode — the same canonical word on success, the identical error
// text on rejection.
func FuzzCheckWord(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1)<<OpBits - 1)
	f.Add(uint64(1) << OpBits)
	f.Add(^uint64(0))
	ldOp := Op{Type: TypeMemory, Code: OpLD, Src1: 31, Lat: 31, Dest: 31, Pred: 31}
	f.Add(ldOp.Encode() | 1<<20)
	f.Fuzz(func(t *testing.T, w uint64) {
		got, cerr := CheckWord(w)
		op, derr := Decode(w)
		switch {
		case (cerr == nil) != (derr == nil):
			t.Fatalf("CheckWord(%#x) error %v, Decode error %v", w, cerr, derr)
		case cerr != nil:
			if cerr.Error() != derr.Error() {
				t.Fatalf("CheckWord(%#x) error %q, Decode error %q", w, cerr, derr)
			}
		case got != op.Encode():
			t.Fatalf("CheckWord(%#x) = %#x, Decode+Encode = %#x", w, got, op.Encode())
		}
	})
}
