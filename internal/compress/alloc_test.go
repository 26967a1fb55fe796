package compress_test

import (
	"testing"

	"repro/internal/core"
)

// TestEncodeSizingZeroAlloc pins the per-op sizing paths image building
// runs on every block at zero allocations: BlockBits on the stream, full
// and tailored schemes, and Tailored.ValidateOp. Byte's BlockBits packs
// the block into a fresh byte slice (isa.PackOps), so it allocates by
// design and is left out.
func TestEncodeSizingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	blocks := c.Prog.Blocks
	for _, scheme := range []string{"stream", "stream_1", "full", "tailored"} {
		enc, err := c.Encoder(scheme)
		if err != nil {
			t.Fatal(err)
		}
		bits := 0
		allocs := testing.AllocsPerRun(5, func() {
			for _, b := range blocks {
				bits += enc.BlockBits(b.Ops)
			}
		})
		if allocs != 0 {
			t.Errorf("%s BlockBits: %.1f allocs per program, want 0", scheme, allocs)
		}
		if bits == 0 {
			t.Errorf("%s BlockBits: sized every block at 0 bits", scheme)
		}
	}

	tl, err := c.Tailored()
	if err != nil {
		t.Fatal(err)
	}
	var verr error
	allocs := testing.AllocsPerRun(5, func() {
		for _, b := range blocks {
			for i := range b.Ops {
				if err := tl.ValidateOp(&b.Ops[i]); err != nil {
					verr = err
				}
			}
		}
	})
	if verr != nil {
		t.Fatalf("ValidateOp rejected an op of the program it was built for: %v", verr)
	}
	if allocs != 0 {
		t.Errorf("Tailored.ValidateOp: %.1f allocs per program, want 0", allocs)
	}
}
