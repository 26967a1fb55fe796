package serve

import (
	"testing"

	"repro/internal/core"
)

// TestBatchScanZeroAlloc pins the allocation contract on the symbol
// scan the /v1/decode handler runs: once the decode plan is resident, a
// whole-image scan through the lane kernel allocates nothing.
func TestBatchScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	im, err := c.Image("full")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.DecodePlan("full")
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("full scheme has no decode plan")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := plan.DecodeSymbols(im.Data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batch scan: %.1f allocs per image scan, want 0", allocs)
	}
}
