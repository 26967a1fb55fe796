package core

import "testing"

// TestDecodePlanEquivalence proves, per batch scheme, that the memoized
// plan decodes the image to exactly the sequential fast face's totals.
func TestDecodePlanEquivalence(t *testing.T) {
	d := NewDriver(4)
	c, err := d.CompileBenchmark("go")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"byte", "stream", "stream_1", "full"} {
		t.Run(scheme, func(t *testing.T) {
			plan, err := c.DecodePlan(scheme)
			if err != nil {
				t.Fatal(err)
			}
			if plan == nil {
				t.Fatalf("%s: no decode plan", scheme)
			}
			if plan.TableEntries <= 0 {
				t.Errorf("TableEntries = %d, want > 0", plan.TableEntries)
			}
			// Sequential truth via the measured tiers, which assert the
			// three faces agree internally.
			dt, err := c.MeasureDecodeThroughput(scheme, 1)
			if err != nil {
				t.Fatal(err)
			}
			syms, _, err := plan.DecodeSymbols(nil)
			if err != nil {
				t.Fatal(err)
			}
			if syms != int64(plan.Syms) {
				t.Errorf("DecodeSymbols = %d symbols, plan.Syms = %d", syms, plan.Syms)
			}
			if dt.Batch.Ops%syms != 0 {
				t.Errorf("measured batch ops %d not a whole number of passes of %d", dt.Batch.Ops, syms)
			}
		})
	}
}

// TestDecodePlanMemoized: the plan artifact builds once per
// (program, scheme) through the driver store; a second request is a
// cache hit, and a second compilation of the same benchmark shares it.
func TestDecodePlanMemoized(t *testing.T) {
	d := NewDriver(2)
	c, err := d.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.DecodePlan("full")
	if err != nil {
		t.Fatal(err)
	}
	hits := d.Stats().Counter("artifact.hit").Value()
	p2, err := c.DecodePlan("full")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("second DecodePlan returned a different plan")
	}
	if got := d.Stats().Counter("artifact.hit").Value(); got <= hits {
		t.Errorf("second DecodePlan request not counted as a hit (%d -> %d)", hits, got)
	}
	// A fresh Compiled for the same benchmark resolves to the same
	// stored artifact (content-addressed, not per-compilation).
	c2, err := d.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	p3, err := c2.DecodePlan("full")
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("same-content compilation rebuilt the decode plan")
	}
	if n := d.Stats().Snapshot().Stages["decplan.full"].Count; n != 1 {
		t.Errorf("decplan.full built %d times, want 1", n)
	}
}

// TestDecodePlanAbsent: schemes without a Huffman batch face plan to
// nil.
func TestDecodePlanAbsent(t *testing.T) {
	c, err := CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"base", "tailored"} {
		p, err := c.DecodePlan(scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if p != nil {
			t.Errorf("%s: unexpected decode plan", scheme)
		}
	}
}

// TestDecodePlanStandalone: a standalone compilation's plan, built on
// its private driver, decodes the image.
func TestDecodePlanStandalone(t *testing.T) {
	c, err := CompileBenchmark("li")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.DecodePlan("stream")
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan for stream scheme")
	}
	syms, bits, err := plan.DecodeSymbols(nil)
	if err != nil || syms == 0 || bits == 0 {
		t.Fatalf("DecodeSymbols = (%d, %d, %v)", syms, bits, err)
	}
}
