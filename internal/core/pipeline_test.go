package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
)

func TestCompileBenchmark(t *testing.T) {
	c, err := CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	if c.Prog.TotalOps() == 0 {
		t.Fatal("no scheduled ops")
	}
	if c.Profile == nil || c.Profile.Name != "compress" {
		t.Error("profile not attached")
	}
	if _, err := CompileBenchmark("nonesuch"); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

// compileAllocBound caps the heap allocations of one cold compile of
// compress (generate, allocate registers, schedule). The compiler's
// dense register tables and per-program op array put it near 3,700; the
// map-keyed compiler they replaced made about 30,700.
const compileAllocBound = 5000

func TestCompileAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := CompileBenchmark("compress"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > compileAllocBound {
		t.Errorf("compiling compress made %.0f allocations, bound %d", allocs, compileAllocBound)
	}
}

func TestAllSchemesBuildAndVerify(t *testing.T) {
	c, err := CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range SchemeNames() {
		im, err := c.Image(scheme)
		if err != nil {
			t.Fatalf("scheme %s: %v", scheme, err)
		}
		if im.CodeBytes == 0 {
			t.Errorf("scheme %s: empty image", scheme)
		}
		if scheme != "base" && im.ATT == nil {
			t.Errorf("scheme %s: no ATT attached", scheme)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("round-trip verification failed: %v", err)
	}
}

func TestEncoderCaching(t *testing.T) {
	c, err := CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	e1, err := c.Encoder("full")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Encoder("full")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("encoder not cached")
	}
	if _, err := c.Encoder("nonesuch"); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestTraceUsesProfileDefaults(t *testing.T) {
	c, err := CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace(5000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Errorf("trace length %d", tr.Len())
	}
	tr2, err := c.Trace(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != c.Profile.DynBlocks {
		t.Errorf("default trace length %d, want %d", tr2.Len(), c.Profile.DynBlocks)
	}
}

func TestScheduleOnlyHandWritten(t *testing.T) {
	b := asm.NewProgram("hand")
	f := b.Func("main")
	r := asm.R
	f.Block().Ldi(r(1), 3).Add(r(2), r(1), r(1)).Ret()
	irp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := ScheduleOnly(irp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(10); err == nil {
		t.Error("hand-written program should have no stochastic trace")
	}
	im, err := c.Image("full")
	if err != nil {
		t.Fatal(err)
	}
	if im.CodeBytes == 0 {
		t.Error("empty image")
	}
	tl, err := c.Tailored()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tl.EmitVerilog(&sb, "hand_decoder"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "module hand_decoder") {
		t.Error("Verilog emission through core facade failed")
	}
}

func TestSchemeNamesComplete(t *testing.T) {
	names := SchemeNames()
	want := map[string]bool{"base": true, "byte": true, "full": true,
		"tailored": true, "stream": true, "stream_1": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("SchemeNames missing %v", want)
	}
	if len(names) != 10 {
		t.Errorf("expected 10 schemes (base, byte, 6 streams, full, tailored), got %d", len(names))
	}
}
