// End-to-end tests for the simulation oracle. They live in an external
// test package because simcheck is imported by internal/core, so
// importing core here would otherwise cycle.
package simcheck_test

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// oracleBlocks keeps the all-benchmarks sweep affordable while still
// exercising capacity misses, L0 churn and predictor training.
const oracleBlocks = 20000

// compiled caches compilations across tests in this binary.
var compiled = map[string]*core.Compiled{}

func compile(t *testing.T, bench string) *core.Compiled {
	t.Helper()
	if c, ok := compiled[bench]; ok {
		return c
	}
	c, err := core.CompileBenchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	compiled[bench] = c
	return c
}

// inputFor assembles the simcheck Input for one benchmark × pairing.
func inputFor(t *testing.T, c *core.Compiled, p scheme.Pairing, tr *trace.Trace) simcheck.Input {
	t.Helper()
	im, err := c.Image(p.CacheScheme)
	if err != nil {
		t.Fatal(err)
	}
	in := simcheck.Input{
		Org: p.Org, Cfg: cache.DefaultConfig(p.Org), Im: im, Prog: c.Prog, Tr: tr,
		Stage: "sim:" + p.Name,
	}
	if p.ROMScheme != "" {
		if in.ROM, err = c.Image(p.ROMScheme); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// TestOracleAgreesEverywhere is the tentpole acceptance check: for every
// benchmark × pairing, the analytical oracle's recomputation
// of Cycles, BusBeats, BytesFetched, LinesFetched (and every other
// modeled counter) must agree with Sim.Run exactly — and the full
// checking layer (identities, metamorphic invariants, fault matrix)
// must come back clean.
func TestOracleAgreesEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every benchmark; too slow for -short")
	}
	for _, bench := range workload.Benchmarks {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			c := compile(t, bench)
			tr, err := c.Trace(oracleBlocks)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range scheme.Pairings() {
				rep, err := c.CheckSim(p, cache.DefaultConfig(p.Org), tr)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if !rep.OK() {
					for _, d := range rep.Diags {
						t.Errorf("%s: %s", p.Name, d)
					}
				}
			}
		})
	}
}

// TestFaultMatrixRejectsEverything pins the fault-injection acceptance
// criterion: every injected fault on every study pairing must be
// rejected with the documented typed error — no acceptances, no
// untyped rejections and (via inject's recover) no panics.
func TestFaultMatrixRejectsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a benchmark; too slow for -short")
	}
	c := compile(t, "compress")
	tr, err := c.Trace(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range scheme.Pairings() {
		rep := simcheck.FaultMatrix(inputFor(t, c, p, tr))
		if !rep.OK() {
			for _, d := range rep.Diags {
				t.Errorf("%s: %s", p.Name, d)
			}
		}
	}
}

// TestOracleUnsupportedPredictor pins the degradation contract: a
// two-level predictor is outside the analytical model, so Oracle
// reports ErrUnsupported — but Check still runs the metamorphic and
// fault instruments and returns a report.
func TestOracleUnsupportedPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a benchmark; too slow for -short")
	}
	c := compile(t, "compress")
	tr, err := c.Trace(2000)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := scheme.PairingByName("Base")
	in := inputFor(t, c, p, tr)
	in.Cfg.Predictor = cache.PredictorGShare

	if _, err := simcheck.Oracle(in); !errors.Is(err, simcheck.ErrUnsupported) {
		t.Errorf("Oracle with gshare returned %v, want ErrUnsupported", err)
	}
	rep, err := simcheck.Check(in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, d := range rep.Diags {
			t.Error(d)
		}
	}
}

// TestInstrumentsDetectViolations turns each instrument on corrupted
// data to prove it can actually fail: a perturbed counter must show up
// in Diff, and a result violating the conservation laws must trip
// CheckSimIdentity.
func TestInstrumentsDetectViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a benchmark; too slow for -short")
	}
	c := compile(t, "compress")
	tr, err := c.Trace(2000)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := scheme.PairingByName("Compressed")
	in := inputFor(t, c, p, tr)

	want, err := simcheck.Expected(in.Org, in.Cfg, in.Im, in.ROM, in.Prog, in.Tr)
	if err != nil {
		t.Fatal(err)
	}
	mutated := want
	mutated.Cycles += 7
	mutated.BusBeats -= 1
	diffs := simcheck.Diff(mutated, want)
	if len(diffs) != 2 {
		t.Fatalf("Diff on a doubly perturbed result = %v, want 2 mismatches", diffs)
	}

	broken := want
	broken.BufferHits++ // violates BufferHits + CacheLookups == BlockFetches
	broken.BytesFetched++
	rep := simcheck.Identities(in, broken)
	if got := len(rep.ByCheck(verify.CheckSimIdentity)); got < 2 {
		rep.WriteText(testWriter{t})
		t.Errorf("Identities on a broken result produced %d sim-identity findings, want >= 2", got)
	}
}

// TestConcatSeam pins the trace-concatenation helper: the seam event's
// successor is patched to the second copy's entry so the spliced trace
// passes reference validation, and the op totals add.
func TestConcatSeam(t *testing.T) {
	a := &trace.Trace{Name: "a", Ops: 10, MOPs: 4, Events: []trace.Event{
		trace.MakeEvent(0, true, 1),
		trace.MakeEvent(1, false, trace.End),
	}}
	d := simcheck.Concat(a, a)
	if d.Len() != 4 || d.Ops != 20 || d.MOPs != 8 {
		t.Fatalf("Concat totals wrong: %d events, %d ops, %d MOPs", d.Len(), d.Ops, d.MOPs)
	}
	if d.Events[1].Next() != 0 {
		t.Errorf("seam successor = %d, want the second copy's entry block 0", d.Events[1].Next())
	}
	if err := d.ValidateRefs(2); err != nil {
		t.Errorf("concatenated trace fails reference validation: %v", err)
	}
}

// testWriter adapts t.Log for Report.WriteText.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
