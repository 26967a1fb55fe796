package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// streamMatrixBlocks keeps the all-benchmarks sweep affordable while
// still exercising capacity misses, L0 churn and predictor training
// across every chunk seam.
const streamMatrixBlocks = 30000

// TestStreamEquivalenceMatrix is the streaming acceptance matrix: for
// every benchmark × registered pairing, Sim.RunStream over a streamed
// trace must be bit-identical — every counter, at two chunk sizes — to
// the sequential Sim.Run of the materialized trace with the same seed,
// and must agree with the analytical oracle's streaming recomputation.
func TestStreamEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every benchmark; too slow for -short")
	}
	for _, bench := range workload.Benchmarks {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			c, err := CompileBenchmark(bench)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := c.Trace(streamMatrixBlocks)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range Pairings() {
				cfg := cache.DefaultConfig(p.Org)
				sim, err := c.SimFor(p, cfg)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				want, err := sim.Run(tr)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}

				// Two prime chunk sizes of the live producer stream, so
				// the seams fall in different places than Run's.
				var got cache.Result
				for _, cs := range []int{1021, 61} {
					st, err := c.StreamTrace(streamMatrixBlocks, cs)
					if err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
					streamSim, err := c.SimFor(p, cfg)
					if err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
					if got, err = streamSim.RunStream(st); err != nil {
						t.Fatalf("%s: RunStream: %v", p.Name, err)
					}
					if got != want {
						t.Errorf("%s: RunStream over %d-event chunks differs from sequential:\n  stream %+v\n  seq    %+v",
							p.Name, cs, got, want)
					}
				}

				im, err := c.Image(p.CacheScheme)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				in := simcheck.Input{Org: p.Org, Cfg: cfg, Im: im, Prog: c.Prog, Tr: tr,
					Stage: "stream:" + p.Name}
				if p.ROMScheme != "" {
					if in.ROM, err = c.Image(p.ROMScheme); err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
				}
				oracle, err := simcheck.ExpectedStream(in.Org, cfg, in.Im, in.ROM, c.Prog,
					trace.NewSliceStream(tr, 1021))
				if err != nil {
					t.Fatalf("%s: oracle: %v", p.Name, err)
				}
				for _, m := range simcheck.Diff(got, oracle) {
					t.Errorf("%s: oracle disagrees on %s: simulator %d, oracle %d",
						p.Name, m.Field, m.Got, m.Want)
				}
			}
		})
	}
}
