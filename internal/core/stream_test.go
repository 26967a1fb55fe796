package core

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/scheme"
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
// trace must be bit-identical — every counter — to the sequential
// Sim.Run of the materialized trace with the same seed, and must agree
// with the analytical oracle's streaming recomputation. So must each
// result of one stream fanned out over every pairing at once
// (cache.RunStream), at two chunk sizes.
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
			pairings := scheme.Pairings()
			want := make([]cache.Result, len(pairings))
			for i, p := range pairings {
				cfg := cache.DefaultConfig(p.Org)
				sim, err := c.SimFor(p, cfg)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if want[i], err = sim.Run(tr); err != nil {
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
					if got != want[i] {
						t.Errorf("%s: RunStream over %d-event chunks differs from sequential:\n  stream %+v\n  seq    %+v",
							p.Name, cs, got, want[i])
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

			// One live producer stream fanned out over every pairing, at
			// the same two chunk sizes.
			for _, cs := range []int{1021, 61} {
				sims := make([]*cache.Sim, len(pairings))
				for i, p := range pairings {
					if sims[i], err = c.SimFor(p, cache.DefaultConfig(p.Org)); err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
				}
				st, err := c.StreamTrace(streamMatrixBlocks, cs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cache.RunStream(st, sims...)
				if err != nil {
					t.Fatalf("fan-out over %d-event chunks: %v", cs, err)
				}
				for i, p := range pairings {
					if got[i] != want[i] {
						t.Errorf("%s: fan-out over %d-event chunks differs from sequential:\n  fan-out %+v\n  seq     %+v",
							p.Name, cs, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCheckStream pins CheckStream's verdicts on compress under
// CodePack (a pairing with a ROM image): a true
// replay passes both checks, a counter off by one fails both, and a
// predictor outside the oracle's model skips the oracle while the
// rechunked replay still runs.
func TestCheckStream(t *testing.T) {
	c, err := CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := scheme.PairingByName("CodePack")
	if !ok {
		t.Fatal("no CodePack pairing")
	}
	mkStream := func(chunkEvents int) (trace.Stream, error) { return c.StreamTraceOps(50_000, chunkEvents) }
	for _, pred := range []cache.PredictorKind{cache.PredictorDefault, cache.PredictorGShare} {
		cfg := cache.DefaultConfig(p.Org)
		cfg.Predictor = pred
		sim, err := c.SimFor(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mkStream(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunStream(st)
		if err != nil {
			t.Fatal(err)
		}
		modelled := pred == cache.PredictorDefault
		sc, err := c.CheckStream(p, cfg, got, mkStream, true)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Identical || sc.Rechunked != got || len(sc.Mismatches) != 0 || (sc.Skipped == nil) != modelled {
			t.Fatalf("%v: true replay: %+v", pred, sc)
		}
		if !modelled && !errors.Is(sc.Skipped, simcheck.ErrUnsupported) {
			t.Fatalf("%v: skipped oracle reports %v", pred, sc.Skipped)
		}
		got.Cycles++
		if sc, err = c.CheckStream(p, cfg, got, mkStream, modelled); err != nil {
			t.Fatal(err)
		}
		if sc.Identical || (len(sc.Mismatches) == 0) == modelled {
			t.Fatalf("%v: perturbed replay: %+v", pred, sc)
		}
	}
}
