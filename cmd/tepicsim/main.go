// Command tepicsim runs trace-driven IFetch simulations: a benchmark, a
// registered (encoding, organization) pairing and a cache geometry,
// reporting the paper's metrics (delivered IPC, miss and misprediction
// rates, L0 buffer behaviour, bus traffic and bit flips). With -check
// the point is re-verified by the simulation oracle (internal/simcheck):
// an analytical recomputation of the counters plus metamorphic and
// fault-injection checks, failing the run on any finding. With -sweep it
// fans a registry-driven geometry × predictor grid out over the
// compilation driver's worker pool instead of running one point.
//
// Usage:
//
//	tepicsim -bench vortex -org compressed
//	tepicsim -bench gcc -org base -sets 512 -assoc 4
//	tepicsim -bench compress -org compressed -l0 64 -blocks 1000000
//	tepicsim -bench go -org base -predictor gshare
//	tepicsim -bench vortex -org codepack
//	tepicsim -bench vortex -org compressed -check
//	tepicsim -bench gcc -org base -sweep
//	tepicsim -bench gcc -org compressed -sweep -json
//	tepicsim -bench compress -org compressed -stream -ops 100000000
//	tepicsim -bench go -org base -stream -check
//
// Every replay streams: events flow out of the stochastic walker in
// bounded chunks, each filled when Sim.RunStream asks for it, and only
// -check without -stream materializes a trace, for the oracle. -stream
// is the long-horizon mode: it accepts an -ops horizon that can exceed
// what would fit in memory, reports the replay's throughput, and its
// -check replays the same seed at a second chunk size and through the
// oracle's streaming face and requires all three bit-identical.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	ccc "repro"
	"repro/internal/cliio"
	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the tool against args, writing to out (separated from main
// for testing).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tepicsim", flag.ContinueOnError)
	bench := fs.String("bench", "compress", "benchmark name")
	orgName := fs.String("org", "base", "pairing: "+pairingNames())
	blocks := fs.Int("blocks", 0, "trace length in blocks (0 = profile default)")
	sets := fs.Int("sets", 0, "cache sets (0 = paper default)")
	assoc := fs.Int("assoc", 0, "cache associativity (0 = paper default)")
	line := fs.Int("line", 0, "line bytes (0 = paper default)")
	l0 := fs.Int("l0", 0, "L0 buffer ops, L0 organizations only (0 = paper default)")
	predictor := fs.String("predictor", "", "direction predictor: bimodal, gshare or pas")
	perfect := fs.Bool("perfect-prediction", false, "disable the next-block predictor (ablation)")
	check := fs.Bool("check", false, "run the simulation oracle after the run (differential, metamorphic and fault checks); non-zero exit on findings")
	sweep := fs.Bool("sweep", false, "run the registry-driven geometry x predictor sweep")
	jsonOut := fs.Bool("json", false, "with -sweep: emit the report as JSON")
	par := fs.Int("par", 0, "with -sweep: worker-pool width (0 = GOMAXPROCS)")
	stream := fs.Bool("stream", false, "long-horizon mode: allow -ops, report replay throughput, and -check without materializing the trace")
	opsBound := fs.Int64("ops", 0, "with -stream: dynamic-operation horizon (0 = use -blocks)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := cliio.New(out)

	p, ok := ccc.PairingByName(*orgName)
	if !ok {
		return fmt.Errorf("unknown organization %q (have %s)", *orgName, pairingNames())
	}
	if *opsBound != 0 && !*stream {
		return fmt.Errorf("-ops requires -stream")
	}

	if *sweep {
		return runSweep(out, *bench, p, *blocks, *par, *jsonOut)
	}

	c, err := ccc.CompileBenchmark(*bench)
	if err != nil {
		return err
	}

	cfg := ccc.DefaultConfig(p.Org)
	if *sets > 0 {
		cfg.Sets = *sets
	}
	if *assoc > 0 {
		cfg.Assoc = *assoc
	}
	if *line > 0 {
		cfg.LineBytes = *line
	}
	if *l0 > 0 {
		cfg.L0Ops = *l0
	}
	if cfg.Predictor, err = ccc.ParsePredictor(*predictor); err != nil {
		return err
	}
	cfg.PerfectPrediction = *perfect

	mkStream := func(chunkEvents int) (ccc.Stream, error) {
		if *opsBound > 0 {
			return c.StreamTraceOps(*opsBound, chunkEvents)
		}
		return c.StreamTrace(*blocks, chunkEvents)
	}
	replay := func(chunkEvents int) (ccc.Result, error) {
		sim, err := c.SimFor(p, cfg)
		if err != nil {
			return ccc.Result{}, err
		}
		st, err := mkStream(chunkEvents)
		if err != nil {
			return ccc.Result{}, err
		}
		return sim.RunStream(st)
	}
	if *stream {
		return runStream(w, c, p, cfg, mkStream, replay, *check, *bench)
	}

	r, err := replay(0)
	if err != nil {
		return err
	}

	printMetrics(w, *bench, p, cfg, r)
	if *check {
		// The oracle's checks need the whole trace at once.
		tr, err := c.Trace(*blocks)
		if err != nil {
			return err
		}
		rep, err := c.CheckSim(p, cfg, tr)
		if err != nil {
			return err
		}
		if !rep.OK() {
			if err := rep.WriteText(out); err != nil {
				return err
			}
			return fmt.Errorf("simulation checks found %d error(s)", rep.Errors())
		}
		w.Printf("simcheck    oracle, invariants and fault matrix clean (%d warning(s))\n",
			rep.Warnings())
	}
	return w.Err()
}

// printMetrics reports one simulation point in the tool's standard
// layout.
func printMetrics(w *cliio.Writer, bench string, p ccc.Pairing, cfg ccc.Config, r ccc.Result) {
	w.Printf("benchmark   %s (%s scheme, %s organization)\n", bench, p.CacheScheme, p.Org)
	if p.ROMScheme != "" {
		w.Printf("ROM         %s scheme, decompressed on the miss path\n", p.ROMScheme)
	}
	w.Printf("cache       %d sets x %d ways x %dB = %dKB\n",
		cfg.Sets, cfg.Assoc, cfg.LineBytes, cfg.Sets*cfg.Assoc*cfg.LineBytes/1024)
	w.Printf("trace       %d blocks, %d ops, %d MOPs\n", r.BlockFetches, r.Ops, r.MOPs)
	w.Printf("cycles      %d\n", r.Cycles)
	w.Printf("IPC         %.4f (ideal %.4f)\n", r.IPC(), float64(r.Ops)/float64(r.MOPs))
	w.Printf("miss rate   %.2f%% of block fetches (%d lines fetched)\n",
		100*r.MissRate(), r.LinesFetched)
	w.Printf("mispredict  %.2f%%\n", 100*r.MispredictRate())
	if spec, ok := p.Org.Spec(); ok && spec.HasL0 {
		w.Printf("L0 buffer   %.2f%% hit rate (%d ops capacity)\n",
			100*float64(r.BufferHits)/float64(r.BlockFetches), cfg.L0Ops)
	}
	w.Printf("bus         %d beats, %d bytes, %d bit flips (%.2f flips/beat)\n",
		r.BusBeats, r.BytesFetched, r.BitFlips,
		float64(r.BitFlips)/float64(max64(r.BusBeats, 1)))
	w.Printf("ATB         %.2f%% hit rate\n", 100*r.ATBHitRate)
}

// runStream is the -stream path: it reports the replay's throughput
// and heap, and with check it replays the identical seed at a second
// chunk size and through the analytical oracle's streaming face
// (Compiled.CheckStream) and requires every counter bit-identical
// across all three, so the horizon never materializes.
func runStream(w *cliio.Writer, c *ccc.Compiled, p ccc.Pairing, cfg ccc.Config,
	mkStream func(int) (ccc.Stream, error), replay func(int) (ccc.Result, error),
	check bool, bench string) error {
	before := ccc.MemSnapshot()
	start := time.Now()
	r, err := replay(0)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	after := ccc.MemSnapshot()

	printMetrics(w, bench, p, cfg, r)
	mops := float64(r.Ops) / 1e6 / elapsed.Seconds()
	w.Printf("streamed    %.1f Mops/s, heap sys %d MB (was %d MB)\n",
		mops, after.HeapSys>>20, before.HeapSys>>20)

	if !check {
		return w.Err()
	}
	sc, err := c.CheckStream(p, cfg, r, mkStream, true)
	if err != nil {
		return err
	}
	if !sc.Identical {
		w.Printf("default chunks: %+v\n%d-event chunks: %+v\n", r, core.StreamCheckChunk, sc.Rechunked)
		return errors.Join(
			fmt.Errorf("streamed result depends on the chunk size"),
			w.Err())
	}
	if sc.Skipped != nil {
		w.Printf("simcheck    rechunked replay identical; oracle skipped (%v)\n", sc.Skipped)
		return w.Err()
	}
	if ms := sc.Mismatches; len(ms) > 0 {
		for _, m := range ms {
			w.Printf("oracle disagrees on %s: simulator %d, oracle %d\n", m.Field, m.Got, m.Want)
		}
		return errors.Join(
			fmt.Errorf("streaming oracle found %d mismatch(es)", len(ms)),
			w.Err())
	}
	w.Printf("simcheck    rechunked replay and streaming oracle identical\n")
	return w.Err()
}

// runSweep fans the pairing's default geometry x predictor grid out over
// the driver's worker pool and reports every point.
func runSweep(out io.Writer, bench string, p ccc.Pairing, blocks, par int, jsonOut bool) error {
	w := cliio.New(out)
	points := ccc.DefaultSweepPoints(p)
	if len(points) == 0 {
		return fmt.Errorf("no sweep points for pairing %s", p.Name)
	}
	drv := ccc.NewDriver(par)
	s := ccc.NewSuiteWithDriver(ccc.Options{Benchmarks: []string{bench}, TraceBlocks: blocks}, drv)
	rows, err := s.GeometrySweep(bench, points)
	if err != nil {
		return err
	}
	if jsonOut {
		data, err := ccc.SweepJSON(rows)
		if err != nil {
			return err
		}
		_, err = out.Write(data)
		return err
	}
	w.Print(ccc.SweepTable(rows).Render())
	w.Printf("%d points\n", len(rows))
	return w.Err()
}

// pairingNames lists the registered pairing labels for flag help and
// error messages.
func pairingNames() string {
	var names []string
	for _, p := range ccc.Pairings() {
		names = append(names, strings.ToLower(p.Name))
	}
	return strings.Join(names, ", ")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
