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
// With -stream the trace is never materialized: events flow out of the
// stochastic walker in bounded chunks, each filled when Sim.RunStream
// asks for it, so the horizon (-ops) can exceed what
// would fit in memory. -check in stream mode replays the same seed at a
// second chunk size and through the analytical oracle and requires all
// three bit-identical.
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
	"repro/internal/simcheck"
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
	stream := fs.Bool("stream", false, "stream the trace through the simulator in bounded chunks instead of materializing it")
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

	if *stream {
		return runStream(w, c, p, cfg, *blocks, *opsBound, *check, *bench)
	}

	tr, err := c.Trace(*blocks)
	if err != nil {
		return err
	}
	sim, err := c.SimFor(p, cfg)
	if err != nil {
		return err
	}
	r, err := sim.Run(tr)
	if err != nil {
		return err
	}

	printMetrics(w, *bench, p, cfg, int64(tr.Len()), r)
	if *check {
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
// layout; traceBlocks is the dynamic event count however it was
// obtained (materialized length or streamed BlockFetches).
func printMetrics(w *cliio.Writer, bench string, p ccc.Pairing, cfg ccc.Config, traceBlocks int64, r ccc.Result) {
	w.Printf("benchmark   %s (%s scheme, %s organization)\n", bench, p.CacheScheme, p.Org)
	if p.ROMScheme != "" {
		w.Printf("ROM         %s scheme, decompressed on the miss path\n", p.ROMScheme)
	}
	w.Printf("cache       %d sets x %d ways x %dB = %dKB\n",
		cfg.Sets, cfg.Assoc, cfg.LineBytes, cfg.Sets*cfg.Assoc*cfg.LineBytes/1024)
	w.Printf("trace       %d blocks, %d ops, %d MOPs\n", traceBlocks, r.Ops, r.MOPs)
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

// checkChunkEvents is the second chunk size -stream -check replays at:
// a prime, so its seams fall away from the default chunking's.
const checkChunkEvents = 997

// runStream is the -stream path: events flow out of the stochastic
// walker in bounded chunks into Sim.RunStream, so the horizon never
// materializes. With check it replays the identical seed at a second
// chunk size and through the analytical oracle and requires every
// counter bit-identical across all three.
func runStream(w *cliio.Writer, c *ccc.Compiled, p ccc.Pairing, cfg ccc.Config,
	blocks int, ops int64, check bool, bench string) error {
	mkStream := func(chunkEvents int) (ccc.Stream, error) {
		if ops > 0 {
			return c.StreamTraceOps(ops, chunkEvents)
		}
		return c.StreamTrace(blocks, chunkEvents)
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

	before := ccc.MemSnapshot()
	start := time.Now()
	r, err := replay(0)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	after := ccc.MemSnapshot()

	printMetrics(w, bench, p, cfg, r.BlockFetches, r)
	mops := float64(r.Ops) / 1e6 / elapsed.Seconds()
	w.Printf("streamed    %.1f Mops/s, heap sys %d MB (was %d MB)\n",
		mops, after.HeapSys>>20, before.HeapSys>>20)

	if !check {
		return w.Err()
	}

	// The same seed cut at another chunk size must agree exactly.
	rechunked, err := replay(checkChunkEvents)
	if err != nil {
		return err
	}
	if rechunked != r {
		w.Printf("default chunks: %+v\n%d-event chunks: %+v\n", r, checkChunkEvents, rechunked)
		return errors.Join(
			fmt.Errorf("streamed result depends on the chunk size"),
			w.Err())
	}

	// The oracle's streaming face recomputes the counters analytically.
	im, err := c.Image(p.CacheScheme)
	if err != nil {
		return err
	}
	var rom *ccc.Image
	if p.ROMScheme != "" {
		if rom, err = c.Image(p.ROMScheme); err != nil {
			return err
		}
	}
	st, err := mkStream(0)
	if err != nil {
		return err
	}
	oracle, err := simcheck.ExpectedStream(p.Org, cfg, im, rom, c.Prog, st)
	switch {
	case errors.Is(err, simcheck.ErrUnsupported):
		w.Printf("simcheck    rechunked replay identical; oracle skipped (%v)\n", err)
		return w.Err()
	case err != nil:
		return err
	}
	if ms := simcheck.Diff(r, oracle); len(ms) > 0 {
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
