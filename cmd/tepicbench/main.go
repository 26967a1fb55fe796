// Command tepicbench regenerates the paper's evaluation: every figure's
// table in one run, plus the design-space sweeps and the related/future
// work studies behind them. Builds fan out on the concurrent compilation
// driver; -json exports a machine-readable benchmark report (stage
// latencies, cache traffic, throughput) and -check decode-verifies every
// built image and re-derives every simulation's counters through the
// analytical oracle (internal/simcheck).
//
// Usage:
//
//	tepicbench                      # all figures, full-length traces
//	tepicbench -fig 13              # one figure
//	tepicbench -blocks 100000       # shorter traces (faster)
//	tepicbench -benchmarks gcc,go   # subset
//	tepicbench -par 8               # worker-pool width
//	tepicbench -json BENCH_all.json # machine-readable report
//	tepicbench -check               # fail on any decode mismatch or oracle finding
//	tepicbench -warm                # re-run on the warm cache, report hit rate
//	tepicbench -sweep streams       # the six stream configurations
//	tepicbench -sweep related       # §6 comparison (CodePack, Thumb-style)
//	tepicbench -sweep predictors    # §7 predictor study
//	tepicbench -sweep superblocks   # §7 complex fetch units
//	tepicbench -sweep speculation   # treegion-style hoisting study
//	tepicbench -sweep dict          # §7 beyond-Huffman dictionary scheme
//	tepicbench -stream -ops 100000000 -json BENCH_stream.json
//	tepicbench -stream -streammin 10 -streammaxmb 256   # gated streaming run
package main

import (
	"encoding/json"
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
	"repro/internal/stats"
	"repro/internal/superblock"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// benchReport is the machine-readable run summary written by -json: one
// JSON object per tepicbench invocation, stable field names, suitable
// for CI artifact upload and regression tracking.
type benchReport struct {
	Tool          string                         `json:"tool"`
	Figure        string                         `json:"figure"`
	Benchmarks    []string                       `json:"benchmarks"`
	Parallelism   int                            `json:"parallelism"`
	WallMS        float64                        `json:"wall_ms"`
	Stages        map[string]stats.TimerSnapshot `json:"stages"`
	CacheHits     int64                          `json:"cache_hits"`
	CacheMisses   int64                          `json:"cache_misses"`
	CacheHitRate  float64                        `json:"cache_hit_rate"`
	WarmHitRate   float64                        `json:"warm_hit_rate,omitempty"`
	BytesBase     int64                          `json:"bytes_base"`
	BytesEncoded  int64                          `json:"bytes_encoded"`
	BytesPerSec   float64                        `json:"bytes_per_sec"`
	DecodeChecked bool                           `json:"decode_checked"`
	DecodeOK      bool                           `json:"decode_ok"`
	// SimChecked/SimOK report the simulation oracle pass (-check): the
	// differential, metamorphic and fault-injection checks of
	// internal/simcheck over every benchmark × registered pairing.
	SimChecked bool `json:"sim_checked"`
	SimOK      bool `json:"sim_ok"`
	// DecodeThroughput is the measured entropy-decode rate per Huffman
	// scheme, aggregated over every benchmark in the run: the bit-by-bit
	// reference oracle, the table-driven fast decoder and the
	// lane-parallel batch kernel over identical symbol streams, with the
	// fast/ref and batch/ref speedups and the batch/fast lane gain.
	DecodeThroughput map[string]core.DecodeThroughput `json:"decode_throughput,omitempty"`
}

// decodeSchemes are the Huffman schemes whose decode throughput the
// report measures (every scheme with a fast/reference decoder pair).
var decodeSchemes = []string{"byte", "stream", "stream_1", "full"}

// run executes the tool against args, writing to out (separated from main
// for testing).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tepicbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 5, 7, 10, 13, 14 or all")
	blocks := fs.Int("blocks", 0, "trace length in blocks (0 = profile defaults, 400k)")
	benchCSV := fs.String("benchmarks", "", "comma-separated benchmark subset")
	sweep := fs.String("sweep", "", "extra study: streams, related, dict, predictors, superblocks, speculation, layout")
	par := fs.Int("par", 0, "compilation worker-pool width (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write a machine-readable benchmark report to this file")
	check := fs.Bool("check", false, "decode-verify every built image and run the simulation oracle; non-zero exit on findings")
	warm := fs.Bool("warm", false, "re-run the workload on the warm cache and report the hit rate")
	decodeMin := fs.Float64("decodemin", 0,
		"minimum batch/reference decode speedup on the full scheme; non-zero exit below it (0 = no check)")
	laneMin := fs.Float64("lanemin", 0,
		"minimum lane-kernel gain (batch/fast) on the stream scheme; non-zero exit below it (0 = no check)")
	serveMode := fs.Bool("serve", false,
		"service benchmark: boot an in-process tepicd and drive the zipf-skewed client fleet against it")
	serveWorkers := fs.Int("serveworkers", 4, "client fleet goroutine count (-serve)")
	serveRequests := fs.Int("serverequests", 25, "requests per fleet worker (-serve)")
	serveSkew := fs.Float64("serveskew", 1.07, "zipf skew exponent over the benchmark popularity ranks (-serve)")
	serveMix := fs.String("servemix", "encode,decode", "comma-separated endpoint mix: encode, decode, simulate (-serve)")
	servePairing := fs.String("servepairing", "", "registry pairing for simulate requests in the mix (-serve)")
	serveCap := fs.Int("servecap", 4096, "daemon artifact-store capacity in entries, 0 = unbounded (-serve)")
	serveMin := fs.Float64("servemin", 0,
		"minimum fleet throughput in req/s; non-zero exit below it (-serve, 0 = no check)")
	streamMode := fs.Bool("stream", false,
		"streaming benchmark: incremental replay of a never-materialized trace, differentially gated against a replay at another chunk size")
	streamOps := fs.Int64("ops", 100_000_000, "dynamic-operation horizon (-stream)")
	streamPairing := fs.String("streampairing", "Compressed", "registry pairing for the streamed run (-stream)")
	streamMin := fs.Float64("streammin", 0,
		"minimum streaming throughput in Mops/s; non-zero exit below it (-stream, 0 = no check)")
	streamMaxMB := fs.Int64("streammaxmb", 0,
		"maximum HeapSys growth in MB over the streamed replays; non-zero exit above it (-stream, 0 = no check)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *streamMode {
		bench := "compress"
		if *benchCSV != "" {
			bench = strings.Split(*benchCSV, ",")[0]
		}
		return runStreamBench(streamRun{
			bench:     bench,
			pairing:   *streamPairing,
			ops:       *streamOps,
			check:     *check,
			jsonPath:  *jsonPath,
			minMops:   *streamMin,
			maxHeapMB: *streamMaxMB,
		}, cliio.New(out))
	}

	if *serveMode {
		var benchmarks []string
		if *benchCSV != "" {
			benchmarks = strings.Split(*benchCSV, ",")
		}
		return runServe(serveRun{
			benchmarks: benchmarks,
			par:        *par,
			workers:    *serveWorkers,
			requests:   *serveRequests,
			skew:       *serveSkew,
			mix:        strings.Split(*serveMix, ","),
			pairing:    *servePairing,
			scheme:     "full",
			blocks:     *blocks,
			cachecap:   *serveCap,
			check:      *check,
			jsonPath:   *jsonPath,
			minRPS:     *serveMin,
		}, cliio.New(out))
	}

	opt := ccc.Options{TraceBlocks: *blocks}
	if *benchCSV != "" {
		opt.Benchmarks = strings.Split(*benchCSV, ",")
	}
	w := cliio.New(out)
	d := ccc.NewDriver(*par)
	s := ccc.NewSuiteWithDriver(opt, d)

	exec := func(ew *cliio.Writer) error {
		if *sweep != "" {
			return runSweep(s, opt, *sweep, ew)
		}
		return runFigures(s, *fig, ew)
	}

	start := time.Now()
	if err := exec(w); err != nil {
		return err
	}
	wall := time.Since(start)

	// Warm pass: same workload, same driver. Every artifact request must
	// resolve in the content-addressed cache.
	var warmRate float64
	if *warm {
		h0 := d.Stats().Counter("artifact.hit").Value()
		m0 := d.Stats().Counter("artifact.miss").Value()
		if err := exec(cliio.New(io.Discard)); err != nil {
			return err
		}
		dh := d.Stats().Counter("artifact.hit").Value() - h0
		dm := d.Stats().Counter("artifact.miss").Value() - m0
		if dh+dm > 0 {
			warmRate = float64(dh) / float64(dh+dm)
		}
		w.Printf("warm re-run: %d/%d artifact requests served from cache (%.1f%%)\n",
			dh, dh+dm, 100*warmRate)
	}

	// Decode check: every image the run built must decode back to the
	// scheduled program, bit for bit.
	var checkErr error
	decodeOK := true
	if *check {
		benchmarks := opt.Benchmarks
		if len(benchmarks) == 0 {
			benchmarks = ccc.Benchmarks
		}
		for _, name := range benchmarks {
			c, err := s.Compiled(name)
			if err != nil {
				return err
			}
			if err := c.Verify(); err != nil {
				decodeOK = false
				checkErr = fmt.Errorf("decode check %s: %w", name, err)
				break
			}
		}
		if decodeOK {
			w.Println("decode check: all built images decode back to the scheduled program")
		}
	}

	// Simulation oracle: re-derive every pairing's counters analytically,
	// assert the metamorphic invariants and run the fault matrix, over
	// every benchmark on the driver's worker pool.
	simOK := true
	if *check && checkErr == nil {
		rep, err := s.SimCheck()
		if err != nil {
			return err
		}
		if rep.OK() {
			w.Println("simulation check: oracle, invariants and fault matrix clean on every pairing")
		} else {
			simOK = false
			// Report through the latching writer, not the raw stream: a
			// write failure here must surface in the exit status below.
			if err := rep.WriteText(w); err != nil {
				return err
			}
			checkErr = fmt.Errorf("simulation checks found %d error(s)", rep.Errors())
		}
	}

	// Decode-throughput measurement: every Huffman scheme's symbol
	// stream at three tiers — the bit-by-bit reference oracle, the
	// table-driven fast decoder, and the lane-parallel batch kernel —
	// over every benchmark.
	var decodeRates map[string]core.DecodeThroughput
	if *jsonPath != "" || *decodeMin > 0 || *laneMin > 0 {
		benchmarks := opt.Benchmarks
		if len(benchmarks) == 0 {
			benchmarks = ccc.Benchmarks
		}
		for _, name := range benchmarks {
			c, err := s.Compiled(name)
			if err != nil {
				return err
			}
			for _, scheme := range decodeSchemes {
				if _, err := c.MeasureDecodeThroughput(scheme, 3); err != nil {
					return err
				}
			}
		}
		tsnap := d.Stats().Snapshot().Throughput
		decodeRates = make(map[string]core.DecodeThroughput, len(decodeSchemes))
		for _, scheme := range decodeSchemes {
			dr := core.DecodeThroughput{
				Scheme:    scheme,
				Fast:      tsnap["decode.fast."+scheme],
				Reference: tsnap["decode.reference."+scheme],
				Batch:     tsnap["decode.batch."+scheme],
			}
			if dr.Reference.BitsPerSec > 0 {
				dr.Speedup = dr.Fast.BitsPerSec / dr.Reference.BitsPerSec
				dr.BatchSpeedup = dr.Batch.BitsPerSec / dr.Reference.BitsPerSec
			}
			if dr.Fast.BitsPerSec > 0 {
				dr.LaneGain = dr.Batch.BitsPerSec / dr.Fast.BitsPerSec
			}
			decodeRates[scheme] = dr
			w.Printf("decode throughput %-9s ref %6.1f Mb/s  fast %7.1f Mb/s  batch %7.1f Mb/s  speedup %.2fx  lane gain %.2fx\n",
				scheme, dr.Reference.BitsPerSec/1e6, dr.Fast.BitsPerSec/1e6, dr.Batch.BitsPerSec/1e6,
				dr.BatchSpeedup, dr.LaneGain)
		}
	}

	if *jsonPath != "" {
		snap := d.Stats().Snapshot()
		figure := *fig
		if *sweep != "" {
			figure = "sweep:" + *sweep
		}
		benchmarks := opt.Benchmarks
		if len(benchmarks) == 0 {
			benchmarks = ccc.Benchmarks
		}
		rep := benchReport{
			Tool:          "tepicbench",
			Figure:        figure,
			Benchmarks:    benchmarks,
			Parallelism:   d.Workers(),
			WallMS:        float64(wall) / float64(time.Millisecond),
			Stages:        snap.Stages,
			CacheHits:     snap.Counters["artifact.hit"],
			CacheMisses:   snap.Counters["artifact.miss"],
			CacheHitRate:  d.CacheHitRate(),
			WarmHitRate:   warmRate,
			BytesBase:     snap.Counters["bytes.base"],
			BytesEncoded:  snap.Counters["bytes.encoded"],
			DecodeChecked: *check,
			DecodeOK:      decodeOK,
			SimChecked:    *check,
			SimOK:         simOK,

			DecodeThroughput: decodeRates,
		}
		if secs := wall.Seconds(); secs > 0 {
			rep.BytesPerSec = float64(rep.BytesBase) / secs
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		w.Printf("benchmark report written to %s\n", *jsonPath)
	}
	if checkErr != nil {
		// Join the latched write error so a truncated -check report is
		// never mistaken for a fully delivered one.
		return errors.Join(checkErr, w.Err())
	}
	if *decodeMin > 0 {
		if got := decodeRates["full"].BatchSpeedup; got < *decodeMin {
			return errors.Join(
				fmt.Errorf("batch decode speedup on full scheme %.2fx below minimum %.2fx", got, *decodeMin),
				w.Err())
		}
	}
	if *laneMin > 0 {
		if got := decodeRates["stream"].LaneGain; got < *laneMin {
			return errors.Join(
				fmt.Errorf("lane-kernel gain on stream scheme %.2fx below minimum %.2fx", got, *laneMin),
				w.Err())
		}
	}
	return w.Err()
}

// runFigures regenerates the requested figure tables.
func runFigures(s *ccc.Suite, fig string, w *cliio.Writer) error {
	want := func(n string) bool { return fig == "all" || fig == n }
	type figure struct {
		name string
		gen  func() (interface{ Render() string }, error)
	}
	render := func(t interface{ Render() string }, err error) (interface{ Render() string }, error) {
		return t, err
	}
	figures := []figure{
		{"5", func() (interface{ Render() string }, error) {
			r, err := s.Figure5()
			if err != nil {
				return nil, err
			}
			return render(r.Table(), nil)
		}},
		{"7", func() (interface{ Render() string }, error) {
			r, err := s.Figure7()
			if err != nil {
				return nil, err
			}
			return render(r.Table(), nil)
		}},
		{"10", func() (interface{ Render() string }, error) {
			r, err := s.Figure10()
			if err != nil {
				return nil, err
			}
			return render(r.Table(), nil)
		}},
		{"13", func() (interface{ Render() string }, error) {
			r, err := s.Figure13()
			if err != nil {
				return nil, err
			}
			return render(r.Table(), nil)
		}},
		{"14", func() (interface{ Render() string }, error) {
			r, err := s.Figure14()
			if err != nil {
				return nil, err
			}
			return render(r.Table(), nil)
		}},
	}
	matched := false
	for _, f := range figures {
		if !want(f.name) {
			continue
		}
		matched = true
		tab, err := f.gen()
		if err != nil {
			return err
		}
		w.Println(tab.Render())
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func runSweep(s *ccc.Suite, opt ccc.Options, sweep string, w *cliio.Writer) error {
	switch sweep {
	case "streams":
		rows, err := s.StreamSweep()
		if err != nil {
			return err
		}
		w.Println("Stream configuration exploration (six configurations of §2.2):")
		w.Printf("%-10s %12s %18s\n", "config", "mean ratio", "decoder log10(T)")
		for _, r := range rows {
			w.Printf("%-10s %11.1f%% %18.2f\n", r.Config, 100*r.MeanRatio, r.Log10T)
		}
	case "related":
		rows, err := s.RelatedWork()
		if err != nil {
			return err
		}
		w.Println(core.RelatedWorkTable(rows).Render())
	case "dict":
		rows, err := s.DictionarySweep(8)
		if err != nil {
			return err
		}
		w.Println("Beyond-Huffman dictionary scheme (§7 future work), 256-entry dictionary:")
		w.Printf("%-10s %10s %10s %14s %14s\n",
			"benchmark", "dict", "full", "dict RAM bits", "full log10(T)")
		for _, r := range rows {
			w.Printf("%-10s %9.1f%% %9.1f%% %14d %14.2f\n",
				r.Benchmark, 100*r.DictRatio, 100*r.FullRatio, r.DictRAMBits, r.FullLog10T)
		}
	case "predictors":
		bench := "go"
		if len(opt.Benchmarks) > 0 {
			bench = opt.Benchmarks[0]
		}
		rows, err := s.PredictorSweep(bench)
		if err != nil {
			return err
		}
		w.Println(core.PredictorTable(bench, rows).Render())
	case "layout":
		rows, err := s.LayoutStudy()
		if err != nil {
			return err
		}
		w.Println(core.LayoutTable(rows).Render())
	case "speculation":
		rows, err := s.SpeculationStudy()
		if err != nil {
			return err
		}
		w.Println(core.SpeculationTable(rows).Render())
	case "superblocks":
		names := opt.Benchmarks
		if len(names) == 0 {
			names = ccc.Benchmarks
		}
		w.Println("Complex fetch units (§7 future work): superblock formation")
		w.Printf("%-10s %7s %7s %9s %12s %10s %10s\n",
			"benchmark", "blocks", "units", "ops/unit", "fetch starts", "reduction", "side exits")
		for _, name := range names {
			c, err := s.Compiled(name)
			if err != nil {
				return err
			}
			plan, err := superblock.Build(c.Prog, 0)
			if err != nil {
				return err
			}
			tr, err := c.Trace(opt.TraceBlocks)
			if err != nil {
				return err
			}
			st := plan.Evaluate(c.Prog, tr)
			w.Printf("%-10s %7d %7d %9.2f %12d %9.1f%% %9.1f%%\n",
				name, st.Blocks, st.Units, st.AvgUnitOps,
				st.FetchStartsSB, 100*st.FetchReduction(), 100*st.SideExitRate())
		}
	default:
		return fmt.Errorf("unknown sweep %q", sweep)
	}
	return nil
}
